#include "nn/pooling.h"

#include <limits>

#include "util/error.h"

namespace dinar::nn {
namespace {

// Running maximum of one pooling window, written as selects: a branch on
// the comparison mispredicts on sign-random activations wherever the
// compiler keeps it. The strict > keeps the first of tied values and never
// takes a NaN, and the index starts at the window's first element, so a
// window of -inf/NaN routes its gradient inside itself.
struct WindowMax {
  explicit WindowMax(std::int64_t first) : index(first) {}

  void offer(const float* x, std::int64_t idx) {
    const float v = x[idx];
    const bool take = v > value;
    value = take ? v : value;
    index = take ? idx : index;
  }

  float value = -std::numeric_limits<float>::infinity();
  std::int64_t index;  // flat input index of `value`
};

}  // namespace

MaxPool2d::MaxPool2d(std::int64_t window) : window_(window) {
  DINAR_CHECK(window >= 1, "pool window must be >= 1");
}

Tensor MaxPool2d::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() == 4, "MaxPool2d expects [B,C,H,W]");
  const std::int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h / window_, ow = w / window_;
  DINAR_CHECK(oh >= 1 && ow >= 1, "MaxPool2d: input smaller than window");
  Tensor y({b, c, oh, ow});
  if (train) {
    cached_in_shape_ = x.shape();
    argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  }
  const float* px = x.data();
  float* py = y.data();
  std::int64_t out_idx = 0;
  for (std::int64_t plane = 0; plane < b * c; ++plane) {
    const std::int64_t base = plane * h * w;
    for (std::int64_t i = 0; i < oh; ++i) {
      for (std::int64_t j = 0; j < ow; ++j, ++out_idx) {
        const std::int64_t first = base + i * window_ * w + j * window_;
        WindowMax m(first);
        for (std::int64_t di = 0; di < window_; ++di) {
          const std::int64_t row = first + di * w;
          for (std::int64_t dj = 0; dj < window_; ++dj) m.offer(px, row + dj);
        }
        py[out_idx] = m.value;
        if (train) argmax_[static_cast<std::size_t>(out_idx)] = m.index;
      }
    }
  }
  return y;
}

Tensor MaxPool2d::backward(Tensor grad_out) {
  DINAR_CHECK(!cached_in_shape_.empty(), "MaxPool2d::backward without cached forward");
  DINAR_CHECK(grad_out.numel() == static_cast<std::int64_t>(argmax_.size()),
              "MaxPool2d backward shape mismatch");
  Tensor dx(cached_in_shape_);
  float* pdx = dx.data();
  const float* pg = grad_out.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    pdx[argmax_[i]] += pg[i];
  return dx;
}

std::string MaxPool2d::name() const { return "maxpool2d(" + std::to_string(window_) + ")"; }

std::unique_ptr<Layer> MaxPool2d::clone() const {
  return std::make_unique<MaxPool2d>(*this);
}

MaxPool1d::MaxPool1d(std::int64_t window) : window_(window) {
  DINAR_CHECK(window >= 1, "pool window must be >= 1");
}

Tensor MaxPool1d::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() == 3, "MaxPool1d expects [B,C,L]");
  const std::int64_t b = x.dim(0), c = x.dim(1), l = x.dim(2);
  const std::int64_t ol = l / window_;
  DINAR_CHECK(ol >= 1, "MaxPool1d: input shorter than window");
  Tensor y({b, c, ol});
  if (train) {
    cached_in_shape_ = x.shape();
    argmax_.assign(static_cast<std::size_t>(y.numel()), 0);
  }
  const float* px = x.data();
  float* py = y.data();
  std::int64_t out_idx = 0;
  for (std::int64_t row = 0; row < b * c; ++row) {
    for (std::int64_t i = 0; i < ol; ++i, ++out_idx) {
      const std::int64_t first = row * l + i * window_;
      WindowMax m(first);
      for (std::int64_t d = 0; d < window_; ++d) m.offer(px, first + d);
      py[out_idx] = m.value;
      if (train) argmax_[static_cast<std::size_t>(out_idx)] = m.index;
    }
  }
  return y;
}

Tensor MaxPool1d::backward(Tensor grad_out) {
  DINAR_CHECK(!cached_in_shape_.empty(), "MaxPool1d::backward without cached forward");
  DINAR_CHECK(grad_out.numel() == static_cast<std::int64_t>(argmax_.size()),
              "MaxPool1d backward shape mismatch");
  Tensor dx(cached_in_shape_);
  float* pdx = dx.data();
  const float* pg = grad_out.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i)
    pdx[argmax_[i]] += pg[i];
  return dx;
}

std::string MaxPool1d::name() const { return "maxpool1d(" + std::to_string(window_) + ")"; }

std::unique_ptr<Layer> MaxPool1d::clone() const {
  return std::make_unique<MaxPool1d>(*this);
}

Tensor GlobalAvgPool2d::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() == 4, "GlobalAvgPool2d expects [B,C,H,W]");
  if (train) cached_in_shape_ = x.shape();
  const std::int64_t b = x.dim(0), c = x.dim(1), hw = x.dim(2) * x.dim(3);
  Tensor y({b, c});
  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t n = 0; n < b; ++n) {
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double acc = 0.0;
      const float* plane = px + (n * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) acc += plane[i];
      py[n * c + ch] = static_cast<float>(acc / static_cast<double>(hw));
    }
  }
  return y;
}

Tensor GlobalAvgPool2d::backward(Tensor grad_out) {
  DINAR_CHECK(!cached_in_shape_.empty(), "GlobalAvgPool2d::backward without forward");
  Tensor dx(cached_in_shape_);
  const std::int64_t b = cached_in_shape_[0], c = cached_in_shape_[1],
                     hw = cached_in_shape_[2] * cached_in_shape_[3];
  const float inv = 1.0f / static_cast<float>(hw);
  float* pdx = dx.data();
  const float* pg = grad_out.data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = pg[n * c + ch] * inv;
      float* plane = pdx + (n * c + ch) * hw;
      for (std::int64_t i = 0; i < hw; ++i) plane[i] = g;
    }
  return dx;
}

std::unique_ptr<Layer> GlobalAvgPool2d::clone() const {
  return std::make_unique<GlobalAvgPool2d>(*this);
}

Tensor GlobalAvgPool1d::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() == 3, "GlobalAvgPool1d expects [B,C,L]");
  if (train) cached_in_shape_ = x.shape();
  const std::int64_t b = x.dim(0), c = x.dim(1), l = x.dim(2);
  Tensor y({b, c});
  const float* px = x.data();
  float* py = y.data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      double acc = 0.0;
      const float* row = px + (n * c + ch) * l;
      for (std::int64_t i = 0; i < l; ++i) acc += row[i];
      py[n * c + ch] = static_cast<float>(acc / static_cast<double>(l));
    }
  return y;
}

Tensor GlobalAvgPool1d::backward(Tensor grad_out) {
  DINAR_CHECK(!cached_in_shape_.empty(), "GlobalAvgPool1d::backward without forward");
  Tensor dx(cached_in_shape_);
  const std::int64_t b = cached_in_shape_[0], c = cached_in_shape_[1],
                     l = cached_in_shape_[2];
  const float inv = 1.0f / static_cast<float>(l);
  float* pdx = dx.data();
  const float* pg = grad_out.data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const float g = pg[n * c + ch] * inv;
      float* row = pdx + (n * c + ch) * l;
      for (std::int64_t i = 0; i < l; ++i) row[i] = g;
    }
  return dx;
}

std::unique_ptr<Layer> GlobalAvgPool1d::clone() const {
  return std::make_unique<GlobalAvgPool1d>(*this);
}

}  // namespace dinar::nn
