#include "nn/dropout.h"

#include "util/error.h"

namespace dinar::nn {

Dropout::Dropout(double rate, Rng rng) : rate_(rate), rng_(rng) {
  DINAR_CHECK(rate >= 0.0 && rate < 1.0, "dropout rate must be in [0, 1)");
}

Tensor Dropout::forward(Tensor x, bool train) {
  if (!train || rate_ == 0.0) return x;
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  mask_ = Tensor(x.shape());
  float* pm = mask_.data();
  float* py = x.data();
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const float m = rng_.bernoulli(rate_) ? 0.0f : keep_scale;
    pm[i] = m;
    py[i] *= m;
  }
  return x;
}

Tensor Dropout::backward(Tensor grad_out) {
  if (rate_ == 0.0) return grad_out;
  DINAR_CHECK(!mask_.empty(), "Dropout::backward without a training forward");
  DINAR_CHECK(grad_out.same_shape(mask_), "Dropout backward shape mismatch");
  const float* pm = mask_.data();
  float* pd = grad_out.data();
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) pd[i] *= pm[i];
  return grad_out;
}

std::string Dropout::name() const { return "dropout(" + std::to_string(rate_) + ")"; }

std::unique_ptr<Layer> Dropout::clone() const { return std::make_unique<Dropout>(*this); }

}  // namespace dinar::nn
