#include "nn/conv1d.h"

#include <utility>

#include "util/error.h"

namespace dinar::nn {

Conv1d::Conv1d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, Rng& rng)
    : in_ch_(in_channels), out_ch_(out_channels), kernel_(kernel), stride_(stride),
      padding_(padding),
      weight_(Tensor::kaiming({out_channels, in_channels, kernel},
                              in_channels * kernel, rng)),
      bias_(Tensor::kaiming({out_channels}, in_channels * kernel, rng)),
      grad_weight_({out_channels, in_channels, kernel}), grad_bias_({out_channels}) {
  DINAR_CHECK(stride >= 1 && kernel >= 1 && padding >= 0, "invalid conv1d geometry");
}

Tensor Conv1d::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() == 3 && x.dim(1) == in_ch_,
              name() << " got input " << shape_to_string(x.shape()));
  const std::int64_t b = x.dim(0), l = x.dim(2);
  const std::int64_t ol = out_size(l);
  DINAR_CHECK(ol >= 1, name() << ": input too short");

  // A 1-D convolution is the height-1 case of the 2-D lowering: [B, C, L]
  // is read as [B, C, 1, L] with a (1, K) kernel.
  const ConvShape s{b, in_ch_, 1, l, out_ch_, 1, kernel_, stride_, 0, padding_, 1, ol};
  Tensor y({b, out_ch_, ol});
  conv_forward(s, x.data(), weight_.data(), bias_.data(), y.data(), exec_);
  if (train) {
    cached_input_ = std::move(x);
    cached_shape_ = s;
  }
  return y;
}

const ConvShape& Conv1d::backward_shape(const Tensor& grad_out) const {
  DINAR_CHECK(cached_shape_.has_value(), "Conv1d::backward without cached forward");
  const ConvShape& s = *cached_shape_;
  DINAR_CHECK(grad_out.rank() == 3 && grad_out.dim(0) == s.batch &&
                  grad_out.dim(1) == out_ch_ && grad_out.dim(2) == s.ow,
              "Conv1d backward shape mismatch");
  return s;
}

Tensor Conv1d::backward(Tensor grad_out) {
  const ConvShape& s = backward_shape(grad_out);
  Tensor dx({s.batch, in_ch_, s.w});
  conv_backward(s, cached_input_.data(), weight_.data(), grad_out.data(),
                grad_weight_.data(), grad_bias_.data(), dx.data(), exec_);
  return dx;
}

void Conv1d::backward_params(Tensor grad_out) {
  conv_backward(backward_shape(grad_out), cached_input_.data(), weight_.data(),
                grad_out.data(), grad_weight_.data(), grad_bias_.data(),
                /*dx=*/nullptr, exec_);
}

std::string Conv1d::name() const {
  return "conv1d(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) + ",k" +
         std::to_string(kernel_) + ",s" + std::to_string(stride_) + ",p" +
         std::to_string(padding_) + ")";
}

std::vector<ParamGroup> Conv1d::param_groups() {
  return {ParamGroup{name(), {&weight_, &bias_}, {&grad_weight_, &grad_bias_}}};
}

std::unique_ptr<Layer> Conv1d::clone() const {
  return std::unique_ptr<Layer>(new Conv1d(*this));
}

}  // namespace dinar::nn
