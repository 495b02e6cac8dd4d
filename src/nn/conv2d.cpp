#include "nn/conv2d.h"

#include <utility>

#include "util/error.h"

namespace dinar::nn {

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
               std::int64_t stride, std::int64_t padding, Rng& rng)
    : in_ch_(in_channels), out_ch_(out_channels), kernel_(kernel), stride_(stride),
      padding_(padding),
      weight_(Tensor::kaiming({out_channels, in_channels, kernel, kernel},
                              in_channels * kernel * kernel, rng)),
      bias_(Tensor::kaiming({out_channels}, in_channels * kernel * kernel, rng)),
      grad_weight_({out_channels, in_channels, kernel, kernel}),
      grad_bias_({out_channels}) {
  DINAR_CHECK(stride >= 1 && kernel >= 1 && padding >= 0, "invalid conv2d geometry");
}

Tensor Conv2d::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() == 4 && x.dim(1) == in_ch_,
              name() << " got input " << shape_to_string(x.shape()));
  const std::int64_t b = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = out_size(h), ow = out_size(w);
  DINAR_CHECK(oh >= 1 && ow >= 1, name() << ": input spatially too small");

  const ConvShape s{b, in_ch_, h, w, out_ch_, kernel_, kernel_, stride_,
                    padding_, padding_, oh, ow};
  Tensor y({b, out_ch_, oh, ow});
  conv_forward(s, x.data(), weight_.data(), bias_.data(), y.data(), exec_);
  if (train) {
    cached_input_ = std::move(x);
    cached_shape_ = s;
  }
  return y;
}

const ConvShape& Conv2d::backward_shape(const Tensor& grad_out) const {
  DINAR_CHECK(cached_shape_.has_value(), "Conv2d::backward without cached forward");
  const ConvShape& s = *cached_shape_;
  DINAR_CHECK(grad_out.rank() == 4 && grad_out.dim(0) == s.batch &&
                  grad_out.dim(1) == out_ch_ && grad_out.dim(2) == s.oh &&
                  grad_out.dim(3) == s.ow,
              "Conv2d backward shape mismatch");
  return s;
}

Tensor Conv2d::backward(Tensor grad_out) {
  const ConvShape& s = backward_shape(grad_out);
  Tensor dx({s.batch, in_ch_, s.h, s.w});
  conv_backward(s, cached_input_.data(), weight_.data(), grad_out.data(),
                grad_weight_.data(), grad_bias_.data(), dx.data(), exec_);
  return dx;
}

void Conv2d::backward_params(Tensor grad_out) {
  conv_backward(backward_shape(grad_out), cached_input_.data(), weight_.data(),
                grad_out.data(), grad_weight_.data(), grad_bias_.data(),
                /*dx=*/nullptr, exec_);
}

std::string Conv2d::name() const {
  return "conv2d(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) + ",k" +
         std::to_string(kernel_) + ",s" + std::to_string(stride_) + ",p" +
         std::to_string(padding_) + ")";
}

std::vector<ParamGroup> Conv2d::param_groups() {
  return {ParamGroup{name(), {&weight_, &bias_}, {&grad_weight_, &grad_bias_}}};
}

std::unique_ptr<Layer> Conv2d::clone() const {
  return std::unique_ptr<Layer>(new Conv2d(*this));
}

}  // namespace dinar::nn
