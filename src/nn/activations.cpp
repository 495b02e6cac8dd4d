#include "nn/activations.h"

#include <utility>

#include "nn/tanh_kernels.h"
#include "util/error.h"

namespace dinar::nn {

Tensor ReLU::forward(Tensor x, bool train) {
  float* v = x.data();
  const std::int64_t n = x.numel();
  // A select, not a branch: activations are sign-random, so a branch
  // mispredicts about half the time, while these loops vectorize. The clamp
  // keeps -0.0f and NaN exactly as the branch did (neither is < 0.0f).
  if (!train) {
    for (std::int64_t i = 0; i < n; ++i) v[i] = v[i] < 0.0f ? 0.0f : v[i];
    return x;
  }
  cached_shape_ = x.shape();
  zeroed_.resize(static_cast<std::size_t>(n));
  std::uint8_t* zeroed = zeroed_.data();
  // x <= 0 marks exactly the elements whose output is <= 0 (+0.0f for
  // x < 0, x itself for -0.0f and +0.0f; a NaN is neither).
  for (std::int64_t i = 0; i < n; ++i) {
    const float f = v[i];
    zeroed[i] = f <= 0.0f;
    v[i] = f < 0.0f ? 0.0f : f;
  }
  return x;
}

Tensor ReLU::backward(Tensor grad_out) {
  DINAR_CHECK(!cached_shape_.empty(), "ReLU::backward without cached forward");
  DINAR_CHECK(grad_out.shape() == cached_shape_, "ReLU backward shape mismatch");
  const std::uint8_t* zeroed = zeroed_.data();
  float* pd = grad_out.data();
  // Select as in forward; a NaN input passes its gradient through.
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) pd[i] = zeroed[i] != 0 ? 0.0f : pd[i];
  return grad_out;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(*this); }

Tensor Tanh::forward(Tensor x, bool train) {
  detail::tanh_kernel()(x.data(), static_cast<std::size_t>(x.numel()));
  if (train) cached_output_ = x;
  return x;
}

Tensor Tanh::backward(Tensor grad_out) {
  DINAR_CHECK(!cached_output_.empty(), "Tanh::backward without cached forward");
  DINAR_CHECK(grad_out.same_shape(cached_output_), "Tanh backward shape mismatch");
  const float* py = cached_output_.data();
  float* pd = grad_out.data();
  for (std::int64_t i = 0; i < grad_out.numel(); ++i) pd[i] *= 1.0f - py[i] * py[i];
  return grad_out;
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(*this); }

}  // namespace dinar::nn
