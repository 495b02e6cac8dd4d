#include "nn/activations.h"

#include <cmath>

#include "util/error.h"

namespace dinar::nn {

Tensor ReLU::forward(const Tensor& x, bool train) {
  if (train) cached_input_ = x;
  Tensor y = x;
  // A select, not a branch: activations are sign-random, so a branch
  // mispredicts about half the time, while this loop vectorizes. It keeps
  // -0.0f and NaN exactly as the branch did (neither is < 0.0f).
  for (float& v : y.values()) v = v < 0.0f ? 0.0f : v;
  return y;
}

Tensor ReLU::backward(const Tensor& grad_out) {
  DINAR_CHECK(!cached_input_.empty(), "ReLU::backward without cached forward");
  DINAR_CHECK(grad_out.same_shape(cached_input_), "ReLU backward shape mismatch");
  Tensor dx = grad_out;
  const float* px = cached_input_.data();
  float* pd = dx.data();
  // Select as in forward; a NaN input passes its gradient through.
  for (std::int64_t i = 0; i < dx.numel(); ++i) pd[i] = px[i] <= 0.0f ? 0.0f : pd[i];
  return dx;
}

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(*this); }

Tensor Tanh::forward(const Tensor& x, bool train) {
  Tensor y = x;
  for (float& v : y.values()) v = std::tanh(v);
  if (train) cached_output_ = y;
  return y;
}

Tensor Tanh::backward(const Tensor& grad_out) {
  DINAR_CHECK(!cached_output_.empty(), "Tanh::backward without cached forward");
  DINAR_CHECK(grad_out.same_shape(cached_output_), "Tanh backward shape mismatch");
  Tensor dx = grad_out;
  const float* py = cached_output_.data();
  float* pd = dx.data();
  for (std::int64_t i = 0; i < dx.numel(); ++i) pd[i] *= 1.0f - py[i] * py[i];
  return dx;
}

std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(*this); }

}  // namespace dinar::nn
