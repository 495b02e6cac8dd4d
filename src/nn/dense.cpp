#include "nn/dense.h"

#include <utility>

#include "util/error.h"

namespace dinar::nn {

Dense::Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_(in_features), out_(out_features),
      weight_(Tensor::kaiming({in_features, out_features}, in_features, rng)),
      bias_(Tensor::kaiming({out_features}, in_features, rng)),
      grad_weight_({in_features, out_features}), grad_bias_({out_features}) {}

Tensor Dense::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() == 2 && x.dim(1) == in_,
              "Dense(" << in_ << "," << out_ << ") got input "
                       << shape_to_string(x.shape()));
  Tensor y = gemm(Trans::kN, Trans::kN, x, weight_, exec_);
  const std::int64_t batch = y.dim(0);
  float* py = y.data();
  const float* pb = bias_.data();
  for (std::int64_t i = 0; i < batch; ++i)
    for (std::int64_t j = 0; j < out_; ++j) py[i * out_ + j] += pb[j];
  if (train) cached_input_ = std::move(x);
  return y;
}

Tensor Dense::backward(Tensor grad_out) {
  accumulate_param_grads(grad_out);
  return gemm(Trans::kN, Trans::kT, grad_out, weight_, exec_);  // dx = g W^T
}

void Dense::backward_params(Tensor grad_out) { accumulate_param_grads(grad_out); }

void Dense::accumulate_param_grads(const Tensor& grad_out) {
  DINAR_CHECK(!cached_input_.empty(), "Dense::backward without cached forward");
  DINAR_CHECK(grad_out.rank() == 2 && grad_out.dim(1) == out_,
              "Dense backward shape mismatch");
  // dW = x^T g, db = sum over batch.
  grad_weight_ += gemm(Trans::kT, Trans::kN, cached_input_, grad_out, exec_);
  const std::int64_t batch = grad_out.dim(0);
  const float* pg = grad_out.data();
  float* pdb = grad_bias_.data();
  for (std::int64_t i = 0; i < batch; ++i)
    for (std::int64_t j = 0; j < out_; ++j) pdb[j] += pg[i * out_ + j];
}

std::string Dense::name() const {
  return "dense(" + std::to_string(in_) + "x" + std::to_string(out_) + ")";
}

std::vector<ParamGroup> Dense::param_groups() {
  return {ParamGroup{name(), {&weight_, &bias_}, {&grad_weight_, &grad_bias_}}};
}

std::unique_ptr<Layer> Dense::clone() const {
  return std::unique_ptr<Layer>(new Dense(*this));
}

}  // namespace dinar::nn
