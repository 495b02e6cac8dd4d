// Fully-connected layer: y = x W + b, x is [B, in], W is [in, out].
#pragma once

#include "nn/layer.h"

namespace dinar::nn {

class Dense : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  void backward_params(Tensor grad_out) override;
  std::string name() const override;
  std::vector<ParamGroup> param_groups() override;
  std::unique_ptr<Layer> clone() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  Dense(const Dense&) = default;
  // dW += x^T g and db += column sums of g, for the cached input x.
  void accumulate_param_grads(const Tensor& grad_out);

  std::int64_t in_, out_;
  Tensor weight_;       // [in, out]
  Tensor bias_;         // [out]
  Tensor grad_weight_;  // [in, out]
  Tensor grad_bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace dinar::nn
