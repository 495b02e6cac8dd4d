// Fully-connected layer: y = x W + b, x is [B, in], W is [in, out].
#pragma once

#include "nn/layer.h"

namespace dinar::nn {

class Dense : public Layer {
 public:
  Dense(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& x, bool train) override;
  Tensor backward(const Tensor& grad_out) override;
  void backward_params(const Tensor& grad_out) override;
  std::string name() const override;
  std::vector<ParamGroup> param_groups() override;
  std::unique_ptr<Layer> clone() const override;

  std::int64_t in_features() const { return in_; }
  std::int64_t out_features() const { return out_; }

 private:
  Dense(const Dense&) = default;

  std::int64_t in_, out_;
  Tensor weight_;       // [in, out]
  Tensor bias_;         // [out]
  Tensor grad_weight_;  // [in, out]
  Tensor grad_bias_;    // [out]
  Tensor cached_input_;
};

}  // namespace dinar::nn
