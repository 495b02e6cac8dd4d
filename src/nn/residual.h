// Basic residual block (He et al. style, no batch-norm):
//   out = ReLU( conv2(ReLU(conv1(x))) + skip(x) )
// skip is the identity when shapes are preserved, otherwise a 1x1
// strided projection convolution.
//
// For DINAR's per-layer analysis the block reports one ParamGroup per
// inner convolution, so a ResNet's "layers" enumerate exactly as in the
// paper's figures.
#pragma once

#include "nn/layer.h"

namespace dinar::nn {

class ResidualBlock : public Layer {
 public:
  // stride > 1 or out_channels != in_channels adds a projection skip.
  ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                std::int64_t stride, Rng& rng);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override;
  std::vector<ParamGroup> param_groups() override;
  std::unique_ptr<Layer> clone() const override;
  // Propagates the context to the inner convolutions.
  void set_execution_context(const ExecutionContext* exec) override;

 private:
  ResidualBlock() = default;

  std::unique_ptr<Layer> conv1_;
  std::unique_ptr<Layer> relu_mid_;
  std::unique_ptr<Layer> conv2_;
  std::unique_ptr<Layer> proj_;  // null for identity skip
  std::unique_ptr<Layer> relu_out_;
  std::int64_t in_ch_ = 0, out_ch_ = 0, stride_ = 1;
};

}  // namespace dinar::nn
