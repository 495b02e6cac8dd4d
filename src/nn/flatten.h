// Flatten: [B, ...] -> [B, prod(...)]. Backward restores the input shape.
#pragma once

#include "nn/layer.h"

namespace dinar::nn {

class Flatten : public Layer {
 public:
  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override { return "flatten"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_shape_;
};

}  // namespace dinar::nn
