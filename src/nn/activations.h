// Stateless (parameter-free) activation layers. Both work in place on the
// tensor they are given (nn/layer.h).
#pragma once

#include <cstdint>
#include <vector>

#include "nn/layer.h"

namespace dinar::nn {

class ReLU : public Layer {
 public:
  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override { return "relu"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  // Shape of the last training input, and per element whether backward
  // zeroes its gradient (input <= 0).
  Shape cached_shape_;
  std::vector<std::uint8_t> zeroed_;
};

class Tanh : public Layer {
 public:
  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override { return "tanh"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  Tensor cached_output_;
};

}  // namespace dinar::nn
