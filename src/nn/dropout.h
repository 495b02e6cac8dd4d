// Inverted dropout: in training mode each activation is zeroed with
// probability `rate` and survivors are scaled by 1/(1-rate), so inference
// (which applies the identity) needs no rescaling. The mask is cached for
// the backward pass. Deterministic given the layer's seeded Rng.
#pragma once

#include "nn/layer.h"

namespace dinar::nn {

class Dropout : public Layer {
 public:
  Dropout(double rate, Rng rng);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

  double rate() const { return rate_; }

 private:
  double rate_;
  Rng rng_;
  Tensor mask_;  // scaled keep-mask from the last training forward
};

}  // namespace dinar::nn
