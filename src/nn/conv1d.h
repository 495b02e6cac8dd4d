// 1-D convolution over [B, C, L] inputs — the audio path (paper's Speech
// Commands / M18 substitute operates on raw synthetic waveforms).
#pragma once

#include <optional>

#include "nn/conv_kernels.h"
#include "nn/layer.h"

namespace dinar::nn {

class Conv1d : public Layer {
 public:
  Conv1d(std::int64_t in_channels, std::int64_t out_channels, std::int64_t kernel,
         std::int64_t stride, std::int64_t padding, Rng& rng);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  void backward_params(Tensor grad_out) override;
  std::string name() const override;
  std::vector<ParamGroup> param_groups() override;
  std::unique_ptr<Layer> clone() const override;

  std::int64_t out_size(std::int64_t in_size) const {
    return (in_size + 2 * padding_ - kernel_) / stride_ + 1;
  }

 private:
  Conv1d(const Conv1d&) = default;
  // The cached training geometry, checked against grad_out's shape.
  const ConvShape& backward_shape(const Tensor& grad_out) const;

  std::int64_t in_ch_, out_ch_, kernel_, stride_, padding_;
  Tensor weight_;  // [OC, IC, K]
  Tensor bias_;    // [OC]
  Tensor grad_weight_;
  Tensor grad_bias_;
  std::optional<ConvShape> cached_shape_;  // geometry of the last training forward
  Tensor cached_input_;                    // its input, read by backward
};

}  // namespace dinar::nn
