// Pooling layers: window max-pooling (2-D and 1-D) and global average
// pooling heads used by the ResNet/M5 architectures.
#pragma once

#include "nn/layer.h"

namespace dinar::nn {

// Non-overlapping max pooling over [B, C, H, W]; window == stride.
class MaxPool2d : public Layer {
 public:
  explicit MaxPool2d(std::int64_t window);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::int64_t window_;
  Shape cached_in_shape_;
  std::vector<std::int64_t> argmax_;  // flat input index per output element
};

// Non-overlapping max pooling over [B, C, L].
class MaxPool1d : public Layer {
 public:
  explicit MaxPool1d(std::int64_t window);

  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override;
  std::unique_ptr<Layer> clone() const override;

 private:
  std::int64_t window_;
  Shape cached_in_shape_;
  std::vector<std::int64_t> argmax_;
};

// [B, C, H, W] -> [B, C]: mean over the spatial extent.
class GlobalAvgPool2d : public Layer {
 public:
  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override { return "gap2d"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_in_shape_;
};

// [B, C, L] -> [B, C]: mean over time.
class GlobalAvgPool1d : public Layer {
 public:
  Tensor forward(Tensor x, bool train) override;
  Tensor backward(Tensor grad_out) override;
  std::string name() const override { return "gap1d"; }
  std::unique_ptr<Layer> clone() const override;

 private:
  Shape cached_in_shape_;
};

}  // namespace dinar::nn
