#include "nn/flatten.h"

#include <utility>

#include "util/error.h"

namespace dinar::nn {

Tensor Flatten::forward(Tensor x, bool train) {
  DINAR_CHECK(x.rank() >= 2, "Flatten expects a batched input");
  if (train) cached_shape_ = x.shape();
  const std::int64_t batch = x.dim(0);
  const std::int64_t features = x.numel() / batch;
  return std::move(x).reshaped({batch, features});
}

Tensor Flatten::backward(Tensor grad_out) {
  DINAR_CHECK(!cached_shape_.empty(), "Flatten::backward without cached forward");
  return std::move(grad_out).reshaped(cached_shape_);
}

std::unique_ptr<Layer> Flatten::clone() const { return std::make_unique<Flatten>(*this); }

}  // namespace dinar::nn
