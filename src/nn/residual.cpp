#include "nn/residual.h"

#include "nn/activations.h"
#include "nn/conv2d.h"
#include <utility>

#include "util/error.h"

namespace dinar::nn {

ResidualBlock::ResidualBlock(std::int64_t in_channels, std::int64_t out_channels,
                             std::int64_t stride, Rng& rng)
    : conv1_(std::make_unique<Conv2d>(in_channels, out_channels, 3, stride, 1, rng)),
      relu_mid_(std::make_unique<ReLU>()),
      conv2_(std::make_unique<Conv2d>(out_channels, out_channels, 3, 1, 1, rng)),
      relu_out_(std::make_unique<ReLU>()),
      in_ch_(in_channels), out_ch_(out_channels), stride_(stride) {
  if (stride != 1 || in_channels != out_channels)
    proj_ = std::make_unique<Conv2d>(in_channels, out_channels, 1, stride, 0, rng);
}

Tensor ResidualBlock::forward(Tensor x, bool train) {
  // x feeds both branches, so the skip gets its own copy.
  Tensor skip = proj_ ? proj_->forward(x, train) : x;
  Tensor h = conv1_->forward(std::move(x), train);
  h = relu_mid_->forward(std::move(h), train);
  h = conv2_->forward(std::move(h), train);
  DINAR_CHECK(h.same_shape(skip), "residual branch/skip shape mismatch: "
                                      << shape_to_string(h.shape()) << " vs "
                                      << shape_to_string(skip.shape()));
  h += skip;
  return relu_out_->forward(std::move(h), train);
}

Tensor ResidualBlock::backward(Tensor grad_out) {
  Tensor g = relu_out_->backward(std::move(grad_out));
  // The add distributes the gradient to both branches, so the skip gets
  // its own copy.
  Tensor g_skip = proj_ ? proj_->backward(g) : g;
  Tensor g_main = conv2_->backward(std::move(g));
  g_main = relu_mid_->backward(std::move(g_main));
  g_main = conv1_->backward(std::move(g_main));
  g_main += g_skip;
  return g_main;
}

std::string ResidualBlock::name() const {
  return "resblock(" + std::to_string(in_ch_) + "->" + std::to_string(out_ch_) + ",s" +
         std::to_string(stride_) + ")";
}

std::vector<ParamGroup> ResidualBlock::param_groups() {
  std::vector<ParamGroup> groups;
  for (Layer* inner : {conv1_.get(), conv2_.get(), proj_.get()}) {
    if (inner == nullptr) continue;
    for (ParamGroup& g : inner->param_groups()) {
      g.name = name() + "/" + g.name;
      groups.push_back(std::move(g));
    }
  }
  return groups;
}

void ResidualBlock::set_execution_context(const ExecutionContext* exec) {
  Layer::set_execution_context(exec);
  for (Layer* inner :
       {conv1_.get(), relu_mid_.get(), conv2_.get(), proj_.get(), relu_out_.get()})
    if (inner != nullptr) inner->set_execution_context(exec);
}

std::unique_ptr<Layer> ResidualBlock::clone() const {
  auto copy = std::unique_ptr<ResidualBlock>(new ResidualBlock());
  copy->conv1_ = conv1_->clone();
  copy->relu_mid_ = relu_mid_->clone();
  copy->conv2_ = conv2_->clone();
  copy->proj_ = proj_ ? proj_->clone() : nullptr;
  copy->relu_out_ = relu_out_->clone();
  copy->in_ch_ = in_ch_;
  copy->out_ch_ = out_ch_;
  copy->stride_ = stride_;
  copy->set_execution_context(exec_);
  return copy;
}

}  // namespace dinar::nn
