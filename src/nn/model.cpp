#include "nn/model.h"

#include <cmath>
#include <cstring>
#include <sstream>
#include <utility>

#include "util/error.h"
#include "util/memory_tracker.h"

namespace dinar::nn {

Model::Model(const Model& other) {
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  // A copy never inherits the source's execution context (see header).
  set_execution_context(nullptr);
}

Model& Model::operator=(const Model& other) {
  if (this == &other) return *this;
  layers_.clear();
  layers_.reserve(other.layers_.size());
  for (const auto& l : other.layers_) layers_.push_back(l->clone());
  registry_valid_ = false;
  groups_.clear();
  index_ = nullptr;
  layer_indices_.clear();
  set_execution_context(nullptr);
  return *this;
}

Model& Model::add(std::unique_ptr<Layer> layer) {
  DINAR_CHECK(layer != nullptr, "cannot add a null layer");
  layer->set_execution_context(exec_);
  layers_.push_back(std::move(layer));
  registry_valid_ = false;
  return *this;
}

Layer& Model::layer(std::size_t i) {
  DINAR_CHECK(i < layers_.size(), "layer " << i << " out of " << layers_.size());
  return *layers_[i];
}

void Model::set_execution_context(const ExecutionContext* exec) {
  exec_ = exec;
  for (auto& layer : layers_) layer->set_execution_context(exec);
}

Tensor Model::forward(const Tensor& x, bool train) {
  // One copy of the caller's input; from there each layer owns the
  // activation it is given (nn/layer.h).
  Tensor h = x;
  for (auto& layer : layers_) h = layer->forward(std::move(h), train);
  return h;
}

void Model::backward(const Tensor& grad_output) {
  if (layers_.empty()) return;
  Tensor g = grad_output;
  for (std::size_t i = layers_.size() - 1; i > 0; --i)
    g = layers_[i]->backward(std::move(g));
  layers_.front()->backward_params(std::move(g));
}

Tensor Model::backward_with_input_grad(const Tensor& grad_output) {
  Tensor g = grad_output;
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
    g = (*it)->backward(std::move(g));
  return g;
}

void Model::zero_grad() {
  for (auto& layer : layers_)
    for (ParamGroup& group : layer->param_groups())
      for (Tensor* grad : group.grads) grad->zero();
}

void Model::ensure_registry() {
  if (registry_valid_) return;
  groups_.clear();
  layer_indices_.clear();
  for (auto& layer : layers_)
    for (ParamGroup& g : layer->param_groups()) groups_.push_back(std::move(g));

  std::vector<LayerEntry> entries;
  for (std::size_t l = 0; l < groups_.size(); ++l) {
    const ParamGroup& g = groups_[l];
    for (std::size_t t = 0; t < g.params.size(); ++t) {
      LayerEntry e;
      e.name = g.name + "/param" + std::to_string(t);
      e.layer_id = static_cast<std::uint32_t>(l);
      e.shape = g.params[t]->shape();
      entries.push_back(std::move(e));
    }
  }
  index_ = LayerIndex::build(std::move(entries));

  // Single-layer sub-indices for layer_parameters() snapshots.
  layer_indices_.reserve(groups_.size());
  for (std::size_t l = 0; l < groups_.size(); ++l) {
    const auto [first, last] = index_->layer_entry_range(l);
    std::vector<LayerEntry> sub;
    sub.reserve(last - first);
    for (std::size_t i = first; i < last; ++i) {
      LayerEntry e = index_->entry(i);
      e.layer_id = 0;
      sub.push_back(std::move(e));
    }
    layer_indices_.push_back(LayerIndex::build(std::move(sub)));
  }
  registry_valid_ = true;
}

const std::vector<ParamGroup>& Model::param_layers() {
  ensure_registry();
  return groups_;
}

std::size_t Model::num_param_layers() { return param_layers().size(); }

std::int64_t Model::num_parameters() {
  ensure_registry();
  return index_->total_numel();
}

std::shared_ptr<const LayerIndex> Model::layer_index() {
  ensure_registry();
  return index_;
}

FlatParams Model::snapshot(bool grads) {
  ensure_registry();
  std::vector<float> values(static_cast<std::size_t>(index_->total_numel()));
  std::size_t e = 0;
  for (const ParamGroup& g : groups_) {
    for (const Tensor* t : grads ? g.grads : g.params) {
      const LayerEntry& entry = index_->entry(e++);
      std::memcpy(values.data() + entry.offset, t->data(),
                  static_cast<std::size_t>(entry.numel) * sizeof(float));
    }
  }
  MemoryTracker::instance().record_copy(values.size() * sizeof(float));
  return FlatParams(index_, std::move(values));
}

FlatParams Model::parameters() { return snapshot(/*grads=*/false); }

FlatParams Model::gradients() { return snapshot(/*grads=*/true); }

void Model::set_parameters(const FlatParams& params) {
  ensure_registry();
  DINAR_CHECK(params.index() != nullptr, "set_parameters: empty snapshot");
  DINAR_CHECK(index_->same_layout(*params.index()),
              "set_parameters: layout mismatch (" << params.numel()
                  << " elements across " << params.index()->num_entries()
                  << " entries, model has " << index_->total_numel()
                  << " across " << index_->num_entries() << ")");
  std::size_t e = 0;
  for (const ParamGroup& g : groups_) {
    for (Tensor* t : g.params) {
      const std::span<const float> src = params.entry_span(e++);
      std::memcpy(t->data(), src.data(), src.size() * sizeof(float));
    }
  }
  MemoryTracker::instance().record_copy(
      static_cast<std::size_t>(params.numel()) * sizeof(float));
}

FlatParams Model::layer_parameters(std::size_t layer_index) {
  ensure_registry();
  DINAR_CHECK(layer_index < groups_.size(),
              "layer index " << layer_index << " out of " << groups_.size());
  const auto& sub = layer_indices_[layer_index];
  std::vector<float> values(static_cast<std::size_t>(sub->total_numel()));
  const ParamGroup& g = groups_[layer_index];
  for (std::size_t t = 0; t < g.params.size(); ++t) {
    const LayerEntry& e = sub->entry(t);
    std::memcpy(values.data() + e.offset, g.params[t]->data(),
                static_cast<std::size_t>(e.numel) * sizeof(float));
  }
  MemoryTracker::instance().record_copy(values.size() * sizeof(float));
  return FlatParams(sub, std::move(values));
}

void Model::set_layer_parameters(std::size_t layer_index, const FlatParams& params) {
  ensure_registry();
  DINAR_CHECK(layer_index < groups_.size(),
              "layer index " << layer_index << " out of " << groups_.size());
  const auto& sub = layer_indices_[layer_index];
  DINAR_CHECK(params.index() != nullptr && sub->same_layout(*params.index()),
              "layer " << layer_index << ": snapshot layout mismatch");
  ParamGroup& g = groups_[layer_index];
  for (std::size_t t = 0; t < g.params.size(); ++t) {
    const std::span<const float> src = params.entry_span(t);
    std::memcpy(g.params[t]->data(), src.data(), src.size() * sizeof(float));
  }
  MemoryTracker::instance().record_copy(
      static_cast<std::size_t>(params.numel()) * sizeof(float));
}

std::pair<std::size_t, std::size_t> Model::layer_param_span(std::size_t layer_index) {
  ensure_registry();
  return index_->layer_entry_range(layer_index);
}

std::string Model::summary() {
  std::ostringstream os;
  os << "Model with " << layers_.size() << " layers, " << num_param_layers()
     << " parameterized, " << num_parameters() << " parameters\n";
  std::size_t idx = 0;
  for (const ParamGroup& g : param_layers())
    os << "  [" << idx++ << "] " << g.name << " (" << g.numel() << " params)\n";
  return os.str();
}

}  // namespace dinar::nn
