// Sequential neural-network model with a layer-indexed parameter registry.
//
// The registry is DINAR's pivot: Algorithm 1's "layer p" is an index into
// param_layers(), and every consumer — FedAvg aggregation, the sensitivity
// analyzer, the obfuscator, personalization, DP noise — addresses
// parameters through the same indexing, so "obfuscate layer p" and
// "restore layer p" are guaranteed to touch the same tensors.
//
// Parameters snapshot to/from nn::FlatParams: one contiguous arena plus a
// shared immutable LayerIndex built from the registry. A snapshot costs a
// single arena allocation; installing one is pure memcpy into the layers'
// existing storage. The layer index and parameter-group cache are built
// lazily and invalidated when the layer stack changes (add(), copies).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "nn/flat_params.h"
#include "nn/layer.h"

namespace dinar::nn {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;
  Model(const Model& other);
  Model& operator=(const Model& other);

  // Appends a layer; returns *this for builder-style chaining. The layer
  // inherits the model's execution context.
  Model& add(std::unique_ptr<Layer> layer);

  // Installs the execution context every layer's kernels parallelize on
  // (null = sequential). Not owned: the caller keeps it alive while the
  // model computes. Copies of a model deliberately do NOT inherit the
  // context — a model that escapes the simulation (attacker views, shadow
  // models) must not hold a pointer into its lifetime.
  void set_execution_context(const ExecutionContext* exec);
  const ExecutionContext* execution_context() const { return exec_; }

  // Copies x once, then moves each activation from layer to layer
  // (nn/layer.h); the caller's x is left unchanged.
  Tensor forward(const Tensor& x, bool train = false);
  // Backpropagates dL/d(output), copied once and then moved down the
  // stack; parameter gradients accumulate. The first layer's input
  // gradient is not computed: training never reads it.
  void backward(const Tensor& grad_output);
  // As backward(), and also returns dL/d(input) (gradient checks).
  Tensor backward_with_input_grad(const Tensor& grad_output);
  void zero_grad();

  // One parameterized-layer view per paper "layer", in forward order.
  // Pointers remain valid while the model is alive and unmodified.
  const std::vector<ParamGroup>& param_layers();
  std::size_t num_param_layers();
  std::int64_t num_parameters();
  std::size_t num_layers() const { return layers_.size(); }
  // Layer i in forward order (i < num_layers()).
  Layer& layer(std::size_t i);

  // Arena layout of this model's parameters (shared, immutable; one
  // instance per model until the layer stack changes). Every snapshot
  // produced by parameters()/gradients() shares it.
  std::shared_ptr<const LayerIndex> layer_index();

  // Snapshot of all parameter values as one contiguous arena, ordered by
  // layer then tensor (exactly the registry order).
  FlatParams parameters();
  // Overwrites all parameters from a snapshot. Layout-checked by shape
  // sequence (snapshots built by FlatParams::from_tensors carry a
  // synthesized index and must still install); pure memcpy, no allocation.
  void set_parameters(const FlatParams& params);
  // Snapshot of all gradients (same arena layout as parameters()).
  FlatParams gradients();

  // Snapshot / restore of one parameterized layer (DINAR's private-layer
  // store and obfuscator work through these). The snapshot carries a
  // single-layer sub-index whose entries keep the original names.
  FlatParams layer_parameters(std::size_t layer_index);
  void set_layer_parameters(std::size_t layer_index, const FlatParams& params);
  // Positions of layer `layer_index`'s entries inside the flat index.
  std::pair<std::size_t, std::size_t> layer_param_span(std::size_t layer_index);

  std::string summary();

 private:
  // Rebuilds the group/index caches if the layer stack changed.
  void ensure_registry();
  // Copies params (or grads) into a fresh arena sharing layer_index().
  FlatParams snapshot(bool grads);

  std::vector<std::unique_ptr<Layer>> layers_;
  const ExecutionContext* exec_ = nullptr;  // not owned

  // Lazy registry caches; valid while registry_valid_. Group pointers aim
  // into heap-allocated Layer objects, so moving the model keeps them
  // valid; copying rebuilds them.
  bool registry_valid_ = false;
  std::vector<ParamGroup> groups_;
  std::shared_ptr<const LayerIndex> index_;
  std::vector<std::shared_ptr<const LayerIndex>> layer_indices_;
};

}  // namespace dinar::nn
