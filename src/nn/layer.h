// Layer abstraction for the neural-network substrate.
//
// Layers are stateful (they cache whatever the backward pass needs), own
// their parameters and gradients, and are composed by nn::Model. The unit
// DINAR reasons about — "the p-th layer" in Algorithm 1 — is the
// *parameterized* layer: every layer exposes its parameter groups, and
// composite layers (residual blocks) expose one group per inner
// parameterized layer so sensitivity analysis and obfuscation see the same
// granularity the paper's per-layer figures use.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

namespace dinar::nn {

// One parameterized layer's tensors (weights + bias, typically) and their
// gradients, by pointer into the owning layer.
struct ParamGroup {
  std::string name;
  std::vector<Tensor*> params;
  std::vector<Tensor*> grads;

  std::int64_t numel() const {
    std::int64_t n = 0;
    for (const Tensor* p : params) n += p->numel();
    return n;
  }
};

class Layer {
 public:
  virtual ~Layer() = default;

  // Installs the execution context the layer's kernels may parallelize on
  // (null = sequential). The caller owns the context and must keep it alive
  // while the layer computes; composite layers propagate it to their inner
  // layers. Kernels are bit-identical with and without a context, so this
  // is purely a performance knob.
  virtual void set_execution_context(const ExecutionContext* exec) { exec_ = exec; }
  const ExecutionContext* execution_context() const { return exec_; }

  // Tensors pass through the stack by value: a layer owns the activation
  // it is given and may reuse its storage (ReLU clamps in place, Flatten
  // reshapes without a copy), and a caller that still needs a tensor passes
  // a copy. nn::Model moves each activation and gradient from layer to
  // layer, so a step copies only the model's input and its loss gradient.

  // Computes the layer output; when `train` is true the layer caches what
  // backward() needs, and keeps it until the next training forward:
  //   - Conv2d, Conv1d and Dense keep their input (moved in, not copied);
  //   - ReLU keeps a byte mask of the elements whose gradient it zeroes;
  //   - Tanh keeps a copy of its output;
  //   - pooling layers keep their input shape (and argmax indices);
  //   - Flatten keeps its input shape;
  //   - ResidualBlock's inner layers keep theirs.
  // An eval forward (train = false) leaves the cache alone. Gradients
  // accumulate into the grad tensors (callers zero them via
  // Model::zero_grad between steps).
  virtual Tensor forward(Tensor x, bool train) = 0;

  // Given dL/d(output), accumulates parameter gradients and returns
  // dL/d(input), reusing grad_out's storage where the layer can. Must
  // follow a forward(x, /*train=*/true) call.
  virtual Tensor backward(Tensor grad_out) = 0;

  // backward() for a caller that never reads dL/d(input) (the model's
  // first layer): accumulates bit-identical parameter gradients, and
  // layers whose input gradient is real work skip it.
  virtual void backward_params(Tensor grad_out) { backward(std::move(grad_out)); }

  virtual std::string name() const = 0;

  // Parameter groups of this layer; empty for stateless layers. Composite
  // layers return one group per inner parameterized layer.
  virtual std::vector<ParamGroup> param_groups() { return {}; }

  // Deep copy including current parameter values (used to replicate the
  // initial model across FL clients).
  virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  const ExecutionContext* exec_ = nullptr;  // not owned
};

}  // namespace dinar::nn
