// Layer obfuscation (paper §4.2, Algorithm 1 line 17).
//
// Obfuscation replaces a layer's parameters with random values before
// upload. The replacement draws match the layer's own value scale
// (uniform over ±3x the layer's standard deviation) so the obfuscated
// tensor is statistically plausible as weights — a server cannot detect
// and strip the obfuscation by magnitude inspection — while carrying no
// information about the true parameters.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "nn/model.h"

namespace dinar::core {

// How the private layer is destroyed before upload. The paper specifies
// "random values"; the ablation bench compares the design alternatives:
//  - kScaledUniform (default): uniform over ±3x the layer's own stddev —
//    statistically plausible as weights, undetectable by magnitude;
//  - kZeros: zero the layer — trivially detectable, and biases FedAvg;
//  - kLargeGaussian: N(0, 1) noise — hides the layer but its magnitude
//    outs the obfuscation and pollutes the aggregate scale.
enum class ObfuscationStrategy { kScaledUniform, kZeros, kLargeGaussian };

// Randomizes one value span in place, scale-matched to its current
// contents. Spans map 1:1 to layer-index entries, so statistics stay at
// the original per-tensor granularity.
void obfuscate_span(std::span<float> values, Rng& rng);

// Strategy-selected variant.
void obfuscate_span_with(std::span<float> values, ObfuscationStrategy strategy,
                         Rng& rng);

// Randomizes the entries of layer `layer_index` inside a flat parameter
// snapshot laid out like `model`'s parameters() (used by the defense's
// before_upload, which transforms the outgoing copy, never the live
// model). Each entry is randomized separately so the draw sequence
// matches the old per-tensor implementation.
void obfuscate_layer_in_snapshot(
    nn::Model& model, nn::FlatParams& snapshot, std::size_t layer_index, Rng& rng,
    ObfuscationStrategy strategy = ObfuscationStrategy::kScaledUniform);

}  // namespace dinar::core
