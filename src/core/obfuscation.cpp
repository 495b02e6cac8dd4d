#include "core/obfuscation.h"

#include <cmath>

#include "util/error.h"
#include "util/stats.h"

namespace dinar::core {

void obfuscate_span(std::span<float> values, Rng& rng) {
  RunningStat stat;
  for (float v : values) stat.add(v);
  // Fallback scale for degenerate (all-zero) spans.
  const double spread = stat.stddev() > 1e-8 ? 3.0 * stat.stddev() : 0.1;
  for (float& v : values)
    v = static_cast<float>(rng.uniform(-spread, spread));
}

void obfuscate_span_with(std::span<float> values, ObfuscationStrategy strategy,
                         Rng& rng) {
  switch (strategy) {
    case ObfuscationStrategy::kScaledUniform:
      obfuscate_span(values, rng);
      return;
    case ObfuscationStrategy::kZeros:
      for (float& v : values) v = 0.0f;
      return;
    case ObfuscationStrategy::kLargeGaussian:
      for (float& v : values) v = static_cast<float>(rng.gaussian(0.0, 1.0));
      return;
  }
}

void obfuscate_layer_in_snapshot(nn::Model& model, nn::FlatParams& snapshot,
                                 std::size_t layer_index, Rng& rng,
                                 ObfuscationStrategy strategy) {
  const auto [begin, end] = model.layer_param_span(layer_index);
  DINAR_CHECK(end <= snapshot.index()->num_entries(),
              "snapshot smaller than model parameters");
  for (std::size_t i = begin; i < end; ++i)
    obfuscate_span_with(snapshot.entry_span(i), strategy, rng);
}

}  // namespace dinar::core
