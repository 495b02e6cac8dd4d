// Shared fixtures: tiny datasets and models sized for fast unit tests.
#pragma once

#include <algorithm>
#include <memory>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "data/synthetic.h"
#include "fl/server.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/model.h"
#include "nn/model_zoo.h"

namespace dinar::testing {

// Small, well-separated two-feature dataset: class = (x0 > x1).
inline data::Dataset make_easy_dataset(std::int64_t n, Rng& rng) {
  Tensor features({n, 2});
  std::vector<int> labels(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const double x0 = rng.gaussian(), x1 = rng.gaussian();
    features.at(i, 0) = static_cast<float>(x0);
    features.at(i, 1) = static_cast<float>(x1);
    labels[static_cast<std::size_t>(i)] = x0 > x1 ? 1 : 0;
  }
  return data::Dataset(std::move(features), std::move(labels), 2);
}

// Tiny tabular dataset in the style of the paper's Purchase100 analogue.
inline data::Dataset make_tiny_tabular(std::int64_t n, int classes, Rng& rng) {
  data::TabularSpec spec;
  spec.num_samples = n;
  spec.num_features = 32;
  spec.num_classes = classes;
  spec.label_noise = 0.1;
  return data::make_tabular(spec, rng);
}

// 3-dense-layer MLP for gradient and FL tests.
inline nn::Model make_tiny_mlp(std::int64_t in, std::int64_t classes, Rng& rng) {
  nn::Model m;
  m.add(std::make_unique<nn::Dense>(in, 16, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(16, 8, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(8, classes, rng));
  return m;
}

inline nn::ModelFactory tiny_mlp_factory(std::int64_t in, std::int64_t classes) {
  return [in, classes](Rng& rng) { return make_tiny_mlp(in, classes, rng); };
}

// Over-parameterized MLP: enough capacity to memorize small shards, which
// is what makes membership-inference scenarios realistic (the paper's
// models are heavily over-parameterized relative to per-client data).
inline nn::Model make_wide_mlp(std::int64_t in, std::int64_t classes, Rng& rng) {
  nn::Model m;
  m.add(std::make_unique<nn::Dense>(in, 64, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(64, 32, rng))
      .add(std::make_unique<nn::Tanh>())
      .add(std::make_unique<nn::Dense>(32, classes, rng));
  return m;
}

inline nn::ModelFactory wide_mlp_factory(std::int64_t in, std::int64_t classes) {
  return [in, classes](Rng& rng) { return make_wide_mlp(in, classes, rng); };
}

// One round of FlServer's hardened path over a batch, driven the way the
// round protocol drives it: validate the updates in order, absorb the
// accepted ones into a streaming session, and finalize iff at least
// max(1, quorum) were accepted. Below quorum the session stays open for
// the caller's carry_forward().
struct HardenedRound {
  std::vector<fl::UpdateVerdict> verdicts;  // one per update, in order
  bool aggregated = false;                  // finalized; the round advanced
};

inline HardenedRound validate_and_aggregate(fl::FlServer& server,
                                            std::span<const fl::ModelUpdateMsg> updates,
                                            std::size_t quorum) {
  HardenedRound out;
  server.begin_aggregation();
  std::unordered_set<int> accepted_ids;
  std::optional<bool> weighting;
  for (const fl::ModelUpdateMsg& u : updates) {
    out.verdicts.push_back(server.validate_update(u, accepted_ids, weighting));
    if (!out.verdicts.back().accepted) continue;
    accepted_ids.insert(u.client_id);
    weighting = u.pre_weighted;
    server.absorb_validated(u);
  }
  if (accepted_ids.size() >= std::max<std::size_t>(1, quorum)) {
    server.finalize_aggregation();
    out.aggregated = true;
  }
  return out;
}

}  // namespace dinar::testing
