// Secure-aggregation defense (paper §5.2, baseline SA [54]).
//
// Bonawitz-style pairwise additive masking: every client pair (i, j)
// shares a seed; each round client i adds, for every j != i, a mask
// derived from (seed_ij, round) with sign +1 if i < j and -1 otherwise.
// Each individual upload is statistically masked (the server-side
// attacker sees noise), but the masks cancel in the sum, so the
// aggregate is exact. Because cancellation only happens under an
// *unweighted* sum, SA clients pre-multiply their parameters by their
// FedAvg weight and set the update's pre_weighted flag (see
// fl/message.h).
//
// The global model is NOT protected — matching the paper's observation
// that SA reaches 50% attack AUC on local models while leaving the
// global model exposed (Figure 6).
#pragma once

#include <memory>
#include <vector>

#include "fl/defense.h"
#include "util/rng.h"

namespace dinar::privacy {

// Shared coordinator holding the pairwise seeds (the result of the key
// agreement a real deployment would run).
class SecureAggregationGroup {
 public:
  SecureAggregationGroup(int num_clients, std::uint64_t group_seed,
                         double mask_stddev = 1000.0);

  int num_clients() const { return num_clients_; }
  double mask_stddev() const { return mask_stddev_; }
  // Seed shared by the (unordered) pair {i, j}.
  std::uint64_t pair_seed(int i, int j) const;

 private:
  int num_clients_;
  double mask_stddev_;
  std::vector<std::uint64_t> seeds_;  // upper-triangular pair matrix
};

class SecureAggregationDefense final : public fl::ClientDefense {
 public:
  SecureAggregationDefense(std::shared_ptr<const SecureAggregationGroup> group,
                           int client_id);

  std::string name() const override { return "sa"; }
  bool uploads_pre_weighted() const override { return true; }
  nn::FlatParams before_upload(nn::Model& model, nn::FlatParams params,
                               std::int64_t num_samples, bool& pre_weighted) override;

  // The mask round is cross-round state: a resumed client must key its
  // masks exactly as the uninterrupted one would.
  void save_state(BinaryWriter& w) const override;
  void restore_state(BinaryReader& r) override;

 private:
  std::shared_ptr<const SecureAggregationGroup> group_;
  int client_id_;
  // Uploads masked so far; keys the next upload's masks. Under the
  // configurations validate_config accepts for SA (full participation, no
  // faults) it equals the server round.
  std::int64_t round_counter_ = 0;
};

}  // namespace dinar::privacy
