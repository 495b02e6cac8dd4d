#include "privacy/secure_aggregation.h"

#include "util/error.h"

namespace dinar::privacy {

SecureAggregationGroup::SecureAggregationGroup(int num_clients, std::uint64_t group_seed,
                                               double mask_stddev)
    : num_clients_(num_clients), mask_stddev_(mask_stddev) {
  DINAR_CHECK(num_clients >= 2, "secure aggregation needs at least two clients");
  // Derive one seed per unordered pair from the group seed.
  Rng rng(group_seed);
  const std::size_t pairs =
      static_cast<std::size_t>(num_clients) * static_cast<std::size_t>(num_clients - 1) / 2;
  seeds_.reserve(pairs);
  for (std::size_t k = 0; k < pairs; ++k) seeds_.push_back(rng.next_u64());
}

std::uint64_t SecureAggregationGroup::pair_seed(int i, int j) const {
  DINAR_CHECK(i != j && i >= 0 && j >= 0 && i < num_clients_ && j < num_clients_,
              "invalid client pair");
  const int lo = std::min(i, j), hi = std::max(i, j);
  // Index into the flattened strict upper triangle.
  const std::size_t index = static_cast<std::size_t>(lo) *
                                (2 * static_cast<std::size_t>(num_clients_) -
                                 static_cast<std::size_t>(lo) - 1) /
                                2 +
                            static_cast<std::size_t>(hi - lo - 1);
  return seeds_[index];
}

SecureAggregationDefense::SecureAggregationDefense(
    std::shared_ptr<const SecureAggregationGroup> group, int client_id)
    : group_(std::move(group)), client_id_(client_id) {
  DINAR_CHECK(group_ != nullptr, "SA defense needs a group");
  DINAR_CHECK(client_id >= 0 && client_id < group_->num_clients(),
              "client id outside SA group");
}

nn::FlatParams SecureAggregationDefense::before_upload(nn::Model& /*model*/,
                                                       nn::FlatParams params,
                                                       std::int64_t num_samples,
                                                       bool& pre_weighted) {
  // Pre-weight so the server-side unweighted sum equals FedAvg's numerator.
  nn::flat_scale(params, static_cast<float>(num_samples));
  pre_weighted = true;

  for (int other = 0; other < group_->num_clients(); ++other) {
    if (other == client_id_) continue;
    // Fresh per-round mask stream from the shared pair seed; both ends of
    // the pair derive identical masks with opposite signs. One draw per
    // coordinate in arena order — the order the old per-tensor loop used.
    Rng mask_rng(group_->pair_seed(client_id_, other) ^
                 static_cast<std::uint64_t>(round_counter_) * 0x9e3779b97f4a7c15ULL);
    const float sign = client_id_ < other ? 1.0f : -1.0f;
    for (float& v : params.as_span())
      v += sign * static_cast<float>(mask_rng.gaussian(0.0, group_->mask_stddev()));
  }
  ++round_counter_;
  return params;
}

void SecureAggregationDefense::save_state(BinaryWriter& w) const {
  w.write_i64(round_counter_);
}

void SecureAggregationDefense::restore_state(BinaryReader& r) {
  round_counter_ = r.read_i64();
  DINAR_CHECK(round_counter_ >= 0,
              "SA state carries negative mask round " << round_counter_);
}

}  // namespace dinar::privacy
