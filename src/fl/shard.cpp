#include "fl/shard.h"

#include <chrono>
#include <iterator>

#include "util/error.h"

namespace dinar::fl {
namespace {

// splitmix64 (Steele/Lea/Flood): full-avalanche 64-bit mix, the standard
// cheap hash for seeding and bucketing.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

std::uint32_t shard_of(int client_id, const ShardConfig& config) {
  DINAR_CHECK(config.num_shards >= 1, "shard.num_shards must be >= 1, got "
                                          << config.num_shards);
  const std::uint64_t h = splitmix64(
      config.assignment_seed ^
      static_cast<std::uint64_t>(static_cast<std::int64_t>(client_id)));
  return static_cast<std::uint32_t>(h % config.num_shards);
}

ShardedAggregationSession::ShardedAggregationSession(RobustAggregator& aggregator,
                                                     const nn::FlatParams& global,
                                                     const ShardConfig& config)
    : aggregator_(aggregator), global_(global), config_(config) {
  DINAR_CHECK(config_.num_shards >= 1, "shard.num_shards must be >= 1, got "
                                           << config_.num_shards);
  members_.resize(config_.num_shards);
}

void ShardedAggregationSession::absorb(const ModelUpdateMsg& update) {
  members_[shard_of(update.client_id, config_)].push_back(&update);
  ++absorbed_;
}

void ShardedAggregationSession::absorb(ModelUpdateMsg&& update) {
  owned_.push_back(std::move(update));
  absorb(static_cast<const ModelUpdateMsg&>(owned_.back()));
}

HierarchicalResult ShardedAggregationSession::finalize() {
  const std::size_t num_shards = members_.size();
  // One shard at a time, each across the whole pool: the shard's strategy
  // chunks its own loops, so uneven shards leave no thread idle. An empty
  // shard keeps the empty summary and a time of 0.0.
  HierarchicalResult out;
  out.shard_seconds.assign(num_shards, 0.0);
  std::vector<ShardSummary> summaries(num_shards);
  for (std::size_t s = 0; s < num_shards; ++s) {
    if (!members_[s].empty()) {
      const auto t0 = std::chrono::steady_clock::now();
      summaries[s] = aggregator_.shard_aggregate(members_[s], global_);
      out.shard_seconds[s] =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    }
    summaries[s].stats.shard_id = static_cast<std::uint32_t>(s);
  }

  const auto c0 = std::chrono::steady_clock::now();
  out.result = aggregator_.combine(summaries, global_);
  out.combine_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - c0).count();
  out.shards.reserve(num_shards);
  for (const ShardSummary& s : summaries) out.shards.push_back(s.stats);
  return out;
}

std::vector<ModelUpdateMsg> ShardedAggregationSession::release_updates() {
  for (std::vector<const ModelUpdateMsg*>& m : members_) m.clear();
  std::vector<ModelUpdateMsg> out(std::make_move_iterator(owned_.begin()),
                                  std::make_move_iterator(owned_.end()));
  owned_.clear();
  return out;
}

}  // namespace dinar::fl
