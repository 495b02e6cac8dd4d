#include "fl/shard.h"

#include <chrono>

#include "util/error.h"
#include "util/execution_context.h"

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
                                                     const ShardConfig& config,
                                                     const ExecutionContext* exec)
    : aggregator_(aggregator), global_(global), config_(config), exec_(exec) {
  DINAR_CHECK(config_.num_shards >= 1, "shard.num_shards must be >= 1, got "
                                           << config_.num_shards);
  accumulators_.reserve(config_.num_shards);
  for (std::size_t s = 0; s < config_.num_shards; ++s)
    accumulators_.push_back(aggregator_.begin_shard(global_));
  shard_seconds_.assign(config_.num_shards, 0.0);
}

void ShardedAggregationSession::absorb(const ModelUpdateMsg& update) {
  const std::uint32_t s = shard_of(update.client_id, config_);
  const auto t0 = std::chrono::steady_clock::now();
  accumulators_[s]->absorb(update);
  shard_seconds_[s] +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  ++absorbed_;
}

HierarchicalResult ShardedAggregationSession::finalize() {
  const std::size_t num_shards = accumulators_.size();
  // Close the accumulators as one task per shard (race-free slots): by the
  // time finalize runs the round's exchange tasks have drained, so
  // buffering strategies get the pool for their whole-shard pass. Order
  // cannot matter — each finalize is a pure function of its own shard's
  // absorbed sequence. An empty shard's time stays 0.0.
  std::vector<ShardSummary> summaries(num_shards);
  const auto close = [&](std::size_t s) {
    const auto t0 = std::chrono::steady_clock::now();
    ShardSummary summary = accumulators_[s]->finalize();
    summary.stats.shard_id = static_cast<std::uint32_t>(s);
    summaries[s] = std::move(summary);
    if (!summaries[s].empty())
      shard_seconds_[s] +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };
  if (exec_ != nullptr)
    exec_->for_each_task(num_shards, close);
  else
    for (std::size_t s = 0; s < num_shards; ++s) close(s);

  HierarchicalResult out;
  const auto c0 = std::chrono::steady_clock::now();
  out.result = aggregator_.combine(summaries, global_);
  out.combine_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - c0).count();
  out.shards.reserve(num_shards);
  for (const ShardSummary& s : summaries) out.shards.push_back(s.stats);
  out.shard_seconds = std::move(shard_seconds_);
  return out;
}

}  // namespace dinar::fl
