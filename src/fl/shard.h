// Sharded hierarchical aggregation (DESIGN.md §12).
//
// One flat roster cannot reach millions of clients: a single aggregator
// would hold every update at once and run one giant robust-statistics
// pass. The aggregation tree splits the cohort into shards by a pure hash
// of the client id, runs the full robust strategy per shard on an "edge"
// aggregator (RobustAggregator::shard_aggregate), and merges the compact
// ShardSummarys at the root (RobustAggregator::combine). Edge passes are
// independent, so they run in parallel — one pool task per shard — while
// the root merge visits summaries in ascending shard-id order, keeping the
// whole tree bit-identical for any thread count.
//
// Shard assignment is a pure function of (assignment_seed, client_id):
// stable across rounds, churn (a client that leaves and rejoins lands in
// the same shard), process restarts and durable-store recovery. A shard
// may be empty in any given round — all its clients churned away or were
// quarantined — and the root combiner skips the empty summaries.
//
// The tree is driven by ShardedAggregationSession below, the only
// aggregation path. num_shards == 1 routes the whole cohort through one
// accumulator and combine()'s copy fast path: bit-identical to flat
// RobustAggregator::aggregate().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fl/robust_aggregator.h"

namespace dinar {
class ExecutionContext;
}

namespace dinar::fl {

struct ShardConfig {
  // Edge aggregators in the tree; 1 = flat aggregation (the default).
  std::size_t num_shards = 1;
  // Seeds the client-id hash so distinct deployments get distinct
  // partitions; the partition is stable for a fixed seed.
  std::uint64_t assignment_seed = 0;
};

// The shard owning `client_id`: splitmix64(assignment_seed ^ id) mod
// num_shards. splitmix64's avalanche keeps shards balanced even for
// consecutive ids.
std::uint32_t shard_of(int client_id, const ShardConfig& config);

struct HierarchicalResult {
  RobustAggregateResult result;
  // Per-shard statistics in shard-id order, one entry per shard including
  // empty ones (deterministic; persisted in RoundOutcome).
  std::vector<ShardStats> shards;
  // Wall-clock seconds of each shard's cumulative absorb + finalize,
  // indexed by shard id (0.0 for empty shards). Timing only — NEVER
  // persisted or compared; everything bit-reproducible lives in `shards`.
  std::vector<double> shard_seconds;
  // Wall-clock seconds of the root combine. Timing only, like above.
  double combine_seconds = 0.0;
};

// The aggregation tree, fed one update at a time: the session opens one
// ShardAccumulator per shard up front, absorb() routes each validated
// update to its shard (shard_of) as it arrives, and finalize() closes the
// accumulators — one pool task per shard via exec->for_each_task, whose
// inner aggregator loops run sequentially on the workers (a single shard
// runs inline and keeps the pool) — and runs the root combine in
// ascending shard-id order. A shard's members reach its accumulator in
// absorb order, so the result is a pure function of the absorb sequence
// and the shard configuration, for any thread count.
//
// The round engine (DESIGN.md §13) absorbs each update the moment its
// exchange commits; FlServer::aggregate absorbs a batch in span order.
// absorb() must be called from one thread and runs inline — see
// ShardAccumulator. `aggregator` and `global` must outlive the session;
// `global` must not change before finalize() returns. finalize() throws
// (via combine) when every shard stayed empty, including after zero
// absorbs: the caller carries the previous model forward.
class ShardedAggregationSession {
 public:
  ShardedAggregationSession(RobustAggregator& aggregator,
                            const nn::FlatParams& global, const ShardConfig& config,
                            const ExecutionContext* exec);

  void absorb(const ModelUpdateMsg& update);
  HierarchicalResult finalize();
  std::size_t absorbed() const { return absorbed_; }

 private:
  RobustAggregator& aggregator_;
  const nn::FlatParams& global_;
  ShardConfig config_;
  const ExecutionContext* exec_;
  std::vector<std::unique_ptr<ShardAccumulator>> accumulators_;
  std::vector<double> shard_seconds_;
  std::size_t absorbed_ = 0;
};

}  // namespace dinar::fl
