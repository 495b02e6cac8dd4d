// Sharded hierarchical aggregation (DESIGN.md §12).
//
// One flat roster cannot reach millions of clients: a single aggregator
// would hold every update at once and run one giant robust-statistics
// pass. The aggregation tree splits the cohort into shards by a pure hash
// of the client id, runs the full robust strategy per shard on an "edge"
// aggregator (RobustAggregator::shard_aggregate), and merges the compact
// ShardSummarys at the root (RobustAggregator::combine). Each edge pass
// splits its coordinate (or member) loops across the whole pool, the
// calling thread included, and the root merge visits summaries in
// ascending shard-id order, keeping the whole tree bit-identical for any
// thread count.
//
// Shard assignment is a pure function of (assignment_seed, client_id):
// stable across rounds, churn (a client that leaves and rejoins lands in
// the same shard), process restarts and durable-store recovery. A shard
// may be empty in any given round — all its clients churned away or were
// quarantined — and the root combiner skips the empty summaries.
//
// The tree is driven by ShardedAggregationSession below, the only
// aggregation path. num_shards == 1 runs the whole cohort as one shard
// through combine()'s copy fast path: bit-identical to flat
// RobustAggregator::aggregate().
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "fl/robust_aggregator.h"

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
  // Wall-clock seconds of each shard's edge pass (its shard_aggregate at
  // finalize), indexed by shard id (0.0 for empty shards). Timing only —
  // NEVER persisted or compared; everything bit-reproducible lives in
  // `shards`.
  std::vector<double> shard_seconds;
  // Wall-clock seconds of the root combine. Timing only, like above.
  double combine_seconds = 0.0;
};

// The aggregation tree, fed one update at a time. absorb() records a
// reference to each validated update in its shard's member list (shard_of)
// and does no arithmetic, so the commit path that calls it stays cheap.
// finalize() runs each non-empty shard's strategy in turn, each one split
// over coordinate ranges across the aggregator's execution context (the
// calling thread included), then the root combine in ascending shard-id
// order. A shard's members keep absorb order, so the result is a pure
// function of the absorb sequence and the shard configuration, for any
// thread count.
//
// The session owns what it is given by move and borrows what it is given
// by reference: the round engine (DESIGN.md §13) moves each accepted update
// in as its exchange commits and takes the updates back with
// release_updates() after finalize; FlServer::aggregate lends the caller's
// span. Either way no update is copied. absorb() must be called from one
// thread. `aggregator` and `global` must outlive the session, and `global`
// and every borrowed update must not change before finalize() returns.
// finalize() throws (via combine) when every shard stayed empty, including
// after zero absorbs: the caller carries the previous model forward.
class ShardedAggregationSession {
 public:
  ShardedAggregationSession(RobustAggregator& aggregator,
                            const nn::FlatParams& global, const ShardConfig& config);

  // Borrows `update`: it must outlive finalize().
  void absorb(const ModelUpdateMsg& update);
  // Takes `update` over; release_updates() hands it back.
  void absorb(ModelUpdateMsg&& update);
  HierarchicalResult finalize();
  // The updates absorbed by move, in absorb order; the session keeps none.
  std::vector<ModelUpdateMsg> release_updates();
  std::size_t absorbed() const { return absorbed_; }

 private:
  RobustAggregator& aggregator_;
  const nn::FlatParams& global_;
  ShardConfig config_;
  // Moved-in updates; a deque, so the member pointers stay valid as it grows.
  std::deque<ModelUpdateMsg> owned_;
  std::vector<std::vector<const ModelUpdateMsg*>> members_;  // per shard
  std::size_t absorbed_ = 0;
};

}  // namespace dinar::fl
