// Byzantine-robust aggregation strategies behind a two-phase API.
//
// FedAvg trusts every well-formed update: a single sign-flipping or
// model-replacement client steers the global model arbitrarily. The
// aggregators here bound that influence — coordinate-wise median, trimmed
// mean, norm-clipped FedAvg, and Krum / Multi-Krum selection — and report,
// per client, whether the update was excluded, down-weighted or clipped and
// why, so RoundOutcome can attribute repair work to specific clients.
//
// Two-phase interface (hierarchical aggregation, DESIGN.md §12):
//
//   shard_aggregate(view of updates, global) -> ShardSummary
//       An edge aggregator runs the full robust strategy over one client
//       shard and emits a compact summary: one aggregate arena, the
//       per-client flags, and per-shard statistics (accepted / flagged
//       counts, scored-delta-norm distribution, sample weight). The shard's
//       members arrive as an UpdateView — pointers to updates the caller
//       holds, in absorb order — so no update is copied to form a shard.
//       Every strategy, FedAvg's fold included, runs its coordinate loops
//       over ranges across the execution context.
//   combine(span<summaries>, global) -> RobustAggregateResult
//       The root merges shard summaries with flat chunked loops: the
//       result is the shard-weight-proportional mean of the shard arenas,
//       summaries visited in ascending position order (fixed reduction
//       order, bit-identical for any thread count). Empty summaries (a
//       shard whose clients all churned away or were quarantined) are
//       skipped. With exactly one non-empty summary the arena is copied
//       verbatim, so the single-shard path is bit-identical to the flat
//       aggregation it replaced.
//
// The server drives both phases through ShardedAggregationSession
// (fl/shard.h), which holds the absorbed updates and runs shard_aggregate
// once per non-empty shard at finalize. aggregate() is the flat
// convenience over the two phases (one shard = the whole cohort).
//
// All strategies are *layer-aware*: `RobustConfig::excluded_tensors` names
// layer-index entry positions (normally the DINAR-obfuscated sensitive
// layer) that are excluded from every distance / norm / outlier
// computation. Honest DINAR clients legitimately upload random values
// there (Algorithm 1's model obfuscation), so a naive outlier filter would
// quarantine exactly the clients it is meant to protect. Excluded tensors
// are still averaged (plain weighted FedAvg) so the broadcast keeps its
// structure; their content is obfuscation noise that personalization
// discards anyway. The exclusions apply identically inside every shard.
//
// Robust aggregation needs to see individual updates, so it is incompatible
// with secure aggregation's pre-weighted masked sums; every strategy except
// plain FedAvg rejects pre_weighted updates (per shard, like the flat path).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fl/message.h"

namespace dinar {
class ExecutionContext;
}

namespace dinar::fl {

// Named registry of the aggregation strategies (mirrors the
// DINAR_GEMM_KERNEL pin pattern: construction sites name a kind, unknown
// names fail with an error listing every registered kind).
enum class AggregatorKind {
  kFedAvg,
  kMedian,
  kTrimmedMean,
  kNormClip,
  kKrum,
  kMultiKrum,
};
const char* to_string(AggregatorKind kind);
// Throws dinar::Error naming the unknown kind and listing the known ones.
AggregatorKind aggregator_kind_from_name(const std::string& name);

struct RobustConfig {
  // fedavg | median | trimmed_mean | norm_clip | krum | multi_krum
  std::string method = "fedavg";
  // Fraction of clients trimmed from *each* end per coordinate
  // (trimmed_mean); must lie in [0, 0.5).
  double trim_fraction = 0.2;
  // median / trimmed_mean outlier screen: a client whose distance to the
  // coordinate-wise median exceeds `outlier_threshold` x the median of all
  // client distances is excluded before the statistic is taken. Must be
  // >= 1 so the screen can never flag more than half the cohort.
  double outlier_threshold = 4.0;
  // norm_clip: per-update delta norms are clipped to
  // `clip_multiplier` x median(delta norms); must be > 0.
  double clip_multiplier = 2.0;
  // krum / multi_krum: the number f of Byzantine clients the scoring
  // assumes; clamped so every client keeps >= 1 scored neighbor. Under
  // sharding the clamp applies per shard (a shard of n members assumes at
  // most n - 3 Byzantine members). multi_krum averages the n - f
  // best-scored updates.
  std::size_t assumed_byzantine = 0;
  // Layer-index entry positions excluded from all scoring (see header
  // comment). The simulation always appends the defense bundle's
  // obfuscated layers here.
  std::vector<std::size_t> excluded_tensors;
};

// One client's treatment by the aggregator, beyond plain acceptance.
struct AggregatorFlag {
  int client_id = 0;
  std::string reason;     // e.g. "median-outlier: ...", "krum-rank: ..."
  bool excluded = false;  // true: the update did not enter the aggregate
};

// Deterministic per-shard statistics: what one edge aggregator saw and
// decided. Everything here is a pure function of the shard's updates, so
// the stats are safe to persist in durable RoundOutcome records and to
// compare across thread counts (no wall-clock, no pointers).
struct ShardStats {
  std::uint32_t shard_id = 0;
  std::uint64_t num_updates = 0;   // updates that entered the shard phase
  std::uint64_t num_accepted = 0;  // updates that entered the aggregate
  std::uint64_t num_flagged = 0;   // flags raised (excluded or clipped)
  // Sample weight of the accepted members (the root's merge weight).
  double weight = 0.0;
  // Distribution of the members' scored-delta L2 norms vs the pre-round
  // global model (obfuscated tensors excluded). All zero for pre-weighted
  // (secure-aggregation) shards, whose parameters are not comparable to
  // the global model before unweighting.
  double min_norm = 0.0;
  double median_norm = 0.0;
  double max_norm = 0.0;
};

// An edge aggregator's compact output: one aggregate arena — regardless of
// how many clients the shard held — plus flags and stats. The arena's
// precise meaning is strategy-defined (shard robust mean, shard Krum
// selection average, ...); combine() of the same strategy interprets it.
// A default-constructed summary is the empty shard (no clients this
// round); combine() skips it.
struct ShardSummary {
  ShardStats stats;
  nn::FlatParams params;
  std::vector<AggregatorFlag> flags;

  bool empty() const { return stats.num_updates == 0; }
};

struct RobustAggregateResult {
  nn::FlatParams params;
  std::vector<AggregatorFlag> flags;
};

// One shard's members: non-null pointers to updates the caller keeps alive
// for the call, in absorb order. The order is part of the result (float
// sums and tie-breaks follow it).
using UpdateView = std::span<const ModelUpdateMsg* const>;

class RobustAggregator {
 public:
  virtual ~RobustAggregator() = default;
  virtual std::string name() const = 0;

  // Phase 1 — edge: aggregates one shard's validated updates (non-empty,
  // structurally consistent with `global`). `global` is the pre-round
  // model — several strategies work on deltas theta_i - global rather than
  // raw parameters. All loops stream contiguous arena spans, chunked over
  // coordinate (or member) ranges across the execution context. The caller
  // owns stats.shard_id (left 0 here).
  virtual ShardSummary shard_aggregate(UpdateView updates,
                                       const nn::FlatParams& global) = 0;

  // Phase 2 — root: merges shard summaries into the round's aggregate with
  // flat chunked loops (see the header comment for the exact semantics and
  // the single-shard bit-identity contract). Throws when every summary is
  // empty: the caller must carry the previous model forward instead.
  virtual RobustAggregateResult combine(std::span<const ShardSummary> summaries,
                                        const nn::FlatParams& global);

  // Flat convenience: the whole cohort as one shard (shard_aggregate then
  // combine's single-summary copy).
  RobustAggregateResult aggregate(std::span<const ModelUpdateMsg> updates,
                                  const nn::FlatParams& global);

  // Shared execution context for the per-coordinate / pairwise-distance
  // loops; nullptr (the default) runs them sequentially. Results are
  // bit-identical for any thread count — every coordinate is computed
  // wholly within one chunk, in the sequential order.
  void set_execution_context(const ExecutionContext* exec) { exec_ = exec; }

 protected:
  const ExecutionContext* exec_ = nullptr;
};

// Registry factory; throws dinar::Error on an out-of-range parameter.
// `config.method` is ignored by the kind overload (the kind wins).
std::unique_ptr<RobustAggregator> make_robust_aggregator(AggregatorKind kind,
                                                         RobustConfig config = {});
// Name-keyed convenience over the registry: resolves config.method via
// aggregator_kind_from_name (named error on unknown methods).
std::unique_ptr<RobustAggregator> make_robust_aggregator(const RobustConfig& config);
std::vector<std::string> robust_aggregator_names();

}  // namespace dinar::fl
