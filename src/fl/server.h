// FL server: FedAvg aggregation with a pluggable server-side defense.
//
// One aggregation path, the session — begin_aggregation() /
// absorb_validated() / finalize_aggregation() — over the hierarchical
// aggregation tree (set_shards, DESIGN.md §12): the cohort is partitioned
// into client shards, the session holds each shard's updates without
// copying them, finalize runs every shard's strategy across the execution
// context, and a root combiner merges the shard summaries. The default
// single-shard tree is bit-identical to flat aggregation. Two ways in:
//  - the hardened path behind the fault-tolerant round protocol (DESIGN.md
//    §13): validate_update() checks every incoming update (round match,
//    structure match against the global model, NaN/Inf scan, positive
//    sample count, consistent weighting convention, duplicate-client
//    rejection) so invalid ones are quarantined with a reason instead of
//    throwing; each accepted update moves into the session the moment its
//    exchange commits, and a round with no quorum carries the previous
//    global model forward (carry_forward()) as a degraded-but-live round;
//  - aggregate(): the strict batch entry for trusted in-process
//    experiments and benches — any malformed update throws before the
//    session opens, then the session borrows the batch in span order. It
//    gives the same model as the hardened path over the same updates.
//
// Aggregation itself is pluggable (set_aggregator): the default is the
// seed's plain FedAvg; Byzantine-robust strategies (coordinate-wise
// median, trimmed mean, norm-clipped FedAvg, Krum / Multi-Krum) bound the
// influence of adversarial but well-formed updates and report per-client
// flags that the round protocol surfaces in RoundOutcome.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <vector>

#include "fl/defense.h"
#include "fl/message.h"
#include "fl/robust_aggregator.h"
#include "fl/shard.h"
#include "util/timer.h"

namespace dinar::fl {

// Why the hardened path refused an update.
enum class RejectReason {
  kWrongRound,
  kStructureMismatch,
  kNonFinite,
  kNoSamples,
  kMixedWeighting,
  kDuplicateClient,
};
const char* to_string(RejectReason reason);

struct UpdateVerdict {
  bool accepted = true;
  RejectReason reason = RejectReason::kWrongRound;
  std::string detail;  // human-readable, names the offending field/tensor
};

class FlServer {
 public:
  FlServer(nn::FlatParams initial_params, std::unique_ptr<ServerDefense> defense);

  const nn::FlatParams& global_params() const { return global_; }
  std::int64_t round() const { return round_; }

  // Builds this round's broadcast message.
  GlobalModelMsg broadcast() const;

  // -- wire codec (DESIGN.md §14) ------------------------------------------
  // Installs the negotiated codec pair (throws on an unusable config).
  // Set once, before the first round. serialize_broadcast() reads only the
  // immutable codec and its argument, so round engines may call it from a
  // worker task on a coordinator-made message copy.
  void set_wire_codec(const UpdateCodecConfig& codec);
  const UpdateCodecConfig& wire_codec() const { return codec_; }
  std::vector<std::uint8_t> serialize_broadcast(const GlobalModelMsg& msg) const {
    return msg.serialize(codec_.broadcast);
  }

  // FedAvg over this round's updates:
  //   global = sum_i w_i * theta_i / sum_i w_i
  // where w_i is the client's sample count, and theta_i arrives either raw
  // or pre-weighted (secure aggregation). A round must not mix the two
  // conventions. Throws, with no session left open and the round not
  // advanced, on an empty span, mixed conventions, a sample count <= 0 or
  // a layout that differs from the global model. Otherwise runs the
  // session over the span, then the server defense, and advances the
  // round. Throws if a session is already open.
  void aggregate(std::span<const ModelUpdateMsg> updates);

  // -- hardened path -------------------------------------------------------
  // Checks one update against the current round and global model.
  // `accepted_ids` are clients already accepted this round (duplicate
  // rejection); `weighting` is the convention locked in by the first
  // accepted update (nullopt until then).
  UpdateVerdict validate_update(const ModelUpdateMsg& update,
                                const std::unordered_set<int>& accepted_ids,
                                std::optional<bool> weighting) const;

  // -- aggregation session (DESIGN.md §12, §13) -----------------------------
  // Opens an aggregation session over the current global model and shard
  // configuration. At most one session may be open, and the global model /
  // shards / aggregator / execution context must not change while it is.
  // validate_update() still checks against the current round, which only
  // advances at finalize.
  void begin_aggregation();

  // Hands one update the caller has already validated (validate_update
  // must have accepted it this round) to its shard. The rvalue form moves
  // it in; the lvalue form copies it once. No arithmetic runs here, so the
  // commit path stays cheap. Single-threaded, ascending-commit-order calls
  // only.
  void absorb_validated(ModelUpdateMsg&& update);
  void absorb_validated(const ModelUpdateMsg& update);

  // Runs every shard's strategy across the execution context, the root
  // combine and the defense, and advances the round. Throws (leaving the
  // session closed and the round NOT advanced) when every shard stayed
  // empty; requires at least one absorb. Returns the aggregator's
  // per-client flags; when `updates` is non-null it receives the absorbed
  // updates, in absorb order.
  std::vector<AggregatorFlag> finalize_aggregation(
      std::vector<ModelUpdateMsg>* updates = nullptr);

  // Installs a Byzantine-robust aggregation strategy; the default is the
  // seed's plain FedAvg. Takes effect from the next aggregation. The
  // server's execution context (if set) is applied to the new aggregator.
  void set_aggregator(std::unique_ptr<RobustAggregator> aggregator);
  const RobustAggregator& aggregator() const { return *aggregator_; }

  // Shares the execution context with the aggregator so its coordinate
  // loops parallelize; must outlive the server. nullptr = sequential.
  void set_execution_context(const ExecutionContext* exec);

  // Shapes the aggregation tree (default: one shard = flat aggregation).
  // Takes effect from the next aggregation; the roster-size interaction is
  // validated by the simulation config (a server only sees cohorts).
  void set_shards(const ShardConfig& config);
  const ShardConfig& shards() const { return shard_config_; }

  // Per-shard statistics of the most recent aggregation (shard-id order,
  // empty shards included); empty before the first aggregation.
  const std::vector<ShardStats>& last_shard_stats() const {
    return last_shard_stats_;
  }

  // Wall-clock breakdown of the most recent aggregation. Timing only — never persisted or compared; feeds the
  // per-phase columns in RoundOutcome::timings.
  struct AggregateTimings {
    double shard_seconds = 0.0;    // sum over shards: edge passes
    double combine_seconds = 0.0;  // root merge
  };
  const AggregateTimings& last_aggregate_timings() const { return last_timings_; }

  // Degraded round: the previous global model survives unchanged and the
  // round counter advances, keeping the federation live. Abandons any open
  // streaming session (its absorbed updates are discarded).
  void carry_forward() {
    session_.reset();
    ++round_;
  }

  // Resume: installs a saved global model and round counter.
  void restore(std::int64_t round, nn::FlatParams params);

  // Wall-clock spent absorbing and finalizing (Table 3's server-side
  // metric).
  const CumulativeTimer& aggregation_timer() const { return agg_timer_; }
  ServerDefense& defense() { return *defense_; }

 private:
  nn::FlatParams global_;
  UpdateCodecConfig codec_;
  std::unique_ptr<ServerDefense> defense_;
  std::unique_ptr<RobustAggregator> aggregator_;
  const ExecutionContext* exec_ = nullptr;
  ShardConfig shard_config_;
  std::vector<ShardStats> last_shard_stats_;
  AggregateTimings last_timings_;
  std::unique_ptr<ShardedAggregationSession> session_;
  std::int64_t round_ = 0;
  CumulativeTimer agg_timer_;
};

}  // namespace dinar::fl
