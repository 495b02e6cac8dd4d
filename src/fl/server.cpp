#include "fl/server.h"

#include <cmath>
#include <sstream>

#include "util/error.h"

namespace dinar::fl {
const char* to_string(RejectReason reason) {
  switch (reason) {
    case RejectReason::kWrongRound: return "wrong-round";
    case RejectReason::kStructureMismatch: return "structure-mismatch";
    case RejectReason::kNonFinite: return "non-finite";
    case RejectReason::kNoSamples: return "no-samples";
    case RejectReason::kMixedWeighting: return "mixed-weighting";
    case RejectReason::kDuplicateClient: return "duplicate-client";
  }
  return "unknown";
}

FlServer::FlServer(nn::FlatParams initial_params, std::unique_ptr<ServerDefense> defense)
    : global_(std::move(initial_params)), defense_(std::move(defense)),
      aggregator_(make_robust_aggregator(RobustConfig{})) {
  DINAR_CHECK(!global_.empty(), "server needs a non-empty initial model");
  DINAR_CHECK(defense_ != nullptr, "server defense must not be null");
}

void FlServer::set_aggregator(std::unique_ptr<RobustAggregator> aggregator) {
  DINAR_CHECK(aggregator != nullptr, "aggregator must not be null");
  aggregator_ = std::move(aggregator);
  aggregator_->set_execution_context(exec_);
}

void FlServer::set_execution_context(const ExecutionContext* exec) {
  exec_ = exec;
  if (aggregator_ != nullptr) aggregator_->set_execution_context(exec_);
}

void FlServer::set_shards(const ShardConfig& config) {
  DINAR_CHECK(config.num_shards >= 1, "shard.num_shards must be >= 1, got "
                                          << config.num_shards);
  shard_config_ = config;
}

void FlServer::set_wire_codec(const UpdateCodecConfig& codec) {
  validate_codec_config(codec);
  codec_ = codec;
}

GlobalModelMsg FlServer::broadcast() const {
  GlobalModelMsg msg;
  msg.round = round_;
  msg.params = global_;
  return msg;
}

void FlServer::aggregate(std::span<const ModelUpdateMsg> updates) {
  // Every check runs before the session opens, so a throw leaves no
  // session open and the round unadvanced.
  DINAR_CHECK(!updates.empty(), "aggregate called with no updates");
  const bool pre_weighted = updates.front().pre_weighted;
  for (const ModelUpdateMsg& u : updates) {
    DINAR_CHECK(u.pre_weighted == pre_weighted,
                "round mixes pre-weighted and raw updates");
    DINAR_CHECK(u.num_samples > 0, "update from client " << u.client_id
                                                         << " has no samples");
    DINAR_CHECK(u.params.same_layout(global_),
                "update from client " << u.client_id << " has wrong structure");
  }
  // The session borrows the caller's updates: no copy for the batch.
  begin_aggregation();
  for (const ModelUpdateMsg& u : updates) session_->absorb(u);
  finalize_aggregation();
}

UpdateVerdict FlServer::validate_update(const ModelUpdateMsg& update,
                                        const std::unordered_set<int>& accepted_ids,
                                        std::optional<bool> weighting) const {
  const auto reject = [&](RejectReason reason, const std::string& detail) {
    UpdateVerdict v;
    v.accepted = false;
    v.reason = reason;
    v.detail = std::string(to_string(reason)) + ": " + detail;
    return v;
  };

  if (update.round != round_) {
    std::ostringstream os;
    os << "client " << update.client_id << " sent round " << update.round
       << ", server is at round " << round_;
    return reject(RejectReason::kWrongRound, os.str());
  }
  if (accepted_ids.count(update.client_id) != 0) {
    std::ostringstream os;
    os << "client " << update.client_id << " already accepted this round";
    return reject(RejectReason::kDuplicateClient, os.str());
  }
  if (!update.params.same_layout(global_)) {
    std::ostringstream os;
    os << "client " << update.client_id << " sent "
       << (update.params.index() ? update.params.index()->num_entries() : 0)
       << " entries, global model has " << global_.index()->num_entries()
       << " (or a shape differs)";
    return reject(RejectReason::kStructureMismatch, os.str());
  }
  if (const std::size_t bad = nn::flat_first_non_finite_entry(update.params);
      bad < update.params.index()->num_entries()) {
    std::ostringstream os;
    os << "client " << update.client_id << " param tensor " << bad
       << " contains NaN/Inf";
    return reject(RejectReason::kNonFinite, os.str());
  }
  if (update.num_samples <= 0) {
    std::ostringstream os;
    os << "client " << update.client_id << " reports " << update.num_samples
       << " samples";
    return reject(RejectReason::kNoSamples, os.str());
  }
  if (weighting.has_value() && update.pre_weighted != *weighting) {
    std::ostringstream os;
    os << "client " << update.client_id << " sent a "
       << (update.pre_weighted ? "pre-weighted" : "raw")
       << " update into a " << (*weighting ? "pre-weighted" : "raw") << " round";
    return reject(RejectReason::kMixedWeighting, os.str());
  }
  return UpdateVerdict{};
}

void FlServer::begin_aggregation() {
  DINAR_CHECK(session_ == nullptr,
              "begin_aggregation with a streaming session already open");
  session_ = std::make_unique<ShardedAggregationSession>(*aggregator_, global_,
                                                         shard_config_);
}

void FlServer::absorb_validated(ModelUpdateMsg&& update) {
  DINAR_CHECK(session_ != nullptr, "absorb_validated with no open session");
  ScopedTimer timing(agg_timer_);
  session_->absorb(std::move(update));
}

void FlServer::absorb_validated(const ModelUpdateMsg& update) {
  absorb_validated(ModelUpdateMsg(update));
}

std::vector<AggregatorFlag> FlServer::finalize_aggregation(
    std::vector<ModelUpdateMsg>* updates) {
  DINAR_CHECK(session_ != nullptr, "finalize_aggregation with no open session");
  DINAR_CHECK(session_->absorbed() > 0,
              "finalize_aggregation with no absorbed updates; use "
              "carry_forward for an empty round");
  ScopedTimer timing(agg_timer_);
  // Close the session before mutating server state: a combine() throw
  // (every shard empty) must leave the round un-advanced for carry-forward.
  const std::unique_ptr<ShardedAggregationSession> session = std::move(session_);
  HierarchicalResult h = session->finalize();
  if (updates != nullptr) *updates = session->release_updates();
  defense_->after_aggregate(h.result.params);
  global_ = std::move(h.result.params);
  last_shard_stats_ = std::move(h.shards);
  last_timings_ = AggregateTimings{};
  for (double s : h.shard_seconds) last_timings_.shard_seconds += s;
  last_timings_.combine_seconds = h.combine_seconds;
  ++round_;
  return std::move(h.result.flags);
}

void FlServer::restore(std::int64_t round, nn::FlatParams params) {
  DINAR_CHECK(round >= 0, "checkpoint carries negative round " << round);
  DINAR_CHECK(params.same_layout(global_),
              "checkpoint parameters do not match the server's model structure");
  session_.reset();
  global_ = std::move(params);
  round_ = round;
}

}  // namespace dinar::fl
