#include "fl/simulation.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <map>
#include <numeric>
#include <optional>
#include <thread>
#include <unordered_set>
#include <utility>

#include "fl/durable.h"
#include "fl/socket_transport.h"
#include "store/round_store.h"
#include "util/crashpoint.h"
#include "util/error.h"
#include "util/logging.h"

namespace dinar::fl {
namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

}  // namespace

bool ChurnConfig::present(int client_id, std::int64_t round) const {
  if (const auto it = join_at_round.find(client_id);
      it != join_at_round.end() && round < it->second)
    return false;
  if (const auto it = away.find(client_id); it != away.end())
    for (const auto& [leave, rejoin] : it->second)
      if (round >= leave && (rejoin < 0 || round < rejoin)) return false;
  return true;
}

FederatedSimulation::FederatedSimulation(nn::ModelFactory model_factory,
                                         data::FlSplit split, SimulationConfig config,
                                         DefenseBundle defenses)
    : model_factory_(std::move(model_factory)), split_(std::move(split)),
      config_(config), exec_(std::make_unique<ExecutionContext>(config.exec)),
      rng_(config.seed) {
  validate_config();
  transport_ = config_.socket_transport
                   ? std::make_unique<SocketTransport>()
                   : std::make_unique<Transport>();
  if (config_.faults.any()) transport_->enable_faults(config_.faults);
  if (config_.adversaries.any())
    adversary_ = std::make_unique<AdversaryEngine>(config_.adversaries);

  // All participants start from the same initial model (standard FL).
  Rng init_rng = rng_.fork(0xC0FFEE);
  nn::Model initial = model_factory_(init_rng);
  server_ = std::make_unique<FlServer>(initial.parameters(), defenses.make_server());

  // Layer-aware Byzantine robustness: the tensors of the defense's
  // obfuscated layers are excluded from outlier / distance scoring, so an
  // honest DINAR client's randomized sensitive layer can never get it
  // quarantined as an attacker.
  RobustConfig robust = config_.robust;
  for (const std::size_t p : defenses.obfuscated_layers) {
    const auto [begin, end] = initial.layer_param_span(p);
    for (std::size_t t = begin; t < end; ++t) robust.excluded_tensors.push_back(t);
  }
  server_->set_aggregator(make_robust_aggregator(robust));
  server_->set_shards(config_.shard);
  server_->set_wire_codec(config_.codec);

  clients_.reserve(split_.client_train.size());
  for (std::size_t i = 0; i < split_.client_train.size(); ++i) {
    const int id = static_cast<int>(i);
    clients_.emplace_back(id, split_.client_train[i], nn::Model(initial),
                          opt::make_optimizer(config_.optimizer, config_.learning_rate),
                          defenses.make_client(id), config_.train,
                          rng_.fork(1000 + i));
  }

  validate_defense_config();

  // One shared context for everything compute-bound: client kernels and the
  // server's aggregator loops all draw from the same pool.
  server_->set_execution_context(exec_.get());
  for (FlClient& c : clients_) {
    c.set_execution_context(exec_.get());
    c.set_wire_codec(config_.codec.update);
  }
}

void FederatedSimulation::join_prefetch() {
  if (prefetch_ != nullptr && prefetch_->done.valid()) prefetch_->done.get();
}

void FederatedSimulation::invalidate_prefetch() {
  // No join needed: the pool task owns a shared_ptr to the block, so
  // dropping our reference with the task in flight is safe — it finishes
  // against the still-live block and the last reference frees it.
  prefetch_.reset();
}

void FederatedSimulation::validate_config() const {
  const std::size_t num_clients = split_.client_train.size();
  DINAR_CHECK(num_clients > 0, "split has no clients");
  DINAR_CHECK(config_.rounds > 0,
              "SimulationConfig.rounds = " << config_.rounds << " — need at least one");
  DINAR_CHECK(config_.client_fraction > 0.0 && config_.client_fraction <= 1.0,
              "SimulationConfig.client_fraction = " << config_.client_fraction
                                                    << " outside (0, 1]");
  DINAR_CHECK(config_.min_clients <= num_clients,
              "SimulationConfig.min_clients = " << config_.min_clients
                                                << " exceeds the roster of "
                                                << num_clients << " clients");
  DINAR_CHECK(config_.max_retries >= 0,
              "SimulationConfig.max_retries = " << config_.max_retries
                                                << " is negative");
  DINAR_CHECK(config_.retry_backoff_seconds >= 0.0,
              "SimulationConfig.retry_backoff_seconds = "
                  << config_.retry_backoff_seconds << " is negative");
  DINAR_CHECK(config_.round_deadline_seconds >= 0.0,
              "SimulationConfig.round_deadline_seconds = "
                  << config_.round_deadline_seconds << " is negative");
  DINAR_CHECK(config_.eval_every >= 0,
              "SimulationConfig.eval_every = " << config_.eval_every
                                               << " is negative");
  // A federation that cannot train fails here, not silently (zero epochs
  // upload the broadcast unchanged) or at the first round's batches.
  DINAR_CHECK(config_.train.epochs > 0,
              "SimulationConfig.train.epochs = "
                  << config_.train.epochs
                  << " — need at least one, or every upload is the broadcast unchanged");
  DINAR_CHECK(config_.train.batch_size > 0,
              "SimulationConfig.train.batch_size = " << config_.train.batch_size
                                                     << " — need at least one sample");
  DINAR_CHECK(std::isfinite(config_.learning_rate) && config_.learning_rate > 0.0,
              "SimulationConfig.learning_rate = " << config_.learning_rate
                                                  << " must be finite and positive");

  const auto check_id = [&](int id, const char* what) {
    DINAR_CHECK(id >= 0 && static_cast<std::size_t>(id) < num_clients,
                "SimulationConfig." << what << " names client " << id
                                    << ", but the roster has " << num_clients
                                    << " clients");
  };
  for (const auto& [id, round] : config_.churn.join_at_round) {
    check_id(id, "churn.join_at_round");
    DINAR_CHECK(round >= 0, "churn.join_at_round for client "
                                << id << " is negative (" << round << ")");
  }
  for (const auto& [id, intervals] : config_.churn.away) {
    check_id(id, "churn.away");
    std::int64_t prev_end = -1;
    for (const auto& [leave, rejoin] : intervals) {
      DINAR_CHECK(leave >= 0, "churn.away for client " << id << " leaves at negative "
                                                       << "round " << leave);
      DINAR_CHECK(rejoin == -1 || rejoin > leave,
                  "churn.away for client " << id << " has interval [" << leave << ", "
                                           << rejoin << ") — rejoin must follow leave "
                                           << "(or be -1 for a permanent departure)");
      DINAR_CHECK(prev_end >= 0 ? leave >= prev_end : true,
                  "churn.away intervals for client " << id
                                                     << " overlap or are unsorted");
      DINAR_CHECK(prev_end != -2, "churn.away for client "
                                      << id
                                      << " has intervals after a permanent departure");
      prev_end = rejoin == -1 ? -2 : rejoin;
    }
    // A founding member must not be scheduled away before it joins.
    const auto jit = config_.churn.join_at_round.find(id);
    const std::int64_t join = jit == config_.churn.join_at_round.end() ? 0 : jit->second;
    DINAR_CHECK(intervals.empty() || intervals.front().first >= join,
                "churn.away for client " << id << " starts before its join round "
                                         << join);
  }
  for (const auto& entry : config_.adversaries.attackers)
    check_id(entry.first, "adversaries.attackers");

  // Hierarchical aggregation: the tree shape must fit the founding roster.
  // Churn can still empty a shard mid-run (clients away or quarantined);
  // the root combiner tolerates that by skipping empty shard summaries,
  // but a tree with more shards than clients ever existed is a config bug.
  DINAR_CHECK(config_.shard.num_shards >= 1,
              "SimulationConfig.shard.num_shards = " << config_.shard.num_shards
                                                     << " — need at least one shard");
  DINAR_CHECK(config_.shard.num_shards <= num_clients,
              "SimulationConfig.shard.num_shards = "
                  << config_.shard.num_shards << " exceeds the roster of "
                  << num_clients << " clients");
  // Resolve the aggregator name through the registry so an unknown
  // robust.method fails here with the named-kind error.
  aggregator_kind_from_name(config_.robust.method);
  // Unknown encodings, out-of-range top-k fractions and sparse broadcast
  // codecs fail here with a named error.
  validate_codec_config(config_.codec);
}

void FederatedSimulation::validate_defense_config() const {
  const auto pre_weighting =
      std::find_if(clients_.begin(), clients_.end(), [](const FlClient& c) {
        return c.defense().uploads_pre_weighted();
      });
  if (pre_weighting == clients_.end()) return;
  // Pairwise masks cancel only in the exact, unweighted sum of every
  // upload; each setting rejected below breaks that sum.
  const std::string defense = pre_weighting->defense().name();
  const KindCodec& update = config_.codec.update;
  DINAR_CHECK(update.lossless(),
              "defense '" << defense << "' uploads pre-weighted masked sums, which "
                          << "a lossy update codec breaks ("
                          << wire_encoding_name(update.encoding) << ", top-k "
                          << update.topk_fraction << "); use dense f32 uploads");
  DINAR_CHECK(aggregator_kind_from_name(config_.robust.method) == AggregatorKind::kFedAvg,
              "defense '" << defense << "' uploads pre-weighted masked sums, which "
                          << "robust.method '" << config_.robust.method
                          << "' cannot aggregate; use fedavg");
  DINAR_CHECK(config_.shard.num_shards == 1,
              "defense '" << defense << "' uploads pre-weighted masked sums, which "
                          << "shard.num_shards = " << config_.shard.num_shards
                          << " splits across shards; use one shard");
  // Every upload must be in the sum, which partial participation breaks.
  DINAR_CHECK(config_.client_fraction >= 1.0,
              "defense '" << defense << "' uploads pre-weighted masked sums, which "
                          << "client_fraction = " << config_.client_fraction
                          << " leaves incomplete; select every client");
  const FaultConfig& faults = config_.faults;
  for (const auto& [setting, p] :
       {std::pair{"faults.drop_up", faults.drop_up},
        std::pair{"faults.drop_down", faults.drop_down},
        std::pair{"faults.corrupt_up", faults.corrupt_up},
        std::pair{"faults.corrupt_down", faults.corrupt_down}})
    DINAR_CHECK(p <= 0.0, "defense '" << defense
                                      << "' uploads pre-weighted masked sums, which "
                                      << setting << " = " << p
                                      << " can leave incomplete; use 0");
  DINAR_CHECK(faults.crash_at_round.empty(),
              "defense '" << defense << "' uploads pre-weighted masked sums, which "
                          << "faults.crash_at_round leaves incomplete; schedule no crashes");
  DINAR_CHECK(!config_.churn.any(),
              "defense '" << defense << "' uploads pre-weighted masked sums, which "
                          << "churn leaves incomplete; configure no churn");
}

void FederatedSimulation::run() {
  while (server_->round() < config_.rounds) {
    run_round();
    const std::int64_t r = server_->round();
    const bool last = r >= config_.rounds;
    if (last || (config_.eval_every > 0 && r % config_.eval_every == 0)) {
      history_.push_back(evaluate_now());
      const RoundRecord& rec = history_.back();
      if (store_ != nullptr) append_eval_to_store(rec);
      DINAR_INFO << "round " << rec.round << ": global acc "
                 << rec.global_test_accuracy << ", personalized acc "
                 << rec.personalized_test_accuracy;
    }
  }
}

std::vector<std::size_t> FederatedSimulation::roster_at(std::int64_t round) const {
  std::vector<std::size_t> roster;
  roster.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i)
    if (!config_.churn.any() || config_.churn.present(static_cast<int>(i), round))
      roster.push_back(i);
  return roster;
}

std::vector<std::size_t> FederatedSimulation::select_participants(std::int64_t round) {
  // Client selection (paper §2.1): the server picks a fraction of the
  // *current* roster for this round. The stream is forked from
  // (seed, round) rather than drawn sequentially, and the roster is a pure
  // function of (churn config, round), so a resumed run
  // re-selects the identical participant sets even as clients join and
  // leave.
  std::vector<std::size_t> roster = roster_at(round);
  if (config_.client_fraction >= 1.0 || roster.size() <= 1) return roster;

  Rng select_rng = rng_.fork(0x5E1EC7ULL + static_cast<std::uint64_t>(round));
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(config_.client_fraction *
                                  static_cast<double>(roster.size())));
  std::vector<std::size_t> order = select_rng.permutation(roster.size());
  std::vector<std::size_t> participants;
  participants.reserve(k);
  for (std::size_t j = 0; j < k; ++j) participants.push_back(roster[order[j]]);
  std::sort(participants.begin(), participants.end());
  return participants;
}

// One client's exchange in one attempt: what its task produced, for the
// coordinator to commit.
struct FederatedSimulation::Exchange {
  struct Arrival {
    bool ok = false;
    ModelUpdateMsg msg;          // parsed update when ok
    std::string corrupt_reason;  // frame/parse failure when !ok
  };
  bool got_global = false;
  bool attacked = false;
  std::vector<Arrival> arrivals;
  ShipReceipt receipt;
  double downlink_seconds = 0.0;  // timing only, summed at commit
  double train_seconds = 0.0;
  double uplink_seconds = 0.0;
};

// Everything one round carries from stage to stage. Coordinator-owned:
// exchange tasks only read it (each writes only its own Exchange).
struct FederatedSimulation::RoundState {
  std::chrono::steady_clock::time_point t0;
  std::int64_t round = 0;
  FaultInjector* faults = nullptr;
  FaultStats fault_before;
  // Durable operation: the pre-round global arena (the XOR-delta base of
  // this round's WAL record).
  nn::FlatParams prev_global;
  RoundOutcome out;

  // Live participants still owing an accepted update, and the clients
  // whose cross-round state (training RNG, personalized model, defense)
  // this round may advance — every live participant, including ones later
  // quarantined or lost (their local training still ran).
  std::vector<std::size_t> pending;
  std::vector<std::size_t> touched;
  std::size_t quorum = 0;

  GlobalModelMsg broadcast_msg;
  std::vector<std::uint8_t> broadcast_bytes;
  bool codec_active = false;
  std::uint64_t broadcast_uncoded_bytes = 0;
  // The server's decode of its own broadcast, the reference a sparse
  // update codec codes deltas against (null for dense updates).
  nn::FlatParams update_reference;
  const nn::FlatParams* update_ref = nullptr;

  std::unordered_set<int> accepted_ids;
  std::optional<bool> weighting;
  // Last failure mode per still-pending client: 'd' = no intact broadcast,
  // 'u' = no upload copy arrived, 'q' = arrived but quarantined.
  std::map<std::size_t, char> fail_mode;
  // The clients the current attempt's commits leave pending for the next.
  std::vector<std::size_t> still_pending;
};

const RoundOutcome& FederatedSimulation::run_round() {
  // The previous round's uploads are dropped before this round's arrive,
  // so at most one round of accepted updates is ever held.
  last_updates_.clear();
  RoundState st = select_round();
  prepare_downlink(st);
  run_exchanges(st);
  finalize_round(st);
  prefetch_next_broadcast();
  return persist_round(st);
}

FederatedSimulation::RoundState FederatedSimulation::select_round() {
  RoundState st;
  st.t0 = std::chrono::steady_clock::now();
  st.round = server_->round();
  const std::int64_t round = st.round;
  st.faults = transport_->faults();
  if (st.faults != nullptr) st.faults->begin_round(round);
  if (adversary_ != nullptr) adversary_->begin_round(round);
  if (st.faults != nullptr) st.fault_before = st.faults->stats();
  if (store_ != nullptr) st.prev_global = server_->global_params();

  RoundOutcome& out = st.out;
  out.round = round;
  out.aggregator = server_->aggregator().name();

  // Membership churn bookkeeping: who entered / left the roster at this
  // round boundary (a pure function of config, so it replays after resume).
  out.roster_size = roster_at(round).size();
  if (config_.churn.any() && round > 0) {
    for (std::size_t i = 0; i < clients_.size(); ++i) {
      const int id = static_cast<int>(i);
      const bool now = config_.churn.present(id, round);
      const bool before = config_.churn.present(id, round - 1);
      if (now && !before) out.joined.push_back(id);
      if (!now && before) out.departed.push_back(id);
    }
  }

  const std::vector<std::size_t> participants = select_participants(round);
  out.selected.reserve(participants.size());
  for (std::size_t i : participants) out.selected.push_back(static_cast<int>(i));

  // Crashed clients are unreachable for the whole round.
  for (std::size_t i : participants) {
    if (st.faults != nullptr && st.faults->is_crashed(static_cast<int>(i))) {
      st.faults->record_crashed_contact();
      out.crashed.push_back(static_cast<int>(i));
    } else {
      st.pending.push_back(i);
    }
  }
  const std::size_t live = st.pending.size();
  st.quorum = config_.min_clients == 0 ? live : std::min(config_.min_clients, live);
  st.touched = st.pending;
  return st;
}

void FederatedSimulation::prepare_downlink(RoundState& st) {
  // Reuse the bytes the previous round's prefetch serialized in the
  // straggler tail's shadow, or serialize now. Either way the content is a
  // pure function of the committed server state, so the rounds are
  // bit-identical.
  const auto t0 = std::chrono::steady_clock::now();
  if (prefetch_ != nullptr && prefetch_->round == st.round) {
    join_prefetch();
    st.broadcast_msg = std::move(prefetch_->msg);
    st.broadcast_bytes = std::move(prefetch_->bytes);
    prefetch_.reset();
  } else {
    invalidate_prefetch();
    st.broadcast_msg = server_->broadcast();
    st.broadcast_bytes = server_->serialize_broadcast(st.broadcast_msg);
  }
  st.out.timings.downlink_seconds += seconds_since(t0);

  // Wire codec (DESIGN.md §14): a sparse update codec codes deltas against
  // the round's broadcast AS DECODED. The server decodes its own broadcast
  // bytes once here — bit-identical to what every client's receive_global
  // decoded, even under a lossy broadcast codec — and the exchange tasks
  // read it concurrently. The uncoded (raw-f32, v2_wire_bytes) sizes feed
  // the bytes-saved counters, accounted per delivered copy like
  // bytes_up/down.
  st.codec_active = config_.codec.active();
  if (config_.codec.update.topk_fraction < 1.0) {
    const auto d0 = std::chrono::steady_clock::now();
    st.update_reference = GlobalModelMsg::deserialize(st.broadcast_bytes).params;
    st.update_ref = &st.update_reference;
    st.out.timings.downlink_seconds += seconds_since(d0);
  }
  if (st.codec_active) st.broadcast_uncoded_bytes = v2_wire_bytes(st.broadcast_msg);
}

void FederatedSimulation::run_exchanges(RoundState& st) {
  // The session opens up front so every accepted update can move in at
  // commit time; validate_update still checks the current round, which
  // only advances at finalize.
  server_->begin_aggregation();

  const double round_start_clock = transport_->stats().simulated_latency_seconds;
  const int max_attempts = 1 + config_.max_retries;
  for (int attempt = 0; attempt < max_attempts && !st.pending.empty(); ++attempt) {
    if (attempt > 0) {
      st.out.retries_used = attempt;
      transport_->add_latency(config_.retry_backoff_seconds * attempt);
    }
    std::vector<Exchange> exchanges(st.pending.size());
    st.still_pending.clear();
    RoundPipeline(PipelineMode::kStream, exec_.get())
        .run(
            st.pending.size(),
            [&](std::size_t idx) { exchange_task(st, st.pending[idx], exchanges[idx]); },
            [&](std::size_t idx) { commit_exchange(st, st.pending[idx], exchanges[idx]); });
    st.pending = std::move(st.still_pending);
    if (st.out.accepted.size() >= st.quorum) break;
    if (config_.round_deadline_seconds > 0.0 &&
        transport_->stats().simulated_latency_seconds - round_start_clock >=
            config_.round_deadline_seconds)
      break;
  }
}

// Every pending client's exchange is an isolated unit of work — downlink,
// local training, attack, uplink. All randomness is keyed by (seed, round,
// client), and all transport / fault accounting is deferred into the
// per-client receipt, so the tasks touch no shared mutable state and their
// schedule cannot affect the outcome.
void FederatedSimulation::exchange_task(const RoundState& st, std::size_t i,
                                        Exchange& ex) {
  const int id = static_cast<int>(i);

  // ---- downlink: the client needs one intact copy of the broadcast.
  const auto d0 = std::chrono::steady_clock::now();
  const auto down_copies =
      transport_->ship(LinkDir::kDown, id, st.broadcast_bytes, &ex.receipt);
  if (st.codec_active)
    ex.receipt.transport.bytes_down_uncoded +=
        down_copies.size() * st.broadcast_uncoded_bytes;
  for (const auto& copy : down_copies) {
    try {
      clients_[i].receive_global(GlobalModelMsg::deserialize(Transport::open(copy)));
      ex.got_global = true;
      break;  // further copies are duplicates of the same broadcast
    } catch (const Error&) {
      // Corrupted broadcast copy: the client discards it and waits for the
      // next retry.
    }
  }
  ex.downlink_seconds = seconds_since(d0);
  if (!ex.got_global) return;

  // ---- local training.
  const auto t0 = std::chrono::steady_clock::now();
  ModelUpdateMsg update = clients_[i].train_round();
  // Byzantine clients train honestly, then swap in the attack payload
  // (they know the broadcast model like everyone else). The payload is
  // well-formed on purpose: it must be caught by robust aggregation, not
  // by the validity checks.
  if (adversary_ != nullptr && adversary_->is_attacker(id)) {
    adversary_->corrupt_update(st.broadcast_msg.params, update);
    ex.attacked = true;
  }
  ex.train_seconds = seconds_since(t0);

  // Wall-clock straggler: burn real time before the upload. No accounting,
  // no randomness — purely the tail the streaming pipeline overlaps.
  // Excluded from phase timers.
  if (st.faults != nullptr) {
    const double wall = st.faults->straggler_wall_seconds(id);
    if (wall > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(wall));
  }

  // ---- uplink. The client serializes under the update codec (its
  // retained broadcast decode supplies the sparse reference); arrivals
  // decode against the server's own reference from prepare_downlink.
  const auto u0 = std::chrono::steady_clock::now();
  const auto up_copies = transport_->ship(
      LinkDir::kUp, id, clients_[i].serialize_update(update), &ex.receipt);
  if (st.codec_active)
    ex.receipt.transport.bytes_up_uncoded += up_copies.size() * v2_wire_bytes(update);
  for (const auto& copy : up_copies) {
    Exchange::Arrival arrival;
    try {
      arrival.msg = ModelUpdateMsg::deserialize(Transport::open(copy), st.update_ref);
      arrival.ok = true;
    } catch (const Error& e) {
      arrival.corrupt_reason = std::string("corrupt: ") + e.what();
    }
    ex.arrivals.push_back(std::move(arrival));
  }
  ex.uplink_seconds = seconds_since(u0);
}

// Every order-sensitive step (stats sums, validation, acceptance, shard
// absorb) runs here, strictly in ascending client-id order on the
// coordinator — identical for any thread count, which only changes *when*
// each commit runs relative to the remaining tasks, never its inputs.
void FederatedSimulation::commit_exchange(RoundState& st, std::size_t i, Exchange& ex) {
  const int id = static_cast<int>(i);
  RoundOutcome& out = st.out;
  const auto c0 = std::chrono::steady_clock::now();
  transport_->commit(ex.receipt);
  out.timings.downlink_seconds += ex.downlink_seconds;
  out.timings.train_seconds += ex.train_seconds;
  out.timings.uplink_seconds += ex.uplink_seconds;

  if (!ex.got_global) {
    st.fail_mode[i] = 'd';
    st.still_pending.push_back(i);
    out.timings.commit_seconds += seconds_since(c0);
    return;
  }
  if (ex.attacked &&
      std::find(out.attackers.begin(), out.attackers.end(), id) == out.attackers.end())
    out.attackers.push_back(id);
  out.timings.commit_seconds += seconds_since(c0);

  bool update_accepted = false;
  for (Exchange::Arrival& arrival : ex.arrivals) {
    if (!arrival.ok) {
      out.quarantined.push_back({id, arrival.corrupt_reason});
      continue;
    }
    const auto v0 = std::chrono::steady_clock::now();
    const UpdateVerdict verdict =
        server_->validate_update(arrival.msg, st.accepted_ids, st.weighting);
    out.timings.validate_seconds += seconds_since(v0);
    if (verdict.accepted) {
      st.weighting = arrival.msg.pre_weighted;
      st.accepted_ids.insert(arrival.msg.client_id);
      out.accepted.push_back(arrival.msg.client_id);
      // The session takes the update over; finalize hands it back as
      // last_updates_, so it is never copied.
      server_->absorb_validated(std::move(arrival.msg));
      update_accepted = true;
    } else {
      out.quarantined.push_back({id, verdict.detail});
    }
  }
  if (update_accepted) {
    st.fail_mode.erase(i);
  } else {
    st.fail_mode[i] = ex.arrivals.empty() ? 'u' : 'q';
    st.still_pending.push_back(i);
  }
}

void FederatedSimulation::finalize_round(RoundState& st) {
  RoundOutcome& out = st.out;
  for (std::size_t i : st.pending) {
    const auto it = st.fail_mode.find(i);
    const char mode = it != st.fail_mode.end() ? it->second : 'u';
    if (mode == 'd') out.missed_broadcast.push_back(static_cast<int>(i));
    else if (mode == 'u') out.lost_update.push_back(static_cast<int>(i));
    // 'q': already listed under quarantined.
  }

  out.quorum_met = !out.accepted.empty() && out.accepted.size() >= st.quorum;
  if (out.quorum_met) {
    // Every accepted update moved into the session at commit time;
    // finalize aggregates each shard across the pool, runs the root
    // combine and hands the updates back.
    out.aggregator_flags = server_->finalize_aggregation(&last_updates_);
    out.shards = server_->last_shard_stats();
    out.timings.shard_seconds = server_->last_aggregate_timings().shard_seconds;
    out.timings.combine_seconds = server_->last_aggregate_timings().combine_seconds;
  } else {
    // Degraded-but-live round: no quorum of valid updates arrived within
    // the retry budget, so the previous global model survives unchanged.
    // carry_forward also abandons the streaming session's absorbed state.
    server_->carry_forward();
    out.carried_forward = true;
    DINAR_INFO << "round " << st.round << " carried forward: " << out.accepted.size()
               << "/" << st.quorum << " valid updates after " << out.retries_used
               << " retries";
  }
  if (st.faults != nullptr)
    out.fault_delta = fault_stats_delta(st.faults->stats(), st.fault_before);
}

void FederatedSimulation::prefetch_next_broadcast() {
  // Cross-round overlap: the server state for round N+1 is final, so the
  // next broadcast's serialization can run on the pool while this thread
  // fsyncs the WAL record, compacts snapshots, or evaluates. The model
  // copy happens here on the coordinator (the worker must not touch live
  // server state); join_prefetch() at the next round start (or any restore
  // path) synchronizes before the bytes are read.
  invalidate_prefetch();
  prefetch_ = std::make_shared<BroadcastPrefetch>();
  prefetch_->msg = server_->broadcast();
  prefetch_->round = server_->round();
  const std::shared_ptr<BroadcastPrefetch> p = prefetch_;
  // The codec is captured by value: the worker must not touch live server
  // state, and the codec never changes after construction.
  const KindCodec broadcast_codec = config_.codec.broadcast;
  prefetch_->done =
      exec_->submit([p, broadcast_codec] { p->bytes = p->msg.serialize(broadcast_codec); });
}

const RoundOutcome& FederatedSimulation::persist_round(RoundState& st) {
  const auto w0 = std::chrono::steady_clock::now();
  round_log_.push_back(std::move(st.out));
  if (store_ != nullptr) {
    // In-memory state is committed; a crash before the WAL append loses
    // the round, and recovery re-runs it bit-identically (all round
    // randomness is keyed by (seed, round); all sequential streams are in
    // the previous record).
    crashpoint("round.commit.mid");
    append_round_to_store(round_log_.back(), st.prev_global, st.touched);
    crashpoint("round.commit.post_append");
    maybe_snapshot();
  }
  RoundPhaseTimings& timings = round_log_.back().timings;
  timings.commit_seconds += seconds_since(w0);
  timings.round_seconds = seconds_since(st.t0);
  return round_log_.back();
}

// -- durable round store ------------------------------------------------------

void FederatedSimulation::attach_store(store::RoundStore* store, int snapshot_every) {
  DINAR_CHECK(snapshot_every >= 1,
              "attach_store snapshot_every = " << snapshot_every
                                               << " — need at least 1");
  store_ = store;
  snapshot_every_ = snapshot_every;
  rounds_since_snapshot_ = 0;
}

void FederatedSimulation::append_round_to_store(
    const RoundOutcome& out, const nn::FlatParams& prev_global,
    const std::vector<std::size_t>& touched) {
  BinaryWriter w;
  w.write_u8(static_cast<std::uint8_t>(WalRecordKind::kRoundCommit));
  write_round_outcome(w, out);

  // Global arena as an XOR bit-delta vs the pre-round arena. XOR rather
  // than float subtraction: applying the delta must reconstruct the new
  // arena *bit-exactly*, and float arithmetic does not round-trip.
  const bool global_changed = !out.carried_forward;
  w.write_u8(global_changed ? 1 : 0);
  if (global_changed) {
    const std::span<const float> now = server_->global_params().as_span();
    const std::span<const float> before = prev_global.as_span();
    DINAR_CHECK(now.size() == before.size(),
                "global arena resized within round " << out.round);
    std::vector<float> delta(now.size());
    for (std::size_t i = 0; i < now.size(); ++i)
      delta[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(now[i]) ^
                                      std::bit_cast<std::uint32_t>(before[i]));
    w.write_f32_span(delta.data(), delta.size());
  }

  // Post-round state of every client the round touched (their training RNG
  // streams and personalized models advanced even if the upload was lost).
  w.write_u64(touched.size());
  for (const std::size_t i : touched) {
    w.write_u32(static_cast<std::uint32_t>(i));
    clients_[i].save_state(w);
  }

  write_counters(w);

  store_->append(w.buffer());
}

void FederatedSimulation::append_eval_to_store(const RoundRecord& rec) {
  BinaryWriter w;
  w.write_u8(static_cast<std::uint8_t>(WalRecordKind::kEvalRecord));
  write_round_record(w, rec);
  store_->append(w.buffer());
}

void FederatedSimulation::maybe_snapshot() {
  if (++rounds_since_snapshot_ < snapshot_every_) return;
  BinaryWriter w;
  save_full_state(w);
  store_->install_snapshot(server_->round(), w.buffer());
  rounds_since_snapshot_ = 0;
}

void FederatedSimulation::save_full_state(BinaryWriter& w) const {
  w.write_u32(kFullStateMagic);
  w.write_u32(kFullStateVersion);
  // Configuration fingerprint: recovery must run inside an identically
  // configured simulation or the replayed schedules diverge silently.
  w.write_u64(config_.seed);
  w.write_i64(config_.rounds);
  w.write_u64(clients_.size());

  w.write_i64(server_->round());
  nn::write_flat_params(w, server_->global_params());
  for (const FlClient& c : clients_) c.save_state(w);

  w.write_u64(history_.size());
  for (const RoundRecord& rec : history_) write_round_record(w, rec);
  w.write_u64(round_log_.size());
  for (const RoundOutcome& out : round_log_) write_round_outcome(w, out);

  write_counters(w);
}

void FederatedSimulation::restore_full_state(BinaryReader& r) {
  invalidate_prefetch();
  DINAR_CHECK(r.read_u32() == kFullStateMagic, "not a DFST full-state snapshot");
  const std::uint32_t version = r.read_u32();
  DINAR_CHECK(version == kFullStateVersion,
              "unsupported full-state version " << version);
  const std::uint64_t seed = r.read_u64();
  DINAR_CHECK(seed == config_.seed, "snapshot seed " << seed
                                                     << " != configured seed "
                                                     << config_.seed);
  const std::int64_t rounds = r.read_i64();
  DINAR_CHECK(rounds == config_.rounds,
              "snapshot configured for " << rounds << " rounds, simulation for "
                                         << config_.rounds);
  const std::uint64_t num_clients = r.read_u64();
  DINAR_CHECK(num_clients == clients_.size(),
              "snapshot has " << num_clients << " clients, simulation has "
                              << clients_.size());

  const std::int64_t round = r.read_i64();
  nn::FlatParams global = nn::read_flat_params(r);
  server_->restore(round, std::move(global));
  for (FlClient& c : clients_) c.restore_state(r);

  const std::uint64_t nh = r.read_length(1);
  history_.clear();
  history_.reserve(nh);
  for (std::uint64_t i = 0; i < nh; ++i) history_.push_back(read_round_record(r));
  const std::uint64_t nl = r.read_length(1);
  round_log_.clear();
  round_log_.reserve(nl);
  for (std::uint64_t i = 0; i < nl; ++i) round_log_.push_back(read_round_outcome(r));

  read_counters(r);
  DINAR_CHECK(r.exhausted(), "trailing bytes in full-state snapshot");
  last_updates_.clear();
}

bool FederatedSimulation::apply_wal_record(BinaryReader& r) {
  const std::uint8_t kind = r.read_u8();
  if (kind == static_cast<std::uint8_t>(WalRecordKind::kEvalRecord)) {
    const RoundRecord rec = read_round_record(r);
    if (!history_.empty() && history_.back().round >= rec.round)
      return false;  // duplicate (crash between append and compaction)
    history_.push_back(rec);
    return true;
  }
  DINAR_CHECK(kind == static_cast<std::uint8_t>(WalRecordKind::kRoundCommit),
              "unknown WAL record kind " << static_cast<int>(kind));

  const RoundOutcome out = read_round_outcome(r);
  // Records at or below the server round were already absorbed by the
  // snapshot, or duplicated by a crash between append and acknowledgment.
  if (out.round < server_->round()) return false;
  // A gap means a lost record between snapshot and WAL — the remainder of
  // the log builds on unrecovered state, so replay must stop here.
  DINAR_CHECK(out.round == server_->round(),
              "WAL gap: record for round " << out.round << ", server at round "
                                           << server_->round());

  if (r.read_u8() != 0) {
    // The delta is XORed in from the record's own bytes (unaligned, so
    // each word is loaded with memcpy), never copied out first.
    const std::uint64_t n = r.read_length(sizeof(float));
    nn::FlatParams global = server_->global_params();
    const std::span<float> g = global.as_span();
    DINAR_CHECK(n == g.size(), "WAL round " << out.round << " delta has " << n
                                            << " floats, arena has " << g.size());
    const std::uint8_t* delta = r.read_raw(n * sizeof(float));
    for (std::size_t i = 0; i < g.size(); ++i) {
      std::uint32_t d;
      std::memcpy(&d, delta + i * sizeof(float), sizeof d);
      g[i] = std::bit_cast<float>(std::bit_cast<std::uint32_t>(g[i]) ^ d);
    }
    server_->restore(out.round + 1, std::move(global));
  } else {
    server_->carry_forward();
  }

  const std::uint64_t n = r.read_length(sizeof(std::uint32_t));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint32_t id = r.read_u32();
    DINAR_CHECK(id < clients_.size(),
                "WAL round " << out.round << " patches client " << id
                             << ", roster has " << clients_.size());
    clients_[id].restore_state(r);
  }

  read_counters(r);
  round_log_.push_back(out);
  return true;
}

void FederatedSimulation::write_counters(BinaryWriter& w) const {
  write_transport_stats(w, transport_->stats());
  const FaultInjector* faults = transport_->faults();
  w.write_u8(faults != nullptr ? 1 : 0);
  if (faults != nullptr) write_fault_stats(w, faults->stats());
  w.write_u8(adversary_ != nullptr ? 1 : 0);
  if (adversary_ != nullptr) write_attack_stats(w, adversary_->stats());
}

void FederatedSimulation::read_counters(BinaryReader& r) {
  transport_->restore_stats(read_transport_stats(r));
  if (r.read_u8() != 0) {
    const FaultStats fs = read_fault_stats(r);
    if (transport_->faults() != nullptr) transport_->faults()->restore_stats(fs);
  }
  if (r.read_u8() != 0) {
    const AttackStats as = read_attack_stats(r);
    if (adversary_ != nullptr) adversary_->restore_stats(as);
  }
}

std::int64_t FederatedSimulation::recover_from_store() {
  DINAR_CHECK(store_ != nullptr, "recover_from_store() without attach_store()");
  invalidate_prefetch();
  std::int64_t replayed = 0;
  {
    // The snapshot and the records are views into the store's read-only
    // mappings, parsed in place. They are dropped at the end of this
    // scope, before the eval append below writes to the store.
    const store::RoundStore::Recovered rec = store_->recover();
    // Where replay restarts if a record fails part-way through: the
    // snapshot, or without one the state recovery began from.
    std::vector<std::uint8_t> origin;
    if (rec.snapshot.has_value()) {
      BinaryReader r(*rec.snapshot);
      restore_full_state(r);
    } else if (!rec.wal_records.empty()) {
      BinaryWriter w;
      save_full_state(w);
      origin = w.take();
    }
    // Replays records [0, count); returns the index of the first one that
    // throws (a bit flip that survived the CRC, version skew, a round gap),
    // or count.
    const auto replay = [&](std::size_t count) {
      replayed = 0;
      for (std::size_t k = 0; k < count; ++k) {
        const std::span<const std::uint8_t> bytes = rec.wal_records[k];
        try {
          BinaryReader r(bytes);
          const bool is_round =
              !bytes.empty() &&
              bytes[0] == static_cast<std::uint8_t>(WalRecordKind::kRoundCommit);
          if (apply_wal_record(r) && is_round) ++replayed;
        } catch (const Error& e) {
          DINAR_INFO << "WAL replay stopped: " << e.what();
          return k;
        }
      }
      return count;
    };
    // Replay the longest valid WAL prefix. A record that throws may have
    // patched part of the state already, so recovery rewinds and replays
    // only the records before it rather than crashing.
    const std::size_t valid = replay(rec.wal_records.size());
    if (valid < rec.wal_records.size()) {
      BinaryReader r(rec.snapshot.has_value() ? *rec.snapshot
                                              : std::span<const std::uint8_t>(origin));
      restore_full_state(r);
      replay(valid);
    }
    if (rec.wal_tail_discarded) {
      DINAR_INFO << "WAL torn tail discarded";
    }
  }

  // A crash between the round commit and its eval append loses the eval
  // record; the eval is a pure function of the restored state, so
  // recompute it (and make it durable) before resuming.
  const std::int64_t round = server_->round();
  const bool last = round >= config_.rounds;
  const bool due =
      round > 0 && (last || (config_.eval_every > 0 && round % config_.eval_every == 0));
  if (due && (history_.empty() || history_.back().round < round)) {
    history_.push_back(evaluate_now());
    append_eval_to_store(history_.back());
  }

  last_updates_.clear();
  rounds_since_snapshot_ = replayed;
  return server_->round();
}

nn::Model FederatedSimulation::global_model() {
  Rng tmp_rng = rng_.fork(0x61);
  nn::Model m = model_factory_(tmp_rng);
  m.set_parameters(server_->global_params());
  return m;
}

std::vector<std::size_t> FederatedSimulation::last_participants() const {
  std::vector<std::size_t> out;
  out.reserve(last_updates_.size());
  for (const ModelUpdateMsg& u : last_updates_)
    out.push_back(static_cast<std::size_t>(u.client_id));
  return out;
}

nn::Model FederatedSimulation::server_view_of_client(std::size_t i) {
  const ModelUpdateMsg* found = nullptr;
  for (const ModelUpdateMsg& u : last_updates_)
    if (static_cast<std::size_t>(u.client_id) == i) found = &u;
  DINAR_CHECK(found != nullptr, "client " << i << " did not upload last round");
  const ModelUpdateMsg& u = *found;
  Rng tmp_rng = rng_.fork(0xA7 + i);
  nn::Model m = model_factory_(tmp_rng);
  nn::FlatParams params = u.params;
  if (u.pre_weighted)
    nn::flat_scale(params, 1.0f / static_cast<float>(u.num_samples));
  m.set_parameters(params);
  return m;
}

RoundRecord FederatedSimulation::evaluate_now() {
  RoundRecord rec;
  rec.round = server_->round();

  nn::Model global = global_model();
  global.set_execution_context(exec_.get());
  const EvalStats global_stats = evaluate(global, split_.test);
  rec.global_test_accuracy = global_stats.accuracy;
  rec.global_test_loss = global_stats.mean_loss;

  // Under churn, personalized metrics average over the clients that were
  // in the federation for the last completed round; clients that have not
  // joined yet still hold the initial model and would poison the mean.
  std::vector<std::size_t> active =
      roster_at(std::max<std::int64_t>(0, server_->round() - 1));
  if (active.empty()) {
    active.resize(clients_.size());
    std::iota(active.begin(), active.end(), std::size_t{0});
  }
  // Per-client evaluations are independent, so they fan out across the
  // pool; the accuracy sums are then taken sequentially in index order
  // (double addition is order-dependent).
  std::vector<double> client_acc(active.size(), 0.0);
  exec_->for_each_task(active.size(), [&](std::size_t a) {
    client_acc[a] = evaluate(clients_[active[a]].model(), split_.test).accuracy;
  });
  double personalized = 0.0, train_acc = 0.0;
  for (std::size_t a = 0; a < active.size(); ++a) {
    personalized += client_acc[a];
    train_acc += clients_[active[a]].last_train_stats().accuracy;
  }
  rec.personalized_test_accuracy = personalized / static_cast<double>(active.size());
  rec.mean_client_train_accuracy = train_acc / static_cast<double>(active.size());
  return rec;
}

double FederatedSimulation::mean_client_train_seconds() const {
  double s = 0.0;
  for (const FlClient& c : clients_) s += c.train_timer().total_seconds();
  return s / static_cast<double>(clients_.size());
}

double FederatedSimulation::mean_client_defense_seconds() const {
  double s = 0.0;
  for (const FlClient& c : clients_) s += c.defense_timer().total_seconds();
  return s / static_cast<double>(clients_.size());
}

double FederatedSimulation::server_aggregation_seconds() const {
  return server_->aggregation_timer().total_seconds();
}

}  // namespace dinar::fl
