// Federated-learning round orchestrator.
//
// Wires server, clients, transport and defenses into the classical FedAvg
// loop (paper §2.1): broadcast -> local training -> upload -> aggregate.
// Every payload crosses the byte transport, so the simulation measures the
// same client-side / server-side costs a deployment would (Table 3), and
// the stored per-client uploads are exactly the attacker's server-side
// view (used by the local-model MIA of Figure 6).
//
// Fault-tolerant round protocol: when SimulationConfig::faults injects
// crashes / drops / corruption, each round retries the broadcast+upload
// exchange (bounded by max_retries, with simulated backoff) for clients
// whose update has not arrived, quarantines invalid or corrupted updates
// instead of aborting, aggregates once `min_clients` valid updates are in,
// and — if quorum never materializes — carries the previous global model
// forward as a degraded-but-live round. Every round appends a RoundOutcome
// describing who crashed, who dropped, who was quarantined and why, and
// how many retries were spent. Resume goes through the full-state snapshot
// (save_full_state / restore_full_state, or the durable store built on
// it), which carries every client's private state — personalized model,
// DINAR's true sensitive layer, optimizer, RNG — alongside the server's;
// all per-round randomness (selection, faults, attacks) is forked from
// (seed, round), so a resumed run replays the remaining rounds
// bit-identically to the uninterrupted one.
//
// Byzantine robustness: SimulationConfig::adversaries schedules clients
// that upload well-formed but adversarial updates (sign-flip, model
// replacement, noise, collusion), and SimulationConfig::robust selects the
// server's aggregation strategy (median / trimmed mean / norm-clip /
// Krum). Aggregation is layer-aware: the defense bundle's obfuscated
// layers are excluded from outlier scoring so DINAR's legitimate
// randomization is never mistaken for an attack.
//
// Parallel execution: SimulationConfig::exec sizes a shared
// ExecutionContext that the simulation threads through every compute
// consumer — the selected clients' local training runs concurrently (one
// task per client), the tensor kernels tile across the same pool, and the
// robust aggregators parallelize their coordinate loops. Each client's
// exchange (broadcast receipt, training, attack, upload) is an isolated
// task with all randomness keyed by (seed, round, client) and all stats
// deferred into per-client receipts; every order-sensitive step (stats
// sums, validation, acceptance, aggregation) runs strictly in ascending
// client-id order on the coordinator, which pins down every
// order-dependent floating-point sum for any thread count.
//
// Round pipelining (DESIGN.md §13): the streaming round engine (the only
// schedule; no config field or environment pin selects it) commits each
// exchange the moment it completes — validating the update and moving it
// into the server's aggregation session while slower clients are still
// running — and overlaps the next round's broadcast serialization with the WAL
// commit. Commit order, not compute order, fixes every result, so runs are
// bit-identical for any thread count; the determinism gauntlet enforces it.
//
// Membership churn: SimulationConfig::churn lets clients join mid-run
// (initialized from the current global model via their first broadcast),
// leave, and rejoin with their personalized state carried across the
// absence. Presence is a pure function of (config, round), keeping
// selection deterministic and resume exact under churn.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "data/splits.h"
#include "fl/client.h"
#include "fl/pipeline.h"
#include "fl/server.h"
#include "fl/transport.h"
#include "nn/model_zoo.h"
#include "opt/optimizers.h"
#include "util/execution_context.h"

namespace dinar::store {
class RoundStore;
}

namespace dinar::fl {

// Factories that equip each participant with its defense; the default
// bundle is the paper's "no defense" baseline.
struct DefenseBundle {
  std::string name = "none";
  std::function<std::unique_ptr<ClientDefense>(int client_id)> make_client =
      [](int) { return std::make_unique<NoClientDefense>(); };
  std::function<std::unique_ptr<ServerDefense>()> make_server =
      [] { return std::make_unique<NoServerDefense>(); };
  // Param-layer indices the client defense legitimately randomizes
  // (DINAR's obfuscated sensitive layer). Layer-aware robust aggregation
  // excludes these layers' tensors from outlier scoring so honest
  // obfuscated updates are never quarantined.
  std::vector<std::size_t> obfuscated_layers;
};

// Dynamic membership: clients may join mid-run, leave, and rejoin. A
// client's FlClient state (personalized model, DINAR private layer, the
// optimizer) is carried across absences, so a rejoining client resumes
// with its own personalized layer while picking up the current global
// model from the next broadcast. Presence is a pure function of
// (config, round), so selection stays deterministic under churn and a
// resumed run recomputes the identical roster per round.
struct ChurnConfig {
  // client id -> first round the client is part of the federation
  // (absent entry = founding member, present from round 0). A joining
  // client is initialized from the current global model via its first
  // broadcast.
  std::map<int, std::int64_t> join_at_round;
  // client id -> absence intervals [leave, rejoin); rejoin == -1 means the
  // client never returns. Intervals must be sorted and non-overlapping.
  std::map<int, std::vector<std::pair<std::int64_t, std::int64_t>>> away;

  bool any() const { return !join_at_round.empty() || !away.empty(); }
  // True if the client is part of the roster in `round`.
  bool present(int client_id, std::int64_t round) const;
};

struct SimulationConfig {
  int rounds = 20;
  TrainConfig train{/*epochs=*/2, /*batch_size=*/64};
  double learning_rate = 1e-3;  // paper §5.3
  std::string optimizer = "adagrad";
  std::uint64_t seed = 42;
  // Fraction of clients the server selects each round (paper §2.1: "the FL
  // server selects N participating clients"); 1.0 = all clients.
  double client_fraction = 1.0;
  // Evaluate global/personalized accuracy every k rounds (0 = only at the
  // end); evaluation is pure measurement and never feeds back into training.
  int eval_every = 0;

  // -- fault-tolerant round protocol --------------------------------------
  // Injected transport/client faults; the all-zero default is fault-free.
  FaultConfig faults;
  // Quorum: aggregate once this many valid updates arrived (0 = every
  // selected client must answer, the strict seed behavior).
  std::size_t min_clients = 0;
  // Re-broadcast attempts (beyond the first) for clients whose update has
  // not been accepted; each retry adds `retry_backoff_seconds * attempt`
  // of simulated time.
  int max_retries = 2;
  double retry_backoff_seconds = 0.0;
  // Simulated per-round time budget; once the transport clock has advanced
  // this far past the round start, no more retries are attempted (0 = no
  // deadline).
  double round_deadline_seconds = 0.0;

  // -- Byzantine robustness ------------------------------------------------
  // Server-side aggregation strategy (robust.method) and its parameters;
  // the default is plain FedAvg. The defense bundle's obfuscated layers
  // are always excluded from outlier scoring.
  RobustConfig robust;
  // Adversarial clients; the empty default is all-honest.
  AdversaryConfig adversaries;

  // -- hierarchical aggregation --------------------------------------------
  // Shapes the server's aggregation tree (DESIGN.md §12). num_shards must
  // be >= 1 and <= the founding roster size; under churn a shard may go
  // empty mid-run (all its clients away or quarantined), which the root
  // combiner tolerates by skipping the empty summaries. The default single
  // shard is bit-identical to flat aggregation.
  ShardConfig shard;

  // -- membership churn ----------------------------------------------------
  ChurnConfig churn;

  // -- parallel execution ---------------------------------------------------
  // Sizes the simulation's ExecutionContext (thread count, chunk grain).
  // The default single thread reproduces the sequential path exactly; any
  // other thread count produces bit-identical results (see header
  // comment). There is no global pool — each simulation owns its context
  // and passes it explicitly to clients, kernels and aggregators.
  ExecConfig exec;

  // -- transport ------------------------------------------------------------
  // When true, every ship() crosses a real loopback TCP socket through
  // fl::SocketTransport (server + one connection per client, all inside
  // this process). Results are bit-identical to the default in-process
  // transport — only the socket_* counters differ from zero.
  bool socket_transport = false;

  // -- wire codec (DESIGN.md §14) -------------------------------------------
  // Params-body codec for both message kinds. The default (lossless f32,
  // dense) ships every entry as one raw f32 run; any lossy setting also
  // turns on the bytes_*_uncoded counters in TransportStats so runs report
  // their wire savings.
  UpdateCodecConfig codec;
};

struct RoundRecord {
  std::int64_t round = 0;
  double global_test_accuracy = 0.0;
  double global_test_loss = 0.0;
  double personalized_test_accuracy = 0.0;
  double mean_client_train_accuracy = 0.0;
};

// Wall-clock breakdown of one round, by phase. Measurement ONLY: never
// serialized into WAL records or snapshots, never dumped or compared by
// the determinism gauntlet — wall-clock differs run to run by design.
// Task-side phases (downlink, train, uplink) are summed across the
// per-client exchange tasks, so under threads they can exceed the round's
// wall-clock; commit/shard/combine run on the coordinator.
struct RoundPhaseTimings {
  double downlink_seconds = 0.0;  // broadcast serialize + ship/deserialize/receive
  double train_seconds = 0.0;     // local training + attack payload crafting
  double uplink_seconds = 0.0;    // update serialize + ship + parse (task side)
  double validate_seconds = 0.0;  // server-side validation of arrivals
  double shard_seconds = 0.0;     // edge aggregation (every shard's pass)
  double combine_seconds = 0.0;   // root merge of the shard summaries
  double commit_seconds = 0.0;    // transport commit + accounting + WAL + snapshot
  double round_seconds = 0.0;     // whole-round wall-clock
};

// Per-round event log of the fault-tolerant protocol: who was selected,
// who never answered and why, what was quarantined, and whether the round
// aggregated a quorum or carried the previous model forward.
struct RoundOutcome {
  std::int64_t round = 0;
  std::vector<int> selected;
  std::vector<int> crashed;           // selected but down all round
  std::vector<int> missed_broadcast;  // no intact global model ever arrived
  std::vector<int> lost_update;       // trained, but no upload copy arrived
  struct Rejection {
    int client_id = 0;
    std::string reason;  // "corrupt: ..." or a server RejectReason detail
  };
  std::vector<Rejection> quarantined;
  std::vector<int> accepted;  // clients whose update passed validation
  int retries_used = 0;
  bool quorum_met = false;
  bool carried_forward = false;  // degraded round: previous global kept

  // -- Byzantine robustness ------------------------------------------------
  std::vector<int> attackers;  // selected clients that attacked this round
  std::string aggregator;      // strategy that produced the aggregate
  // Aggregator treatment of validated updates: Krum exclusions, outlier
  // quarantines, norm clips — each with a per-client reason.
  std::vector<AggregatorFlag> aggregator_flags;
  // Per-shard statistics of the aggregation tree, in shard-id order with
  // empty shards included (empty vector when the round carried forward).
  // Deterministic — part of the durable round record.
  std::vector<ShardStats> shards;

  // -- membership churn ----------------------------------------------------
  std::size_t roster_size = 0;  // clients in the federation this round
  std::vector<int> joined;      // entered the roster at this round
  std::vector<int> departed;    // left the roster at this round

  // -- per-round fault-injection deltas ------------------------------------
  // What the FaultInjector did *this round* (run-level totals stay
  // available via Transport::faults()->stats()).
  FaultStats fault_delta;

  // -- wall-clock phase breakdown ------------------------------------------
  // Timing only (see RoundPhaseTimings): excluded from WAL serde, from
  // save_full_state, and from every determinism comparison.
  RoundPhaseTimings timings;
};

class FederatedSimulation {
 public:
  FederatedSimulation(nn::ModelFactory model_factory, data::FlSplit split,
                      SimulationConfig config, DefenseBundle defenses);

  // Runs every remaining round (config.rounds minus any already completed,
  // e.g. after restore_full_state() or recover_from_store()).
  void run();
  // Runs a single round (exposed for tests and incremental experiments);
  // returns its event log entry.
  const RoundOutcome& run_round();

  // -- durable round store (crash-consistent operation) --------------------
  // Attaches a write-ahead round store: every committed round appends one
  // fsynced WAL record (O(changed state): the RoundOutcome, an XOR
  // bit-delta of the global arena, the participants' post-round client
  // state, absolute transport/fault/attack counters), and every
  // `snapshot_every` rounds the WAL is compacted onto a full-state
  // snapshot. After kill -9 at ANY instruction, recover_from_store()
  // rebuilds a state bit-identical to some committed round boundary and
  // the re-run of any lost round is bit-identical to the uninterrupted
  // run (all round randomness is keyed by (seed, round); all sequential
  // streams are part of the persisted state). The store must outlive the
  // simulation; pass nullptr to detach.
  void attach_store(store::RoundStore* store, int snapshot_every = 8);

  // Rebuilds this (freshly constructed, identically configured)
  // simulation from the attached store: newest valid snapshot, then the
  // longest valid WAL prefix replayed on top. Tolerates torn tails,
  // truncation, bit flips, duplicate round records and records already
  // absorbed by the snapshot — corruption only shortens the replay, it
  // never throws. Returns the recovered round count (server round after
  // replay).
  std::int64_t recover_from_store();

  // -- resume ---------------------------------------------------------------
  // Full simulation state ("DFST": server + every client's model/RNG/
  // defense state + both logs + counters). This is the store's snapshot
  // payload, the one resume format (write it to a file with
  // store::atomic_write_file), and what the crash matrix compares runs by.
  // Restoring into an identically configured simulation and running the
  // remaining rounds is byte-equal to the uninterrupted run. The reader
  // rejects a configuration mismatch, a bad magic or version, truncation
  // and trailing bytes.
  void save_full_state(BinaryWriter& w) const;
  void restore_full_state(BinaryReader& r);

  // -- results & attacker views ------------------------------------------
  FlServer& server() { return *server_; }
  std::vector<FlClient>& clients() { return clients_; }
  Transport& transport() { return *transport_; }
  // The simulation's execution context (always non-null after construction).
  const ExecutionContext& execution_context() const { return *exec_; }
  const std::vector<RoundRecord>& history() const { return history_; }
  const std::vector<RoundOutcome>& round_log() const { return round_log_; }
  const data::Dataset& test_data() const { return split_.test; }
  const data::FlSplit& split() const { return split_; }
  const SimulationConfig& config() const { return config_; }

  // A model carrying the current global parameters (the client-side
  // attacker's view).
  nn::Model global_model();
  // The server-side attacker's view of client i's latest upload: its
  // parameters as they crossed the wire (un-pre-weighted if needed).
  // Requires client i to have participated in the last round.
  nn::Model server_view_of_client(std::size_t i);
  // Clients that uploaded in the most recent round, by index.
  std::vector<std::size_t> last_participants() const;
  const nn::ModelFactory& model_factory() const { return model_factory_; }

  // Metrics (computed on demand).
  RoundRecord evaluate_now();
  double mean_client_train_seconds() const;
  double mean_client_defense_seconds() const;
  double server_aggregation_seconds() const;

  // The adversary engine, or nullptr when every client is honest.
  AdversaryEngine* adversaries() { return adversary_.get(); }

  // Clients in the federation at `round` (a pure function of config).
  std::vector<std::size_t> roster_at(std::int64_t round) const;

 private:
  void validate_config() const;
  // The config checks that depend on the clients' defense (run once the
  // clients exist): pre-weighted uploads need an exact, flat FedAvg sum.
  void validate_defense_config() const;
  std::vector<std::size_t> select_participants(std::int64_t round);

  // -- round stages (run_round calls them in this order) --------------------
  struct RoundState;  // one round's working state, passed stage to stage
  struct Exchange;    // one client's exchange in one attempt
  // Roster/selection: starts the round's fault and attack schedules, logs
  // churn, selects participants and sets crashed clients aside.
  RoundState select_round();
  // Downlink preparation: the broadcast bytes (prefetched or serialized
  // now) and the sparse-codec decode reference.
  void prepare_downlink(RoundState& st);
  // Opens the aggregation session and runs the exchange attempts (first
  // try plus retries) until quorum, retry budget or deadline.
  void run_exchanges(RoundState& st);
  // Exchange task: client i's downlink, training, attack and uplink. Runs
  // on the pool; reads `st`, writes only `ex`.
  void exchange_task(const RoundState& st, std::size_t i, Exchange& ex);
  // Commit: folds client i's exchange into the round on the coordinator,
  // in ascending client order — accounting, validation, absorb.
  void commit_exchange(RoundState& st, std::size_t i, Exchange& ex);
  // Finalize/carry-forward: classifies the clients that never got through
  // and either finalizes the aggregation or keeps the previous model.
  void finalize_round(RoundState& st);
  // Starts serializing the next round's broadcast on the pool.
  void prefetch_next_broadcast();
  // Persist: appends the round to the log and, when a store is attached,
  // to the WAL (snapshotting on cadence).
  const RoundOutcome& persist_round(RoundState& st);

  // Builds and durably appends round N's WAL record. `prev_global` is the
  // pre-round global arena (XOR-delta base); `touched` the clients whose
  // state the round may have advanced.
  void append_round_to_store(const RoundOutcome& out, const nn::FlatParams& prev_global,
                             const std::vector<std::size_t>& touched);
  void append_eval_to_store(const RoundRecord& rec);
  // Compacts the WAL onto a fresh full-state snapshot on cadence.
  void maybe_snapshot();
  // Applies one WAL record; returns false when the record is a stale
  // duplicate (skip) — malformed records throw and the caller stops.
  bool apply_wal_record(BinaryReader& r);
  // The cumulative-counters trailer every WAL round record and every
  // full-state snapshot ends with: transport stats, then fault stats and
  // attack stats, each behind a presence byte. Absolute values, since the
  // latency clock (a double) does not rebuild bit-exactly from deltas.
  void write_counters(BinaryWriter& w) const;
  void read_counters(BinaryReader& r);
  // Blocks until the in-flight broadcast-prefetch task (if any) finished
  // serializing; safe to call with none pending.
  void join_prefetch();
  // join_prefetch + drop the prefetched broadcast (state changed under it:
  // full-state restore, store recovery).
  void invalidate_prefetch();

  nn::ModelFactory model_factory_;
  data::FlSplit split_;
  SimulationConfig config_;
  // Owns the thread pool; declared before the clients/server so it
  // outlives every component holding a pointer to it.
  std::unique_ptr<ExecutionContext> exec_;
  // The transport seam: the in-process Transport by default, a
  // SocketTransport when config.socket_transport is set.
  std::unique_ptr<Transport> transport_;
  std::unique_ptr<FlServer> server_;
  std::unique_ptr<AdversaryEngine> adversary_;
  std::vector<FlClient> clients_;
  // The last aggregated round's accepted uploads, handed back by the
  // server's session after finalize (never copied); cleared when the next
  // round starts.
  std::vector<ModelUpdateMsg> last_updates_;
  std::vector<RoundRecord> history_;
  std::vector<RoundOutcome> round_log_;
  Rng rng_;
  // Next-round broadcast prefetch (stream mode): after a round commits,
  // the new global model is copied on the coordinator and serialized on
  // the pool, overlapping the WAL fsync / snapshot / eval that follow.
  // The block is heap-shared with the pool task (which captures the
  // shared_ptr, never `this`), so the simulation stays freely movable and
  // destructible with a task in flight — the worker's reference keeps the
  // block alive and the pool (owned by exec_, destroyed last) joins its
  // threads before the process loses the code the task runs. Only the
  // task touches msg/bytes between submit and join_prefetch(); `round` is
  // coordinator-only.
  struct BroadcastPrefetch {
    GlobalModelMsg msg;
    std::vector<std::uint8_t> bytes;
    std::int64_t round = -1;
    std::future<void> done;
  };
  std::shared_ptr<BroadcastPrefetch> prefetch_;
  // Durable operation (null = volatile, the seed behavior).
  store::RoundStore* store_ = nullptr;
  int snapshot_every_ = 8;
  std::int64_t rounds_since_snapshot_ = 0;
};

}  // namespace dinar::fl
