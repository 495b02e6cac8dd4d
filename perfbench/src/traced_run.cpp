#include "traced_run.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <sstream>
#include <unordered_set>

#include "core/obfuscation.h"
#include "fl/message.h"
#include "fl/pipeline.h"
#include "nn/loss.h"
#include "opt/optimizers.h"
#include "store/round_store.h"
#include "tracer.h"
#include "util/error.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dinar;

// Repetitions of each replayed call (nn/opt per batch, DINAR per layer).
constexpr int kReplays = 20;

struct RoundTally {
  std::int64_t copies_lost = 0;  // ship() calls that delivered no copy
  std::int64_t quarantined = 0;  // corrupt arrivals + failed validations
  double update_coded_bytes = 0.0;
  double update_uncoded_bytes = 0.0;  // the same updates as v2 f32
  std::vector<double> shard_ms, combine_ms;
};

// run_round's configuration features this traced pass reproduces. Anything
// else (adversaries, churn, sampling, stragglers, deadlines) would make
// the traced rounds diverge from the real ones, so it is refused.
void require_replicable(const fl::SimulationConfig& cfg) {
  DINAR_CHECK(!cfg.adversaries.any() && !cfg.churn.any() && cfg.client_fraction >= 1.0 &&
                  cfg.faults.straggler_wall_seconds.empty() &&
                  cfg.round_deadline_seconds == 0.0,
              "traced run: configuration uses a run_round feature it does not "
              "reproduce");
}

// One round through the public calls FederatedSimulation::run_round makes,
// in its order and with its arguments, so the federation advances
// bit-identically — the final-hash check proves it. Differences that do
// not touch state: the broadcast is serialized at round start rather than
// prefetched during the previous round's commit, and the caller replays
// the store commit (StoreReplay).
void traced_round(fl::FederatedSimulation& sim, Tracer& tr, RoundTally& tally) {
  fl::FlServer& server = sim.server();
  fl::Transport& transport = sim.transport();
  std::vector<fl::FlClient>& clients = sim.clients();
  const fl::SimulationConfig& cfg = sim.config();
  const std::int64_t round = server.round();

  fl::FaultInjector* faults = transport.faults();
  if (faults != nullptr) {
    Tracer::Scope s(&tr, "fl.faults.begin_round");
    faults->begin_round(round);
  }
  std::vector<std::size_t> pending;
  for (const std::size_t i : sim.roster_at(round)) {
    if (faults != nullptr && faults->is_crashed(static_cast<int>(i))) {
      faults->record_crashed_contact();
    } else {
      pending.push_back(i);
    }
  }
  const std::size_t quorum =
      cfg.min_clients == 0 ? pending.size() : std::min(cfg.min_clients, pending.size());

  fl::GlobalModelMsg broadcast_msg;
  std::vector<std::uint8_t> broadcast_bytes;
  {
    Tracer::Scope s(&tr, "fl.server.broadcast");
    broadcast_msg = server.broadcast();
  }
  {
    Tracer::Scope s(&tr, "fl.codec.encode_broadcast");
    broadcast_bytes = server.serialize_broadcast(broadcast_msg);
  }
  const bool codec_active = cfg.codec.active();
  nn::FlatParams update_reference;
  const nn::FlatParams* update_ref = nullptr;
  if (cfg.codec.update.topk_fraction < 1.0) {
    Tracer::Scope s(&tr, "fl.codec.decode_broadcast");
    update_reference = fl::GlobalModelMsg::deserialize(broadcast_bytes).params;
    update_ref = &update_reference;
  }
  const std::uint64_t broadcast_uncoded =
      codec_active ? fl::v2_wire_bytes(broadcast_msg) : 0;
  {
    Tracer::Scope s(&tr, "fl.server.begin_aggregation");
    server.begin_aggregation();
  }

  std::size_t accepted = 0;
  std::unordered_set<int> accepted_ids;
  std::optional<bool> weighting;
  for (int attempt = 0; attempt <= cfg.max_retries && !pending.empty(); ++attempt) {
    if (attempt > 0) transport.add_latency(cfg.retry_backoff_seconds * attempt);
    struct Arrival {
      bool ok = false;
      fl::ModelUpdateMsg msg;
    };
    struct Exchange {
      bool got_global = false;
      std::vector<Arrival> arrivals;
      fl::ShipReceipt receipt;
      std::int64_t lost = 0;
      double coded = 0.0, uncoded = 0.0;
    };
    std::vector<Exchange> exchanges(pending.size());
    Tracer::Scope pipe(&tr, "fl.pipeline.run");
    const std::uint64_t pipe_id = pipe.id();

    const auto task = [&](std::size_t idx) {
      const std::size_t i = pending[idx];
      const int id = static_cast<int>(i);
      Exchange& ex = exchanges[idx];
      Tracer::Scope exchange_span(&tr, "fl.exchange", round, id, pipe_id);
      std::vector<std::vector<std::uint8_t>> down;
      {
        Tracer::Scope s(&tr, "fl.transport.ship_down");
        down = transport.ship(fl::LinkDir::kDown, id, broadcast_bytes, &ex.receipt);
      }
      if (codec_active)
        ex.receipt.transport.bytes_down_uncoded += down.size() * broadcast_uncoded;
      if (down.empty()) ++ex.lost;
      for (const auto& copy : down) {
        try {
          std::vector<std::uint8_t> payload;
          {
            Tracer::Scope s(&tr, "fl.transport.open");
            payload = fl::Transport::open(copy);
          }
          fl::GlobalModelMsg msg;
          {
            Tracer::Scope s(&tr, "fl.codec.decode_broadcast");
            msg = fl::GlobalModelMsg::deserialize(payload);
          }
          Tracer::Scope s(&tr, "fl.client.receive_global");
          clients[i].receive_global(msg);
          ex.got_global = true;
          break;
        } catch (const Error&) {
          // Corrupted broadcast copy: discarded, as in run_round.
        }
      }
      if (!ex.got_global) return;

      fl::ModelUpdateMsg update;
      {
        Tracer::Scope s(&tr, "fl.client.train_round");
        update = clients[i].train_round();
      }
      std::vector<std::uint8_t> bytes;
      {
        Tracer::Scope s(&tr, "fl.codec.encode_update");
        bytes = clients[i].serialize_update(update);
      }
      const std::uint64_t uncoded = fl::v2_wire_bytes(update);
      ex.coded = static_cast<double>(bytes.size());
      ex.uncoded = static_cast<double>(uncoded);
      std::vector<std::vector<std::uint8_t>> up;
      {
        Tracer::Scope s(&tr, "fl.transport.ship_up");
        up = transport.ship(fl::LinkDir::kUp, id, bytes, &ex.receipt);
      }
      if (codec_active) ex.receipt.transport.bytes_up_uncoded += up.size() * uncoded;
      if (up.empty()) ++ex.lost;
      for (const auto& copy : up) {
        Arrival arrival;
        try {
          std::vector<std::uint8_t> payload;
          {
            Tracer::Scope s(&tr, "fl.transport.open");
            payload = fl::Transport::open(copy);
          }
          Tracer::Scope s(&tr, "fl.codec.decode_update");
          arrival.msg = fl::ModelUpdateMsg::deserialize(payload, update_ref);
          arrival.ok = true;
        } catch (const Error&) {
          // Corrupt arrival: quarantined at commit, as in run_round.
        }
        ex.arrivals.push_back(std::move(arrival));
      }
    };

    std::vector<std::size_t> still_pending;
    std::int64_t last_commit_end = tr.now_ns();
    const auto commit = [&](std::size_t idx) {
      const std::size_t i = pending[idx];
      const int id = static_cast<int>(i);
      Exchange& ex = exchanges[idx];
      tr.record("fl.pipeline.commit_wait", last_commit_end, tr.now_ns(), round, id,
                pipe_id);
      {
        Tracer::Scope commit_span(&tr, "fl.pipeline.commit", round, id);
        {
          Tracer::Scope s(&tr, "fl.transport.commit");
          transport.commit(ex.receipt);
        }
        tally.copies_lost += ex.lost;
        tally.update_coded_bytes += ex.coded;
        tally.update_uncoded_bytes += ex.uncoded;
        bool update_accepted = false;
        for (Arrival& arrival : ex.arrivals) {
          if (!arrival.ok) {
            ++tally.quarantined;
            continue;
          }
          fl::UpdateVerdict verdict;
          {
            Tracer::Scope s(&tr, "fl.server.validate");
            verdict = server.validate_update(arrival.msg, accepted_ids, weighting);
          }
          if (!verdict.accepted) {
            ++tally.quarantined;
            continue;
          }
          weighting = arrival.msg.pre_weighted;
          accepted_ids.insert(arrival.msg.client_id);
          Tracer::Scope s(&tr, "fl.server.absorb");
          server.absorb_validated(arrival.msg);
          ++accepted;
          update_accepted = true;
        }
        if (!ex.got_global || !update_accepted) still_pending.push_back(i);
      }
      last_commit_end = tr.now_ns();
    };

    fl::RoundPipeline(fl::PipelineMode::kStream, &sim.execution_context())
        .run(pending.size(), task, commit);
    pending = std::move(still_pending);
    if (accepted >= quorum) break;
  }

  if (accepted > 0 && accepted >= quorum) {
    Tracer::Scope s(&tr, "fl.server.finalize");
    server.finalize_aggregation();
    tally.shard_ms.push_back(server.last_aggregate_timings().shard_seconds * 1e3);
    tally.combine_ms.push_back(server.last_aggregate_timings().combine_seconds * 1e3);
  } else {
    Tracer::Scope s(&tr, "fl.server.carry_forward");
    server.carry_forward();
  }
}

// Replays one client's training step on the workload's own model and a
// real batch: forward(train), backward, optimizer step. It runs as a pool
// task, where the simulation runs client training, so the kernels see the
// same (nested, hence inline) parallelism.
void replay_train_step(fl::FederatedSimulation& sim, Tracer& tr) {
  fl::FlClient& client = sim.clients().front();
  nn::Model model = client.model();
  model.set_execution_context(&sim.execution_context());
  auto optimizer =
      opt::make_optimizer(sim.config().optimizer, sim.config().learning_rate);
  Rng rng(sim.config().seed);
  data::BatchIterator batches(client.train_data(), sim.config().train.batch_size, rng);
  data::BatchIterator::Batch batch;
  DINAR_CHECK(batches.next(batch), "client 0 has no batch");
  sim.execution_context()
      .submit([&] {
        for (int k = 0; k < kReplays; ++k) {
          Tensor logits;
          {
            Tracer::Scope s(&tr, "nn.forward");
            logits = model.forward(batch.features, /*train=*/true);
          }
          const nn::LossResult loss = nn::softmax_cross_entropy(logits, batch.labels);
          model.zero_grad();
          {
            Tracer::Scope s(&tr, "nn.backward");
            model.backward(loss.grad_logits);
          }
          Tracer::Scope s(&tr, "opt.step");
          optimizer->step(model);
        }
      })
      .get();
}

// DINAR's two per-round operations on every parameterized layer N, as if
// N were the protected one: restore theta_N^* into the live model
// (Model::set_layer_parameters) and randomize N in the outgoing snapshot
// (obfuscate_layer_in_snapshot).
void replay_dinar_layers(fl::FederatedSimulation& sim, std::uint64_t seed, Tracer& tr) {
  nn::Model model = sim.clients().front().model();
  Rng rng(seed);
  for (std::size_t layer = 0; layer < model.num_param_layers(); ++layer) {
    const std::string suffix = ".layer" + std::to_string(layer);
    const nn::FlatParams stored = model.layer_parameters(layer);
    nn::FlatParams snapshot = model.parameters();
    for (int k = 0; k < kReplays; ++k) {
      {
        Tracer::Scope s(&tr, "core.dinar.restore" + suffix);
        model.set_layer_parameters(layer, stored);
      }
      Tracer::Scope s(&tr, "core.dinar.obfuscate" + suffix);
      core::obfuscate_layer_in_snapshot(model, snapshot, layer, rng);
    }
  }
}

// RoundStore's side of the durable run, which run_round keeps private,
// replayed on payloads of the sizes that run wrote: inside each round a WAL
// append, and a snapshot every `snapshot_every` rounds; after the rounds, a
// recovery scan.
class StoreReplay {
 public:
  StoreReplay(const UntracedFacts& facts, int snapshot_every, std::string dir)
      : facts_(facts), snapshot_every_(snapshot_every), dir_(std::move(dir)) {
    std::filesystem::remove_all(dir_);
    store_.emplace(dir_);
  }
  StoreReplay(const StoreReplay&) = delete;
  StoreReplay& operator=(const StoreReplay&) = delete;
  ~StoreReplay() {
    store_.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }

  void commit_round(int r, Tracer& tr) {
    const bool snapshot_round = (r + 1) % snapshot_every_ == 0;
    // A snapshot round's record is compacted away before the run could
    // measure it; it is taken to be the size of its predecessor.
    if (!snapshot_round && next_record_ < facts_.wal_record_bytes.size())
      record_bytes_ = facts_.wal_record_bytes[next_record_++];
    const std::vector<std::uint8_t> record(record_bytes_, static_cast<std::uint8_t>(r));
    {
      Tracer::Scope s(&tr, "store.append");
      store_->append(record);
    }
    if (snapshot_round && next_snapshot_ < facts_.snapshot_bytes.size()) {
      const std::vector<std::uint8_t> snap(facts_.snapshot_bytes[next_snapshot_++], 0x5A);
      Tracer::Scope s(&tr, "store.snapshot");
      store_->install_snapshot(r + 1, snap);
    }
  }

  // Returns the number of WAL records the scan hands back for replay.
  std::size_t recover(Tracer& tr) {
    Tracer::Scope s(&tr, "store.recover");
    return store_->recover().wal_records.size();
  }

 private:
  const UntracedFacts& facts_;
  int snapshot_every_;
  std::string dir_;
  std::optional<store::RoundStore> store_;
  std::size_t next_record_ = 0, next_snapshot_ = 0;
  std::uint64_t record_bytes_ = 0;
};

}  // namespace

void traced_run(const std::string& workload, std::uint64_t seed, int rounds,
                const UntracedFacts& facts, const std::string& work_dir,
                const std::string& trace_path, Report& report) {
  const WorkloadSpec spec = workload_spec(workload);
  Tracer tr;
  std::optional<Inputs> in;
  std::optional<fl::FederatedSimulation> sim;
  {
    Tracer::Scope s(&tr, "setup");
    in.emplace(make_inputs(workload, seed, &tr));
    Tracer::Scope c(&tr, "fl.simulation.construct");
    sim.emplace(in->model_factory, in->split, in->config, make_bundle(*in, &tr));
  }
  require_replicable(in->config);

  std::optional<StoreReplay> store;
  if (spec.durable) store.emplace(facts, spec.snapshot_every, work_dir + "/trace-store");
  RoundTally tally;
  std::vector<double> round_ms;
  for (int r = 0; r < rounds; ++r) {
    const std::int64_t t0 = tr.now_ns();
    {
      Tracer::Scope s(&tr, "fl.round", r);
      traced_round(*sim, tr, tally);
      if (store) store->commit_round(r, tr);
    }
    round_ms.push_back(static_cast<double>(tr.now_ns() - t0) / 1e6);
    Tracer::Scope s(&tr, "fl.eval", r);
    sim->evaluate_now();
  }
  const std::string hash = params_hash(sim->server().global_params());
  report.check("traced_hash_equals_untraced", hash == facts.final_hash,
               "traced " + hash + " vs untraced " + facts.final_hash);
  report.final_hash = facts.final_hash;

  replay_train_step(*sim, tr);
  replay_dinar_layers(*sim, in->obfuscation_seed, tr);
  const std::size_t replayed = store ? store->recover(tr) : 0;
  store.reset();
  tr.write_chrome_trace(trace_path);

  // ---- reduce the spans to per-layer metrics ------------------------------
  const std::vector<Span> spans = tr.spans();
  const std::map<std::uint64_t, double> self = self_ms(spans);
  std::map<std::string, std::vector<double>> dur, self_by_name;
  for (const Span& s : spans) {
    dur[s.name].push_back(s.ms());
    self_by_name[s.name].push_back(self.at(s.id));
  }
  const auto span_median = [&](const std::string& metric, const std::string& span,
                               double scale, const std::string& unit,
                               bool use_self = false) {
    const std::vector<double>& v = use_self ? self_by_name[span] : dur[span];
    report.set(metric, v.empty() ? 0.0 : median(v) * scale, unit,
               static_cast<std::int64_t>(v.size()));
  };
  const auto count = [&](const std::string& metric, double value) {
    report.set(metric, value, "count", rounds);
  };

  span_median("data.generate_s", "data.generate", 1e-3, "s");
  span_median("core.dinar_init_s", "core.dinar_init", 1e-3, "s");
  span_median("core.dinar.on_download_ms", "core.dinar.on_download", 1.0, "ms");
  span_median("core.dinar.before_upload_ms", "core.dinar.before_upload", 1.0, "ms");
  for (std::size_t layer = 0; layer < sim->clients().front().model().num_param_layers();
       ++layer) {
    const std::string n = ".layer" + std::to_string(layer);
    span_median("core.dinar.restore_us" + n, "core.dinar.restore" + n, 1e3, "us");
    span_median("core.dinar.obfuscate_us" + n, "core.dinar.obfuscate" + n, 1e3, "us");
  }
  span_median("nn.forward_ms", "nn.forward", 1.0, "ms");
  span_median("nn.backward_ms", "nn.backward", 1.0, "ms");
  span_median("opt.step_ms", "opt.step", 1.0, "ms");
  span_median("fl.client.receive_global_ms", "fl.client.receive_global", 1.0, "ms");
  span_median("fl.client.train_round_ms", "fl.client.train_round", 1.0, "ms", true);
  span_median("fl.codec.encode_broadcast_ms", "fl.codec.encode_broadcast", 1.0, "ms");
  span_median("fl.codec.decode_broadcast_ms", "fl.codec.decode_broadcast", 1.0, "ms");
  span_median("fl.codec.encode_update_ms", "fl.codec.encode_update", 1.0, "ms");
  span_median("fl.codec.decode_update_ms", "fl.codec.decode_update", 1.0, "ms");
  {
    std::ostringstream note;
    note << tally.update_uncoded_bytes << " B as v2 f32 / " << tally.update_coded_bytes
         << " B coded";
    report.set("fl.codec.update_ratio",
               tally.update_coded_bytes > 0.0
                   ? tally.update_uncoded_bytes / tally.update_coded_bytes
                   : 1.0,
               "x", static_cast<std::int64_t>(dur["fl.codec.encode_update"].size()),
               note.str());
  }
  span_median("fl.transport.ship_down_ms", "fl.transport.ship_down", 1.0, "ms");
  span_median("fl.transport.ship_up_ms", "fl.transport.ship_up", 1.0, "ms");
  count("fl.transport.copies_lost", static_cast<double>(tally.copies_lost));
  const fl::TransportStats& w = sim->transport().stats();
  count("net.frames_tx", static_cast<double>(w.socket_frames_tx));
  count("net.bytes_tx", static_cast<double>(w.socket_bytes_tx));
  count("net.reconnects", static_cast<double>(w.socket_reconnects));
  count("net.evictions", static_cast<double>(w.socket_evictions));
  count("net.queue_drops", static_cast<double>(w.socket_queue_drops));
  count("net.protocol_errors", static_cast<double>(w.socket_protocol_errors));
  span_median("fl.server.validate_ms", "fl.server.validate", 1.0, "ms");
  span_median("fl.server.absorb_ms", "fl.server.absorb", 1.0, "ms");
  span_median("fl.server.finalize_ms", "fl.server.finalize", 1.0, "ms");
  report.set("fl.server.shard_ms", median(tally.shard_ms), "ms",
             static_cast<std::int64_t>(tally.shard_ms.size()));
  report.set("fl.server.combine_ms", median(tally.combine_ms), "ms",
             static_cast<std::int64_t>(tally.combine_ms.size()));
  count("fl.server.quarantined", static_cast<double>(tally.quarantined));
  span_median("fl.eval_ms", "fl.eval", 1.0, "ms");

  // Pipeline: per round, the coordinator's summed waits for the next
  // in-order exchange, and the share of pool-worker time inside the
  // pipeline with no exchange running.
  using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;
  // Exchange intervals by pipeline span, then by worker thread.
  std::map<std::uint64_t, std::map<std::uint32_t, Intervals>> exchanges_of;
  std::map<std::int64_t, double> wait_of_round;
  for (const Span& s : spans) {
    if (s.name == "fl.exchange")
      exchanges_of[s.parent][s.thread].emplace_back(s.start_ns, s.end_ns);
    if (s.name == "fl.pipeline.commit_wait") wait_of_round[s.round] += s.ms();
  }
  const double workers = static_cast<double>(sim->execution_context().threads());
  double capacity_ns = 0.0, busy_ns = 0.0;
  for (const Span& s : spans) {
    if (s.name != "fl.pipeline.run") continue;
    capacity_ns += workers * static_cast<double>(s.end_ns - s.start_ns);
    for (const auto& [thread, ivs] : exchanges_of[s.id])
      busy_ns += static_cast<double>(union_ns(ivs, s.start_ns, s.end_ns));
  }
  report.set("fl.pipeline.worker_idle_share",
             capacity_ns > 0.0 ? std::max(0.0, 1.0 - busy_ns / capacity_ns) : 0.0,
             "fraction", static_cast<std::int64_t>(dur["fl.pipeline.run"].size()));
  std::vector<double> waits;
  for (const auto& [round, ms] : wait_of_round) waits.push_back(ms);
  report.set("fl.pipeline.commit_wait_ms", median(waits), "ms",
             static_cast<std::int64_t>(waits.size()));

  span_median("store.append_ms", "store.append", 1.0, "ms");
  span_median("store.snapshot_ms", "store.snapshot", 1.0, "ms");
  span_median("store.recover_ms", "store.recover", 1.0, "ms");
  const std::vector<double> record_bytes(facts.wal_record_bytes.begin(),
                                         facts.wal_record_bytes.end());
  const std::vector<double> snapshot_bytes(facts.snapshot_bytes.begin(),
                                           facts.snapshot_bytes.end());
  report.set("store.append_bytes", median(record_bytes), "B",
             static_cast<std::int64_t>(record_bytes.size()));
  report.set("store.snapshot_bytes", median(snapshot_bytes), "B",
             static_cast<std::int64_t>(snapshot_bytes.size()));
  count("store.records_replayed", static_cast<double>(replayed));

  const double traced_p50 = median(round_ms);
  report.set("trace.overhead_ratio",
             facts.round_p50_ms > 0.0 ? traced_p50 / facts.round_p50_ms - 1.0 : 0.0,
             "ratio", static_cast<std::int64_t>(round_ms.size()),
             "traced round p50 " + std::to_string(traced_p50) + " ms over untraced " +
                 std::to_string(facts.round_p50_ms) + " ms, minus 1");
}

}  // namespace perfbench
