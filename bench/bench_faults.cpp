// Robustness sweep: the fault-tolerant round protocol under client
// dropout, mirroring Figure 9's client-count axis (Purchase100). For each
// client count we raise the message-drop rate and report final accuracy
// plus the protocol's repair work (retries, carried-forward rounds,
// quarantined updates). The paper's federation assumes reliable clients;
// this bench measures how far quorum aggregation stretches that assumption
// before utility degrades.
//
// `--smoke` swaps in the small synthetic case and a 2x2 sweep so CI can
// exercise the full bench path in seconds; `--threads N` sizes the
// simulation's execution context (results are identical, only faster). Either way the sweep is also
// written to BENCH_FAULTS.json for machine consumption.
//
// The second section benchmarks crash recovery: after a kill at `delta`
// rounds past the last durable point, the store-less resume path reloads
// the full state saved at that point and *re-executes* the lost rounds
// (re-training included), while the durable round store replays `delta`
// O(changed-state) WAL records on top of its snapshot — bit-identical by
// construction. Rows go to BENCH_RECOVERY.json; the gate (enforced in
// every mode, so the smoke run guards CI) requires bit-identical recovery
// on every row and WAL replay beating re-execution at the largest delta.
#include <chrono>
#include <filesystem>

#include "store/io.h"
#include "store/round_store.h"
#include "util/error.h"
#include "harness/experiment.h"

namespace dinar::bench {
namespace {

struct SweepResult {
  double accuracy = 0.0;
  int carried_forward = 0;
  int retries = 0;
  std::size_t quarantined = 0;
};

SweepResult run_faulty(const DatasetCase& spec, double drop_rate,
                       unsigned threads) {
  Rng rng(spec.seed);
  const data::Dataset full = spec.make_data(rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = spec.num_clients;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  fl::SimulationConfig cfg;
  cfg.rounds = spec.rounds;
  cfg.train = fl::TrainConfig{spec.local_epochs, spec.batch_size};
  cfg.learning_rate = spec.learning_rate;
  cfg.seed = spec.seed + 7;
  cfg.faults.drop_up = drop_rate;
  cfg.faults.drop_down = drop_rate;
  cfg.faults.corrupt_up = drop_rate > 0.0 ? 0.02 : 0.0;
  cfg.min_clients = static_cast<std::size_t>(std::max(1, spec.num_clients / 3));
  cfg.max_retries = 2;
  cfg.exec.threads = threads;

  fl::FederatedSimulation sim(spec.model_factory, std::move(split), cfg,
                              fl::DefenseBundle{});
  sim.run();

  SweepResult out;
  out.accuracy = sim.history().back().global_test_accuracy;
  for (const fl::RoundOutcome& round : sim.round_log()) {
    out.carried_forward += round.carried_forward ? 1 : 0;
    out.retries += round.retries_used;
    out.quarantined += round.quarantined.size();
  }
  return out;
}

// -- crash-recovery benchmark ------------------------------------------------

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

fl::FederatedSimulation make_recovery_sim(const DatasetCase& spec, int rounds,
                                          unsigned threads) {
  Rng rng(spec.seed);
  const data::Dataset full = spec.make_data(rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = spec.num_clients;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  fl::SimulationConfig cfg;
  cfg.rounds = rounds;
  cfg.train = fl::TrainConfig{spec.local_epochs, spec.batch_size};
  cfg.learning_rate = spec.learning_rate;
  cfg.seed = spec.seed + 13;
  cfg.faults.drop_up = 0.1;  // outcome-rich WAL records (retries, losses)
  cfg.min_clients = static_cast<std::size_t>(std::max(1, spec.num_clients / 3));
  cfg.max_retries = 2;
  cfg.exec.threads = threads;
  return fl::FederatedSimulation(spec.model_factory, std::move(split), cfg,
                                 fl::DefenseBundle{});
}

std::vector<std::uint8_t> full_state_bytes(const fl::FederatedSimulation& sim) {
  BinaryWriter w;
  sim.save_full_state(w);
  return w.take();
}

// One row: kill `delta` rounds past the last snapshot, then recover both
// ways. Returns false if the gate fails. Bit-identical recovery is required
// for every row; `require_speedup` additionally demands replay beat the
// re-execution path — asserted only at the largest delta, where replay's
// fixed snapshot-load cost is amortised (at delta=1 on the smoke-sized model
// the snapshot load alone can exceed one round of re-training).
bool run_recovery_row(const DatasetCase& spec, int delta, bool require_speedup,
                      unsigned threads, BenchJson& json) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() / "dinar_bench_recovery").string();
  fs::remove_all(dir);
  // One snapshot at round `delta + 1`, then `delta` WAL-only rounds.
  const int snapshot_every = delta + 1;
  const int rounds = snapshot_every + delta;
  // The kill lands mid-run: configure one more round than we execute so
  // recovery does not treat the resume point as the finished run (which
  // would trigger the final-eval recompute the writer never reached).
  const int config_rounds = rounds + 1;
  const std::string ckpt = dir + "/state.bin";

  std::vector<std::uint8_t> reference;
  std::uint64_t wal_bytes = 0;
  {
    store::RoundStore store(dir + "/store");
    fl::FederatedSimulation sim = make_recovery_sim(spec, config_rounds, threads);
    sim.attach_store(&store, snapshot_every);
    for (int r = 0; r < rounds; ++r) {
      sim.run_round();
      // The store-less resume path saves the full state at the same
      // durable point the snapshot captures.
      if (r + 1 == snapshot_every) store::atomic_write_file(ckpt, full_state_bytes(sim));
    }
    reference = full_state_bytes(sim);
    wal_bytes = store.wal_size_bytes();
  }  // the writer "dies" here; everything below starts from disk

  // O(delta) path: snapshot + WAL replay, bit-identical.
  store::RoundStore store(dir + "/store");
  fl::FederatedSimulation replayed = make_recovery_sim(spec, config_rounds, threads);
  replayed.attach_store(&store, snapshot_every);
  const auto t0 = std::chrono::steady_clock::now();
  replayed.recover_from_store();
  const double replay_s = seconds_since(t0);
  const std::vector<std::uint8_t> recovered = full_state_bytes(replayed);
  const bool bit_identical = recovered == reference;
  if (!bit_identical) {
    std::size_t diff = 0;
    while (diff < std::min(recovered.size(), reference.size()) &&
           recovered[diff] == reference[diff])
      ++diff;
    std::printf("  [diverged: sizes %zu vs %zu, first difference at byte %zu]\n",
                recovered.size(), reference.size(), diff);
  }

  // Full-reload path: load the saved state, re-execute the lost rounds
  // (local training and all).
  fl::FederatedSimulation reloaded = make_recovery_sim(spec, config_rounds, threads);
  const auto t1 = std::chrono::steady_clock::now();
  const auto saved = store::read_file(ckpt);
  DINAR_CHECK(saved.has_value(), "no saved state at " << ckpt);
  BinaryReader saved_reader(*saved);
  reloaded.restore_full_state(saved_reader);
  for (int r = 0; r < delta; ++r) reloaded.run_round();
  const double rerun_s = seconds_since(t1);

  print_table_row(std::to_string(delta),
                  {1e3 * replay_s, 1e3 * rerun_s, rerun_s / replay_s,
                   static_cast<double>(wal_bytes) / 1024.0,
                   bit_identical ? 1.0 : 0.0});
  json.begin_row()
      .field("case", spec.name)
      .field("delta_rounds", static_cast<std::int64_t>(delta))
      .field("wal_replay_seconds", replay_s)
      .field("full_reload_rerun_seconds", rerun_s)
      .field("speedup", rerun_s / replay_s)
      .field("wal_bytes", static_cast<std::int64_t>(wal_bytes))
      .field("bit_identical", static_cast<std::int64_t>(bit_identical ? 1 : 0));
  fs::remove_all(dir);
  return bit_identical && (!require_speedup || replay_s < rerun_s);
}

int run(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  const bool smoke = parse_flag(argc, argv, "--smoke");
  const unsigned threads = parse_threads(argc, argv);
  print_header("Fault tolerance — dropout sweep over FL client counts "
               "(Purchase100)",
               "robustness companion to Figure 9, §5.9");

  const std::vector<int> client_counts = smoke ? std::vector<int>{5}
                                               : std::vector<int>{5, 10, 15, 20};
  const std::vector<double> drop_rates =
      smoke ? std::vector<double>{0.0, 0.3}
            : std::vector<double>{0.0, 0.1, 0.3, 0.5};

  BenchJson json("faults");
  print_table_header("clients", {"drop%", "acc%", "carried", "retries",
                                 "quarantined"});
  for (int clients : client_counts) {
    for (double drop : drop_rates) {
      DatasetCase spec =
          smoke ? small_mlp_case(scale) : get_case("purchase100", scale);
      spec.num_clients = clients;
      const SweepResult r = run_faulty(spec, drop, threads);
      print_table_row(std::to_string(clients),
                      {100.0 * drop, 100.0 * r.accuracy,
                       static_cast<double>(r.carried_forward),
                       static_cast<double>(r.retries),
                       static_cast<double>(r.quarantined)});
      json.begin_row()
          .field("case", spec.name)
          .field("clients", static_cast<std::int64_t>(clients))
          .field("drop_rate", drop)
          .field("accuracy", r.accuracy)
          .field("carried_forward", static_cast<std::int64_t>(r.carried_forward))
          .field("retries", static_cast<std::int64_t>(r.retries))
          .field("quarantined", static_cast<std::int64_t>(r.quarantined));
    }
  }
  std::printf("\nexpected: accuracy holds near the zero-drop baseline while a "
              "quorum still forms each round; carried-forward rounds appear "
              "only once drop+crash outpaces min_clients (= clients/3).\n");
  json.write();

  // ---- crash recovery: full-reload re-execution vs O(delta) WAL replay ----
  print_header("Crash recovery — resume cost at delta rounds past the last "
               "durable point",
               "durable round store; recovery is bit-identical by contract");
  BenchJson recovery_json("recovery");
  print_table_header("delta", {"replay ms", "rerun ms", "speedup", "wal KiB",
                               "identical"});
  const std::vector<int> deltas =
      smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4, 8};
  bool gate_ok = true;
  for (int delta : deltas) {
    const DatasetCase spec =
        smoke ? small_mlp_case(scale) : get_case("purchase100", scale);
    const bool require_speedup = delta == deltas.back();
    if (!run_recovery_row(spec, delta, require_speedup, threads, recovery_json))
      gate_ok = false;
  }
  std::printf("\nexpected: WAL replay deserializes the lost rounds' deltas "
              "instead of re-training them, so the speedup grows with delta; "
              "the recovered state is bit-identical to the pre-kill run.\n");
  recovery_json.write();
  if (!gate_ok) {
    std::printf("GATE FAILED: recovery must be bit-identical on every row and "
                "WAL replay must beat full-reload re-execution at the largest "
                "delta\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dinar::bench

int main(int argc, char** argv) { return dinar::bench::run(argc, argv); }
