// Crash-matrix driver: kills a durable simulation at every crashpoint and
// asserts bit-identical recovery.
//
// The binary re-executes itself in two roles:
//
//   crash_matrix --run <dir>     victim/recovery role: builds a small but
//                                fully-featured simulation (DINAR defense,
//                                fault injection, a Byzantine client, robust
//                                aggregation, periodic eval), attaches a
//                                RoundStore at <dir>/store, recovers whatever
//                                the store holds, runs the remaining rounds,
//                                and writes the final full state to
//                                <dir>/final.bin. With DINAR_CRASHPOINT set
//                                the process dies mid-durability-protocol via
//                                _exit (no unwinding, no flushes — the moral
//                                equivalent of kill -9).
//
//   crash_matrix [work_dir]      orchestrator: runs one uninterrupted
//                                reference, then for every registered
//                                crashpoint x hit-count {1, 2} kills a fresh
//                                run at that point, restarts it to recover,
//                                and byte-compares its final.bin against the
//                                reference. Any divergence — model arenas,
//                                round log, quarantine reasons, stats — fails
//                                the cell. Exit 0 iff every cell passes.
//
// Hit count 2 moves the same crash site to a later round (and, for snapshot
// sites, to a different WAL/snapshot interleaving), so each site is exercised
// at more than one protocol state.
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/dinar.h"
#include "data/synthetic.h"
#include "fl/simulation.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "store/io.h"
#include "store/round_store.h"
#include "util/crashpoint.h"
#include "util/error.h"

namespace {

namespace fs = std::filesystem;
using namespace dinar;

constexpr int kRounds = 6;
constexpr int kSnapshotEvery = 2;

data::FlSplit make_split() {
  Rng rng(91);
  data::TabularSpec spec;
  spec.num_samples = 400;
  spec.num_features = 8;
  spec.num_classes = 4;
  spec.label_noise = 0.1;
  data::Dataset full = data::make_tabular(spec, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = 4;
  return data::make_fl_split(full, cfg, rng);
}

nn::ModelFactory make_factory() {
  return [](Rng& rng) {
    nn::Model m;
    m.add(std::make_unique<nn::Dense>(8, 16, rng))
        .add(std::make_unique<nn::Tanh>())
        .add(std::make_unique<nn::Dense>(16, 4, rng));
    return m;
  };
}

// A configuration that routes every durable code path: transport faults
// (drops, corruption -> quarantines, retries), a crashed client, a sleeper
// Byzantine client under a robust aggregator, DINAR obfuscation (defense
// state in the WAL), quorum + carry-forward pressure, and periodic eval.
fl::SimulationConfig make_config() {
  fl::SimulationConfig cfg;
  cfg.rounds = kRounds;
  cfg.train = fl::TrainConfig{/*epochs=*/1, /*batch_size=*/32};
  cfg.seed = 4242;
  cfg.eval_every = 2;
  cfg.faults.drop_up = 0.10;
  cfg.faults.corrupt_up = 0.10;
  cfg.faults.crash_at_round = {{2, 4}};
  cfg.min_clients = 2;
  cfg.max_retries = 2;
  cfg.robust.method = "median";
  cfg.adversaries.attackers = {{3, fl::AttackType::kSignFlip}};
  cfg.adversaries.active_from_round = 3;
  return cfg;
}

fl::FederatedSimulation make_sim() {
  return fl::FederatedSimulation(make_factory(), make_split(), make_config(),
                                 core::make_dinar_bundle({1}));
}

// Victim/recovery role: recover whatever the store holds, finish the run,
// dump the final full state.
int run_once(const std::string& dir) {
  store::RoundStore store(dir + "/store");
  fl::FederatedSimulation sim = make_sim();
  sim.attach_store(&store, kSnapshotEvery);
  sim.recover_from_store();
  sim.run();
  BinaryWriter w;
  sim.save_full_state(w);
  store::atomic_write_file(dir + "/final.bin", w.buffer());
  return 0;
}

std::vector<std::uint8_t> must_read(const std::string& path) {
  const auto bytes = store::read_file(path);
  DINAR_CHECK(bytes.has_value(), "missing " << path);
  return *bytes;
}

int spawn(const std::string& self, const std::string& dir,
          const std::string& crashpoint) {
  std::string cmd;
  if (!crashpoint.empty()) cmd += "DINAR_CRASHPOINT='" + crashpoint + "' ";
  cmd += "'" + self + "' --run '" + dir + "' > '" + dir + "/log.txt' 2>&1";
  const int status = std::system(cmd.c_str());
  if (status < 0) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

int orchestrate(const std::string& self, const std::string& work) {
  fs::remove_all(work);
  fs::create_directories(work);

  const std::string ref_dir = work + "/reference";
  fs::create_directories(ref_dir);
  if (spawn(self, ref_dir, "") != 0) {
    std::fprintf(stderr, "FAIL: reference run did not complete (see %s/log.txt)\n",
                 ref_dir.c_str());
    return 1;
  }
  const std::vector<std::uint8_t> reference = must_read(ref_dir + "/final.bin");
  std::printf("reference run: %zu state bytes\n", reference.size());

  int failures = 0, cells = 0, fired = 0;
  for (const std::string& site : crashpoint_registry()) {
    for (int hit = 1; hit <= 2; ++hit) {
      ++cells;
      const std::string label = site + ":" + std::to_string(hit);
      const std::string dir = work + "/cell-" + std::to_string(cells);
      fs::create_directories(dir);

      const int victim = spawn(self, dir, label);
      if (victim != 0 && victim != kCrashpointExitCode) {
        std::printf("FAIL %-32s victim exited %d (want 0 or %d)\n", label.c_str(),
                    victim, kCrashpointExitCode);
        ++failures;
        continue;
      }
      if (victim == kCrashpointExitCode) ++fired;

      // Restart without the crashpoint: recover + finish. Runs even when
      // the victim completed (hit count never reached) — recovery of a
      // finished store must be an idempotent no-op.
      if (spawn(self, dir, "") != 0) {
        std::printf("FAIL %-32s recovery run did not complete\n", label.c_str());
        ++failures;
        continue;
      }
      const std::vector<std::uint8_t> got = must_read(dir + "/final.bin");
      if (got != reference) {
        std::printf("FAIL %-32s recovered state differs from reference (%zu vs %zu bytes)\n",
                    label.c_str(), got.size(), reference.size());
        ++failures;
        continue;
      }
      std::printf("ok   %-32s %s\n", label.c_str(),
                  victim == kCrashpointExitCode ? "killed + recovered bit-identical"
                                                : "crashpoint not reached; idempotent");
      fs::remove_all(dir);  // keep the work dir small; failures stay on disk
    }
  }

  std::printf("crash matrix: %d/%d cells passed, %d kills exercised\n",
              cells - failures, cells, fired);
  if (fired == 0) {
    std::fprintf(stderr, "FAIL: no crashpoint ever fired — matrix is vacuous\n");
    return 1;
  }
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 3 && std::string(argv[1]) == "--run") return run_once(argv[2]);
    const std::string work = argc >= 2 ? argv[1] : "crash_matrix_work";
    const std::string self = fs::canonical("/proc/self/exe").string();
    return orchestrate(self, work);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "crash_matrix: %s\n", e.what());
    return 1;
  }
}
