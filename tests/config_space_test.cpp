// Every fault and robust-aggregation setting the simulation accepts has an
// observable effect.
//
// A setting that validates but changes nothing is a dead option: it widens
// the configuration space every property test must cover and tells its
// user something false. Each case below sets one field on its own in a
// small federation (3 rounds, 4 clients, tiny MLP) and requires the run's
// deterministic record to differ from the run without it:
//  - fault settings: TransportStats, FaultStats and the round log;
//  - robust hyperparameters: the round log (aggregator flags) and the
//    final global model, with one sign-flip attacker present.
// FaultConfig::straggler_wall_seconds is the one exception: it sleeps real
// time and is documented to change no recorded value (the pipeline tests'
// bit-identity checks pin that).
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "fl/durable.h"
#include "fl/simulation.h"
#include "test_helpers.h"

namespace dinar::fl {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

struct Setting {
  std::string name;
  std::function<void(SimulationConfig&)> apply;
};

SimulationConfig small_federation() {
  SimulationConfig cfg;
  cfg.rounds = 3;
  cfg.train = TrainConfig{1, 16};
  cfg.learning_rate = 5e-2;
  cfg.seed = 31;
  cfg.min_clients = 1;
  return cfg;
}

// The run's deterministic record: transport and fault counters, every
// round's outcome (timings excluded) and the final global model.
std::vector<std::uint8_t> run_record(const SimulationConfig& cfg) {
  Rng rng(77);
  data::Dataset full = make_easy_dataset(240, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 4;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), data::make_fl_split(full, split_cfg, rng),
                          cfg, DefenseBundle{});
  sim.run();

  BinaryWriter w;
  write_transport_stats(w, sim.transport().stats());
  const FaultInjector* faults = sim.transport().faults();
  write_fault_stats(w, faults != nullptr ? faults->stats() : FaultStats{});
  for (const RoundOutcome& o : sim.round_log()) write_round_outcome(w, o);
  const std::span<const float> global = sim.server().global_params().as_span();
  w.write_f32_span(global.data(), global.size());
  return w.take();
}

TEST(ConfigSpaceTest, EveryFaultSettingChangesTheRunRecord) {
  const SimulationConfig base = small_federation();
  const std::vector<std::uint8_t> fault_free = run_record(base);

  const std::vector<Setting> settings = {
      {"drop_up", [](SimulationConfig& c) { c.faults.drop_up = 0.5; }},
      {"drop_down", [](SimulationConfig& c) { c.faults.drop_down = 0.5; }},
      {"duplicate_up", [](SimulationConfig& c) { c.faults.duplicate_up = 0.5; }},
      {"duplicate_down", [](SimulationConfig& c) { c.faults.duplicate_down = 0.5; }},
      {"corrupt_up", [](SimulationConfig& c) { c.faults.corrupt_up = 0.5; }},
      {"corrupt_down", [](SimulationConfig& c) { c.faults.corrupt_down = 0.5; }},
      {"delay_prob + delay_max_seconds",
       [](SimulationConfig& c) {
         c.faults.delay_prob = 0.5;
         c.faults.delay_max_seconds = 0.25;
       }},
      {"crash_at_round", [](SimulationConfig& c) { c.faults.crash_at_round[1] = 1; }},
  };
  for (const Setting& s : settings) {
    SimulationConfig cfg = base;
    s.apply(cfg);
    EXPECT_NE(run_record(cfg), fault_free) << "faults." << s.name << " has no effect";
  }

  // The seed matters once a fault can fire: it picks which messages do.
  SimulationConfig lossy = base;
  lossy.faults.drop_up = 0.5;
  SimulationConfig reseeded = lossy;
  reseeded.faults.seed ^= 0x5EED;
  EXPECT_NE(run_record(reseeded), run_record(lossy)) << "faults.seed has no effect";
}

TEST(ConfigSpaceTest, EveryRobustHyperparameterChangesItsStrategy) {
  SimulationConfig base = small_federation();
  base.adversaries.attackers[2] = AttackType::kSignFlip;

  struct Case {
    std::string method;
    Setting setting;
  };
  const std::vector<Case> cases = {
      {"trimmed_mean",
       {"trim_fraction", [](SimulationConfig& c) { c.robust.trim_fraction = 0.4; }}},
      {"median",
       {"outlier_threshold", [](SimulationConfig& c) { c.robust.outlier_threshold = 1.0; }}},
      {"trimmed_mean",
       {"outlier_threshold", [](SimulationConfig& c) { c.robust.outlier_threshold = 1.0; }}},
      {"norm_clip",
       {"clip_multiplier", [](SimulationConfig& c) { c.robust.clip_multiplier = 0.5; }}},
      {"krum",
       {"assumed_byzantine", [](SimulationConfig& c) { c.robust.assumed_byzantine = 1; }}},
      {"multi_krum",
       {"assumed_byzantine", [](SimulationConfig& c) { c.robust.assumed_byzantine = 1; }}},
  };
  for (const Case& k : cases) {
    SimulationConfig defaults = base;
    defaults.robust.method = k.method;
    SimulationConfig changed = defaults;
    k.setting.apply(changed);
    EXPECT_NE(run_record(changed), run_record(defaults))
        << "robust." << k.setting.name << " has no effect on " << k.method;
  }
}

}  // namespace
}  // namespace dinar::fl
