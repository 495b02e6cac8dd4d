// Tests for the extension features: loss-threshold MIA, FL client
// sampling, and obfuscation strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "attack/threshold_mia.h"
#include "core/dinar.h"
#include "core/obfuscation.h"
#include "fl/simulation.h"
#include "opt/optimizers.h"
#include "test_helpers.h"
#include "util/error.h"

namespace dinar {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::make_tiny_tabular;
using dinar::testing::make_wide_mlp;
using dinar::testing::tiny_mlp_factory;
using dinar::testing::wide_mlp_factory;

// ----------------------------------------------------------- threshold MIA --

TEST(ThresholdMiaTest, OverfitModelLeaks) {
  Rng rng(1);
  data::Dataset full = make_tiny_tabular(500, 8, rng);
  data::Dataset members = full.take(150);
  data::Dataset non_members = full.drop(350);

  Rng train_rng(2);
  nn::Model target = make_wide_mlp(32, 8, train_rng);
  auto opt = opt::make_optimizer("adagrad", 1e-2);
  fl::train_local(target, members, *opt, fl::TrainConfig{40, 32}, train_rng);

  const attack::ThresholdAttackResult r =
      attack::loss_threshold_attack(target, members, non_members);
  EXPECT_GT(r.auc, 0.6);
  EXPECT_LT(r.mean_member_loss, r.mean_non_member_loss);
  EXPECT_GT(r.accuracy_at_threshold, 0.55);
}

TEST(ThresholdMiaTest, FreshModelDoesNotLeak) {
  Rng rng(3);
  data::Dataset full = make_tiny_tabular(400, 8, rng);
  nn::Model target = make_wide_mlp(32, 8, rng);
  const attack::ThresholdAttackResult r =
      attack::loss_threshold_attack(target, full.take(150), full.drop(250));
  EXPECT_NEAR(r.auc, 0.5, 0.1);
}

TEST(ThresholdMiaTest, EmptyPoolsRejected) {
  Rng rng(4);
  nn::Model target = make_wide_mlp(32, 8, rng);
  data::Dataset d = make_tiny_tabular(50, 8, rng);
  EXPECT_THROW(attack::loss_threshold_attack(target, {}, d), Error);
  EXPECT_THROW(attack::loss_threshold_attack(target, d, {}), Error);
}

// --------------------------------------------------------- client sampling --

data::FlSplit sampling_split(std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = make_easy_dataset(600, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = 4;
  return data::make_fl_split(full, cfg, rng);
}

TEST(ClientSamplingTest, SelectsRequestedFraction) {
  fl::SimulationConfig cfg;
  cfg.rounds = 1;
  cfg.train = fl::TrainConfig{1, 32};
  cfg.client_fraction = 0.5;
  fl::FederatedSimulation sim(tiny_mlp_factory(2, 2), sampling_split(20), cfg,
                              fl::DefenseBundle{});
  sim.run_round();
  EXPECT_EQ(sim.last_participants().size(), 2u);
  EXPECT_EQ(sim.transport().stats().messages_up, 2u);
}

TEST(ClientSamplingTest, ParticipantsVaryAcrossRounds) {
  fl::SimulationConfig cfg;
  cfg.rounds = 8;
  cfg.train = fl::TrainConfig{1, 32};
  cfg.client_fraction = 0.5;
  fl::FederatedSimulation sim(tiny_mlp_factory(2, 2), sampling_split(21), cfg,
                              fl::DefenseBundle{});
  std::set<std::size_t> seen;
  for (int r = 0; r < 8; ++r) {
    sim.run_round();
    for (std::size_t i : sim.last_participants()) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 4u);  // every client participates eventually
}

TEST(ClientSamplingTest, StillLearnsWithPartialParticipation) {
  fl::SimulationConfig cfg;
  cfg.rounds = 12;
  cfg.train = fl::TrainConfig{2, 32};
  cfg.learning_rate = 0.05;
  cfg.client_fraction = 0.5;
  fl::FederatedSimulation sim(tiny_mlp_factory(2, 2), sampling_split(22), cfg,
                              fl::DefenseBundle{});
  sim.run();
  EXPECT_GT(sim.history().back().global_test_accuracy, 0.8);
}

TEST(ClientSamplingTest, NonParticipantViewRejected) {
  fl::SimulationConfig cfg;
  cfg.rounds = 1;
  cfg.train = fl::TrainConfig{1, 32};
  cfg.client_fraction = 0.25;  // exactly one of four
  fl::FederatedSimulation sim(tiny_mlp_factory(2, 2), sampling_split(23), cfg,
                              fl::DefenseBundle{});
  sim.run_round();
  const std::size_t participant = sim.last_participants().front();
  EXPECT_NO_THROW(sim.server_view_of_client(participant));
  for (std::size_t i = 0; i < 4; ++i) {
    if (i == participant) continue;
    EXPECT_THROW(sim.server_view_of_client(i), Error);
  }
}

// --------------------------------------------------- obfuscation strategies --

TEST(ObfuscationStrategyTest, ZerosZeroes) {
  Rng init(30);
  Tensor t = Tensor::gaussian({100}, init);
  Rng rng(31);
  core::obfuscate_span_with(t.values(), core::ObfuscationStrategy::kZeros, rng);
  EXPECT_EQ(t.squared_l2_norm(), 0.0);
}

TEST(ObfuscationStrategyTest, LargeGaussianHasUnitScale) {
  Tensor t({20000});
  Rng rng(32);
  core::obfuscate_span_with(t.values(), core::ObfuscationStrategy::kLargeGaussian, rng);
  EXPECT_NEAR(std::sqrt(t.squared_l2_norm() / 20000.0), 1.0, 0.05);
}

TEST(ObfuscationStrategyTest, DefaultMatchesScaledUniform) {
  Rng init(33);
  Tensor a = Tensor::gaussian({500}, init, 0.05f);
  Tensor b = a;
  Rng r1(34), r2(34);
  core::obfuscate_span(a.values(), r1);
  core::obfuscate_span_with(b.values(), core::ObfuscationStrategy::kScaledUniform, r2);
  for (std::int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), b.at(i));
}

TEST(ObfuscationStrategyTest, AllStrategiesProtectInFl) {
  Rng rng(35);
  data::Dataset full = make_tiny_tabular(600, 8, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 3;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  for (core::ObfuscationStrategy strategy :
       {core::ObfuscationStrategy::kScaledUniform, core::ObfuscationStrategy::kZeros,
        core::ObfuscationStrategy::kLargeGaussian}) {
    fl::SimulationConfig cfg;
    cfg.rounds = 3;
    cfg.train = fl::TrainConfig{2, 32};
    cfg.learning_rate = 1e-2;
    fl::FederatedSimulation sim(wide_mlp_factory(32, 8), split, cfg,
                                core::make_dinar_bundle({2}, 99, strategy));
    sim.run();
    // Uploaded layer 2 differs from the client's live layer under every
    // strategy (the private layer never leaves the device).
    nn::Model view = sim.server_view_of_client(0);
    nn::FlatParams uploaded = view.layer_parameters(2);
    nn::FlatParams live = sim.clients()[0].model().layer_parameters(2);
    bool identical = true;
    for (std::size_t j = 0; j < uploaded.entry_span(0).size(); ++j)
      if (uploaded.entry_span(0)[j] != live.entry_span(0)[j]) identical = false;
    EXPECT_FALSE(identical);
  }
}

}  // namespace
}  // namespace dinar
