// Cross-module property tests: invariants that must hold for arbitrary
// (seeded-random) inputs, swept with parameterized gtest.
#include <gtest/gtest.h>

#include <cmath>

#include "core/consensus.h"
#include "core/dinar.h"
#include "fl/simulation.h"
#include "test_helpers.h"
#include "util/error.h"

namespace dinar {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

// ---------------------------------------------------- FedAvg invariants --

class FedAvgPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(FedAvgPropertyTest, AggregatingIdenticalModelsIsIdentity) {
  const int clients = GetParam();
  Rng rng(static_cast<std::uint64_t>(clients) * 11);
  std::vector<Tensor> raw;
  raw.push_back(Tensor::gaussian({7, 3}, rng));
  raw.push_back(Tensor::gaussian({3}, rng));
  const nn::FlatParams model = nn::FlatParams::from_tensors(raw);

  std::vector<fl::ModelUpdateMsg> updates(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    updates[static_cast<std::size_t>(c)].client_id = c;
    updates[static_cast<std::size_t>(c)].num_samples = 10 + 3 * c;  // any weights
    updates[static_cast<std::size_t>(c)].params = model;
  }
  fl::FlServer server(model, std::make_unique<fl::NoServerDefense>());
  server.aggregate(updates);
  for (std::size_t j = 0; j < model.as_span().size(); ++j)
    EXPECT_NEAR(server.global_params().as_span()[j], model.as_span()[j], 1e-5);
}

TEST_P(FedAvgPropertyTest, AggregateIsWithinClientEnvelope) {
  // Each coordinate of the FedAvg result lies between the min and max of
  // the clients' values (convex combination).
  const int clients = GetParam();
  Rng rng(static_cast<std::uint64_t>(clients) * 13);
  std::vector<fl::ModelUpdateMsg> updates(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    updates[static_cast<std::size_t>(c)].client_id = c;
    updates[static_cast<std::size_t>(c)].num_samples = 1 + c;
    updates[static_cast<std::size_t>(c)].params =
        nn::FlatParams::from_tensors({Tensor::gaussian({50}, rng)});
  }
  fl::FlServer server(nn::FlatParams::from_tensors({Tensor({50})}),
                      std::make_unique<fl::NoServerDefense>());
  server.aggregate(updates);
  for (std::size_t j = 0; j < 50; ++j) {
    float lo = updates[0].params.as_span()[j], hi = lo;
    for (const auto& u : updates) {
      lo = std::min(lo, u.params.as_span()[j]);
      hi = std::max(hi, u.params.as_span()[j]);
    }
    EXPECT_GE(server.global_params().as_span()[j], lo - 1e-6);
    EXPECT_LE(server.global_params().as_span()[j], hi + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(ClientCounts, FedAvgPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 9));

// --------------------------------------------- DINAR round-trip property --

class DinarRoundsPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DinarRoundsPropertyTest, PrivateLayerNeverLeavesTheClient) {
  // Across any number of rounds, the parameters of the protected layer in
  // every upload must differ from the client's live private layer, and the
  // live layer must never equal the (obfuscated) aggregate's layer.
  const int rounds = GetParam();
  Rng rng(77);
  data::Dataset full = make_easy_dataset(300, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 3;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  fl::SimulationConfig cfg;
  cfg.rounds = rounds;
  cfg.train = fl::TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  fl::FederatedSimulation sim(tiny_mlp_factory(2, 2), split, cfg,
                              core::make_dinar_bundle({1}));
  for (int r = 0; r < rounds; ++r) {
    sim.run_round();
    for (std::size_t i = 0; i < sim.clients().size(); ++i) {
      nn::Model uploaded = sim.server_view_of_client(i);
      nn::FlatParams up = uploaded.layer_parameters(1);
      nn::FlatParams live = sim.clients()[i].model().layer_parameters(1);
      bool any_diff = false;
      for (std::size_t j = 0; j < up.entry_span(0).size(); ++j)
        if (up.entry_span(0)[j] != live.entry_span(0)[j]) any_diff = true;
      EXPECT_TRUE(any_diff) << "round " << r << " client " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RoundCounts, DinarRoundsPropertyTest,
                         ::testing::Values(1, 2, 4));

// ----------------------------------------------- transport byte accuracy --

TEST(TransportPropertyTest, ByteCountMatchesSerializedPayloads) {
  Rng rng(88);
  data::Dataset full = make_easy_dataset(200, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 2;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  fl::SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.train = fl::TrainConfig{1, 32};
  fl::FederatedSimulation sim(tiny_mlp_factory(2, 2), split, cfg,
                              fl::DefenseBundle{});
  sim.run();

  // Downlink: rounds x clients identical broadcast payloads.
  const std::size_t broadcast_size = sim.server().broadcast().serialize().size();
  EXPECT_EQ(sim.transport().stats().bytes_down, 2u * 2u * broadcast_size);
  // Uplink payload of an update the server kept must match its serialization.
  nn::Model view = sim.server_view_of_client(0);
  fl::ModelUpdateMsg msg;
  msg.client_id = 0;
  msg.num_samples = sim.clients()[0].num_samples();
  msg.params = view.parameters();
  EXPECT_EQ(sim.transport().stats().bytes_up, 2u * 2u * msg.serialize().size());
  // The default codec is lossless, so no raw-f32 baseline is accounted.
  EXPECT_EQ(sim.transport().stats().bytes_up_uncoded, 0u);
  EXPECT_EQ(sim.transport().stats().bytes_down_uncoded, 0u);
}

// ------------------------------------------------ consensus determinism --

class ConsensusDeterminismTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConsensusDeterminismTest, SameSeedSameOutcome) {
  const std::uint64_t seed = GetParam();
  std::vector<std::size_t> proposals{3, 3, 1, 3, 2, 3, 0};
  std::vector<bool> byzantine{false, true, false, false, true, false, false};
  Rng r1(seed), r2(seed);
  const core::ConsensusResult a =
      core::run_layer_consensus(proposals, byzantine, 5, r1);
  const core::ConsensusResult b =
      core::run_layer_consensus(proposals, byzantine, 5, r2);
  EXPECT_EQ(a.agreed_layer, b.agreed_layer);
  EXPECT_EQ(a.node_decisions, b.node_decisions);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConsensusDeterminismTest,
                         ::testing::Values(1u, 42u, 1234u, 99999u));

// -------------------------------------------------- model copy semantics --

TEST(ModelPropertyTest, CopiedModelsDivergeIndependently) {
  Rng rng(99);
  nn::Model a = dinar::testing::make_tiny_mlp(2, 2, rng);
  nn::Model b = a;
  data::Dataset d = make_easy_dataset(64, rng);

  auto opt_a = opt::make_optimizer("sgd", 0.1);
  Rng ta(1);
  fl::train_local(a, d, *opt_a, fl::TrainConfig{2, 32}, ta);

  // b untouched by a's training.
  Rng check(2);
  nn::Model fresh = dinar::testing::make_tiny_mlp(2, 2, check);
  (void)fresh;
  nn::FlatParams pa = a.parameters(), pb = b.parameters();
  bool diverged = false;
  for (std::size_t j = 0; j < pa.as_span().size(); ++j)
    if (pa.as_span()[j] != pb.as_span()[j]) diverged = true;
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace dinar
