#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fl/simulation.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/execution_context.h"

namespace dinar::fl {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::make_tiny_mlp;
using dinar::testing::tiny_mlp_factory;

nn::FlatParams small_params(Rng& rng) {
  std::vector<Tensor> p;
  p.push_back(Tensor::gaussian({3, 2}, rng));
  p.push_back(Tensor::gaussian({2}, rng));
  return nn::FlatParams::from_tensors(p);
}

// Single-tensor flat parameters for hand-computed server arithmetic.
nn::FlatParams one_tensor(const Tensor& t) {
  return nn::FlatParams::from_tensors({t});
}

// --------------------------------------------------------------- messages --

TEST(MessageTest, GlobalModelRoundTrip) {
  Rng rng(1);
  GlobalModelMsg msg;
  msg.round = 12;
  msg.params = small_params(rng);
  const auto bytes = msg.serialize();
  GlobalModelMsg back = GlobalModelMsg::deserialize(bytes);
  EXPECT_EQ(back.round, 12);
  ASSERT_TRUE(back.params.same_layout(msg.params));
  EXPECT_EQ(back.params.entry_span(0)[3], msg.params.entry_span(0)[3]);
}

TEST(MessageTest, ModelUpdateRoundTrip) {
  Rng rng(2);
  ModelUpdateMsg msg;
  msg.client_id = 3;
  msg.round = 7;
  msg.num_samples = 480;
  msg.pre_weighted = true;
  msg.params = small_params(rng);
  ModelUpdateMsg back = ModelUpdateMsg::deserialize(msg.serialize());
  EXPECT_EQ(back.client_id, 3);
  EXPECT_EQ(back.round, 7);
  EXPECT_EQ(back.num_samples, 480);
  EXPECT_TRUE(back.pre_weighted);
  EXPECT_EQ(back.params.entry_span(1)[0], msg.params.entry_span(1)[0]);
}

TEST(MessageTest, WrongMagicRejected) {
  Rng rng(3);
  GlobalModelMsg g;
  g.params = small_params(rng);
  const auto bytes = g.serialize();
  EXPECT_THROW(ModelUpdateMsg::deserialize(bytes), Error);
}

TEST(MessageTest, TruncatedPayloadRejected) {
  Rng rng(4);
  GlobalModelMsg g;
  g.params = small_params(rng);
  auto bytes = g.serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_THROW(GlobalModelMsg::deserialize(bytes), Error);
}

TEST(MessageTest, TruncationErrorNamesOffendingField) {
  Rng rng(4);
  GlobalModelMsg g;
  g.round = 3;
  g.params = small_params(rng);
  auto bytes = g.serialize();

  // Cut inside the round field (header: magic 4 + kind 1 + version 4 +
  // decoded size 8, then round 8).
  auto mid_round = bytes;
  mid_round.resize(19);
  try {
    GlobalModelMsg::deserialize(mid_round);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'round'"), std::string::npos) << e.what();
  }

  // Cut inside the parameter list.
  auto mid_params = bytes;
  mid_params.resize(bytes.size() / 2);
  try {
    GlobalModelMsg::deserialize(mid_params);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("'params'"), std::string::npos) << e.what();
  }
}

TEST(MessageTest, TrailingBytesRejected) {
  Rng rng(5);
  ModelUpdateMsg msg;
  msg.client_id = 1;
  msg.num_samples = 10;
  msg.params = small_params(rng);
  auto bytes = msg.serialize();
  bytes.push_back(0x00);
  try {
    ModelUpdateMsg::deserialize(bytes);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("trailing bytes"), std::string::npos)
        << e.what();
  }
}

// -------------------------------------------------------------- transport --

TEST(TransportTest, CountsBytesAndMessages) {
  Transport t;
  const std::vector<std::uint8_t> payload(100, 0xAB);
  const auto up = t.ship(LinkDir::kUp, 0, payload);
  const auto down = t.ship(LinkDir::kDown, 0, payload);
  ASSERT_EQ(up.size(), 1u);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(Transport::open(up[0]), payload);
  EXPECT_EQ(Transport::open(down[0]), payload);
  EXPECT_EQ(t.stats().messages_up, 1u);
  EXPECT_EQ(t.stats().messages_down, 1u);
  EXPECT_EQ(t.stats().bytes_up, 100u);
  EXPECT_EQ(t.stats().bytes_down, 100u);
  t.reset_stats();
  EXPECT_EQ(t.stats().bytes_up, 0u);
}

TEST(TransportTest, ShipAdvancesLatencyClockOnlyByDelayFaults) {
  // Fault-free, and under every fault except delay: bytes cost no time.
  Transport plain;
  Transport faulty;
  FaultConfig lossy;
  lossy.drop_down = 0.5;
  lossy.duplicate_up = 1.0;
  lossy.corrupt_up = 0.5;
  faulty.enable_faults(lossy);
  for (Transport* t : {&plain, &faulty}) {
    for (int client = 0; client < 8; ++client) {
      t->ship(LinkDir::kUp, client, std::vector<std::uint8_t>(4096, 0));
      t->ship(LinkDir::kDown, client, std::vector<std::uint8_t>(4096, 0));
    }
    EXPECT_GT(t->stats().bytes_up, 0u);
    EXPECT_EQ(t->stats().simulated_latency_seconds, 0.0);
  }

  // A delay fault is what moves the clock, by exactly the injected delay.
  Transport delayed;
  FaultConfig delay;
  delay.delay_prob = 1.0;
  delay.delay_max_seconds = 0.5;
  delayed.enable_faults(delay);
  delayed.ship(LinkDir::kUp, 0, std::vector<std::uint8_t>(4096, 0));
  EXPECT_GT(delayed.stats().simulated_latency_seconds, 0.0);
  EXPECT_EQ(delayed.stats().simulated_latency_seconds,
            delayed.faults()->stats().injected_delay_seconds);
}

TEST(TransportTest, ResetStatsClearsEveryCounter) {
  Transport t;
  t.ship(LinkDir::kUp, 0, std::vector<std::uint8_t>(64, 0));
  t.ship(LinkDir::kDown, 0, std::vector<std::uint8_t>(64, 0));
  t.add_latency(1.0);
  t.reset_stats();
  const TransportStats& s = t.stats();
  EXPECT_EQ(s.messages_up, 0u);
  EXPECT_EQ(s.messages_down, 0u);
  EXPECT_EQ(s.bytes_up, 0u);
  EXPECT_EQ(s.bytes_down, 0u);
  EXPECT_EQ(s.frame_bytes_up, 0u);
  EXPECT_EQ(s.frame_bytes_down, 0u);
  EXPECT_EQ(s.simulated_latency_seconds, 0.0);
}

TEST(TransportTest, UplinkAndDownlinkAccountSymmetrically) {
  Transport t;
  const std::vector<std::uint8_t> payload(321, 0x5C);
  for (int i = 0; i < 2; ++i) {
    t.ship(LinkDir::kUp, 0, payload);
    t.ship(LinkDir::kDown, 0, payload);
  }
  const TransportStats& s = t.stats();
  EXPECT_EQ(s.bytes_up, s.bytes_down);
  EXPECT_EQ(s.messages_up, s.messages_down);
  EXPECT_EQ(s.frame_bytes_up, s.frame_bytes_down);
  EXPECT_GT(s.frame_bytes_up, 0u);
  EXPECT_EQ(s.bytes_up, 2u * payload.size());  // frames excluded from payload count
}

// ---------------------------------------------------------------- trainer --

TEST(TrainerTest, ReducesLossOnEasyData) {
  Rng rng(5);
  nn::Model model = make_tiny_mlp(2, 2, rng);
  data::Dataset d = make_easy_dataset(256, rng);
  auto opt = opt::make_optimizer("adagrad", 0.05);
  Rng train_rng(6);
  const EvalStats before = evaluate(model, d);
  TrainConfig cfg{/*epochs=*/5, /*batch_size=*/32};
  TrainStats stats = train_local(model, d, *opt, cfg, train_rng);
  const EvalStats after = evaluate(model, d);
  EXPECT_LT(after.mean_loss, before.mean_loss);
  EXPECT_GT(after.accuracy, 0.9);
  EXPECT_EQ(stats.steps, 5 * 8);
}

TEST(TrainerTest, EmptyDatasetThrows) {
  Rng rng(7);
  nn::Model model = make_tiny_mlp(2, 2, rng);
  auto opt = opt::make_optimizer("sgd", 0.1);
  data::Dataset empty;
  Rng train_rng(8);
  EXPECT_THROW(train_local(model, empty, *opt, TrainConfig{}, train_rng), Error);
}

TEST(TrainerTest, EvaluateMatchesManualLoss) {
  Rng rng(9);
  nn::Model model = make_tiny_mlp(2, 2, rng);
  data::Dataset d = make_easy_dataset(64, rng);
  const EvalStats stats = evaluate(model, d);
  EXPECT_GT(stats.mean_loss, 0.0);
  EXPECT_GE(stats.accuracy, 0.0);
  EXPECT_LE(stats.accuracy, 1.0);
}

// ----------------------------------------------------------------- server --

TEST(ServerTest, FedAvgIsWeightedMean) {
  FlServer server(one_tensor(Tensor({2}, {0.0f, 0.0f})),
                  std::make_unique<NoServerDefense>());

  ModelUpdateMsg a, b;
  a.client_id = 0;
  a.num_samples = 1;
  a.params = one_tensor(Tensor({2}, {1.0f, 2.0f}));
  b.client_id = 1;
  b.num_samples = 3;
  b.params = one_tensor(Tensor({2}, {5.0f, 6.0f}));

  const std::vector<ModelUpdateMsg> cohort{a, b};
  server.aggregate(cohort);
  // (1*1 + 3*5)/4 = 4, (1*2 + 3*6)/4 = 5.
  EXPECT_NEAR(server.global_params().as_span()[0], 4.0f, 1e-6);
  EXPECT_NEAR(server.global_params().as_span()[1], 5.0f, 1e-6);
  EXPECT_EQ(server.round(), 1);
}

TEST(ServerTest, PreWeightedSumDividedByTotalWeight) {
  FlServer server(one_tensor(Tensor({1}, {0.0f})),
                  std::make_unique<NoServerDefense>());

  ModelUpdateMsg a, b;
  a.num_samples = 2;
  a.pre_weighted = true;
  a.params = one_tensor(Tensor({1}, {8.0f}));  // = 2 * 4
  b.num_samples = 2;
  b.pre_weighted = true;
  b.params = one_tensor(Tensor({1}, {4.0f}));  // = 2 * 2
  const std::vector<ModelUpdateMsg> cohort{a, b};
  server.aggregate(cohort);
  EXPECT_NEAR(server.global_params().as_span()[0], 3.0f, 1e-6);
}

TEST(ServerTest, MixedWeightConventionRejected) {
  FlServer server(one_tensor(Tensor({1})), std::make_unique<NoServerDefense>());
  ModelUpdateMsg a, b;
  a.num_samples = b.num_samples = 1;
  a.params = one_tensor(Tensor({1}));
  b.params = one_tensor(Tensor({1}));
  b.pre_weighted = true;
  const std::vector<ModelUpdateMsg> cohort{a, b};
  EXPECT_THROW(server.aggregate(cohort), Error);
}

TEST(ServerTest, StructureMismatchRejected) {
  FlServer server(one_tensor(Tensor({2})), std::make_unique<NoServerDefense>());
  ModelUpdateMsg a;
  a.num_samples = 1;
  a.params = one_tensor(Tensor({3}));
  const std::vector<ModelUpdateMsg> cohort{a};
  EXPECT_THROW(server.aggregate(cohort), Error);
}

TEST(ServerTest, EmptyAggregationRejected) {
  FlServer server(one_tensor(Tensor({1})), std::make_unique<NoServerDefense>());
  EXPECT_THROW(server.aggregate(std::span<const ModelUpdateMsg>{}), Error);
}

TEST(ServerTest, BroadcastCarriesRound) {
  FlServer server(one_tensor(Tensor({1})), std::make_unique<NoServerDefense>());
  EXPECT_EQ(server.broadcast().round, 0);
  ModelUpdateMsg a;
  a.num_samples = 1;
  a.params = one_tensor(Tensor({1}));
  const std::vector<ModelUpdateMsg> cohort{a};
  server.aggregate(cohort);
  EXPECT_EQ(server.broadcast().round, 1);
}

// The strict batch entry and the hardened validate-then-absorb path run
// the same session, so they must agree bit for bit under every strategy,
// shard count and thread count.
TEST(ServerTest, StrictAndHardenedPathsAgreeBitwise) {
  Rng rng(17);
  const nn::FlatParams global = small_params(rng);
  std::vector<ModelUpdateMsg> cohort;
  for (int c = 0; c < 9; ++c) {
    ModelUpdateMsg u;
    u.client_id = c;
    u.num_samples = 3 + c % 4;
    u.params = global;
    for (float& v : u.params.as_span())
      v += 0.1f * static_cast<float>(rng.gaussian(0.0, 1.0));
    cohort.push_back(std::move(u));
  }
  ExecConfig ec;
  ec.threads = 4;
  const ExecutionContext pool(ec);
  const std::vector<const ExecutionContext*> contexts{nullptr, &pool};

  for (const std::string& method : robust_aggregator_names())
    for (const std::size_t shards : {std::size_t{1}, std::size_t{3}})
      for (const ExecutionContext* exec : contexts) {
        const std::string label = method + " / " + std::to_string(shards) +
                                  " shards / " + (exec ? "4 threads" : "no context");
        RobustConfig rc;
        rc.method = method;
        rc.assumed_byzantine = 1;
        ShardConfig sc;
        sc.num_shards = shards;
        sc.assignment_seed = 5;
        auto make_server = [&] {
          auto server = std::make_unique<FlServer>(global,
                                                   std::make_unique<NoServerDefense>());
          server->set_aggregator(make_robust_aggregator(rc));
          server->set_shards(sc);
          server->set_execution_context(exec);
          return server;
        };
        const auto strict = make_server();
        const auto hardened = make_server();
        strict->aggregate(cohort);
        ASSERT_TRUE(
            dinar::testing::validate_and_aggregate(*hardened, cohort, 1).aggregated)
            << label;

        EXPECT_EQ(strict->round(), 1) << label;
        EXPECT_EQ(hardened->round(), 1) << label;
        const std::span<const float> a = strict->global_params().as_span();
        const std::span<const float> b = hardened->global_params().as_span();
        ASSERT_EQ(a.size(), b.size()) << label;
        EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0) << label;
        ASSERT_EQ(strict->last_shard_stats().size(), shards) << label;
        ASSERT_EQ(hardened->last_shard_stats().size(), shards) << label;
        for (std::size_t i = 0; i < shards; ++i) {
          const ShardStats& x = strict->last_shard_stats()[i];
          const ShardStats& y = hardened->last_shard_stats()[i];
          EXPECT_EQ(x.num_updates, y.num_updates) << label;
          EXPECT_EQ(x.num_accepted, y.num_accepted) << label;
          EXPECT_EQ(x.num_flagged, y.num_flagged) << label;
          EXPECT_EQ(x.weight, y.weight) << label;
          EXPECT_EQ(x.median_norm, y.median_norm) << label;
        }
      }
}

TEST(ServerTest, ThrowingAggregateLeavesTheRoundUnadvanced) {
  const nn::FlatParams global = one_tensor(Tensor({1}, {0.5f}));
  FlServer server(global, std::make_unique<NoServerDefense>());
  ModelUpdateMsg a, b;
  a.client_id = 0;
  b.client_id = 1;
  a.num_samples = b.num_samples = 1;
  a.params = one_tensor(Tensor({1}, {1.0f}));
  b.params = one_tensor(Tensor({1}, {3.0f}));
  b.pre_weighted = true;
  const std::vector<ModelUpdateMsg> mixed{a, b};
  EXPECT_THROW(server.aggregate(mixed), Error);
  EXPECT_EQ(server.round(), 0);
  EXPECT_EQ(server.global_params().as_span()[0], 0.5f);

  // No session was left open: the next valid aggregate runs.
  b.pre_weighted = false;
  const std::vector<ModelUpdateMsg> valid{a, b};
  server.aggregate(valid);
  EXPECT_EQ(server.round(), 1);
  EXPECT_EQ(server.global_params().as_span()[0], 2.0f);
}

// ------------------------------------------------------------- simulation --

data::FlSplit easy_split(int clients, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = make_easy_dataset(n, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = clients;
  return data::make_fl_split(full, cfg, rng);
}

TEST(SimulationTest, LearnsEasyTask) {
  SimulationConfig cfg;
  cfg.rounds = 8;
  cfg.train = TrainConfig{2, 32};
  cfg.learning_rate = 0.05;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(3, 600, 20), cfg,
                          DefenseBundle{});
  sim.run();
  ASSERT_FALSE(sim.history().empty());
  EXPECT_GT(sim.history().back().global_test_accuracy, 0.85);
  EXPECT_GT(sim.history().back().personalized_test_accuracy, 0.85);
}

TEST(SimulationTest, DeterministicForSameSeed) {
  SimulationConfig cfg;
  cfg.rounds = 3;
  cfg.train = TrainConfig{1, 32};
  cfg.seed = 77;
  FederatedSimulation a(tiny_mlp_factory(2, 2), easy_split(2, 200, 21), cfg,
                        DefenseBundle{});
  FederatedSimulation b(tiny_mlp_factory(2, 2), easy_split(2, 200, 21), cfg,
                        DefenseBundle{});
  a.run();
  b.run();
  const nn::FlatParams& pa = a.server().global_params();
  const nn::FlatParams& pb = b.server().global_params();
  ASSERT_EQ(pa.numel(), pb.numel());
  for (std::size_t j = 0; j < pa.as_span().size(); ++j)
    EXPECT_EQ(pa.as_span()[j], pb.as_span()[j]);
}

TEST(SimulationTest, TransportSeesTrafficEveryRound) {
  SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.train = TrainConfig{1, 32};
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(3, 200, 22), cfg,
                          DefenseBundle{});
  sim.run();
  // Per round: 3 downlinks + 3 uplinks.
  EXPECT_EQ(sim.transport().stats().messages_down, 6u);
  EXPECT_EQ(sim.transport().stats().messages_up, 6u);
  EXPECT_GT(sim.transport().stats().bytes_up, 0u);
}

TEST(SimulationTest, ServerViewMatchesUploadedParams) {
  SimulationConfig cfg;
  cfg.rounds = 1;
  cfg.train = TrainConfig{1, 32};
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(2, 200, 23), cfg,
                          DefenseBundle{});
  sim.run();
  // With no defense, the server's view of a client equals the client model.
  nn::Model view = sim.server_view_of_client(0);
  nn::FlatParams vp = view.parameters();
  nn::FlatParams cp = sim.clients()[0].model().parameters();
  ASSERT_EQ(vp.numel(), cp.numel());
  for (std::size_t j = 0; j < vp.as_span().size(); ++j)
    EXPECT_EQ(vp.as_span()[j], cp.as_span()[j]);
}

TEST(SimulationTest, EvalEveryRecordsHistory) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 32};
  cfg.eval_every = 2;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(2, 200, 24), cfg,
                          DefenseBundle{});
  sim.run();
  EXPECT_EQ(sim.history().size(), 2u);  // rounds 2 and 4 (final included once)
}

TEST(SimulationTest, TimersAccumulate) {
  SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.train = TrainConfig{1, 32};
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(2, 200, 25), cfg,
                          DefenseBundle{});
  sim.run();
  EXPECT_GT(sim.mean_client_train_seconds(), 0.0);
  EXPECT_GT(sim.server_aggregation_seconds(), 0.0);
}

}  // namespace
}  // namespace dinar::fl
