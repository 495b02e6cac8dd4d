// Fault-injection framework + fault-tolerant round protocol tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "fl/simulation.h"
#include "store/io.h"
#include "test_helpers.h"
#include "util/error.h"

namespace dinar::fl {
namespace {

using dinar::testing::HardenedRound;
using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;
using dinar::testing::validate_and_aggregate;

data::FlSplit easy_split(int clients, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = make_easy_dataset(n, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = clients;
  return data::make_fl_split(full, cfg, rng);
}

// ---------------------------------------------------------- fault injector --

TEST(FaultInjectorTest, NoFaultsDeliversOneIntactCopy) {
  FaultInjector inj(FaultConfig{});
  const std::vector<std::uint8_t> payload{1, 2, 3, 4};
  FaultedDelivery d = inj.apply(LinkDir::kUp, /*client_id=*/0, payload);
  ASSERT_EQ(d.copies.size(), 1u);
  EXPECT_EQ(d.copies[0], payload);
  EXPECT_EQ(d.extra_delay_seconds, 0.0);
}

TEST(FaultInjectorTest, CertainDropDeliversNothing) {
  FaultConfig cfg;
  cfg.drop_up = 1.0;
  FaultInjector inj(cfg);
  EXPECT_TRUE(inj.apply(LinkDir::kUp, /*client_id=*/0, {1, 2, 3}).copies.empty());
  // The downlink direction is independent.
  EXPECT_EQ(inj.apply(LinkDir::kDown, /*client_id=*/0, {1, 2, 3}).copies.size(), 1u);
  EXPECT_EQ(inj.stats().drops_up, 1u);
  EXPECT_EQ(inj.stats().drops_down, 0u);
}

TEST(FaultInjectorTest, CertainDuplicationDeliversTwoCopies) {
  FaultConfig cfg;
  cfg.duplicate_down = 1.0;
  FaultInjector inj(cfg);
  const std::vector<std::uint8_t> payload{9, 9, 9};
  FaultedDelivery d = inj.apply(LinkDir::kDown, /*client_id=*/0, payload);
  ASSERT_EQ(d.copies.size(), 2u);
  EXPECT_EQ(d.copies[0], payload);
  EXPECT_EQ(d.copies[1], payload);
  EXPECT_EQ(inj.stats().duplicates_down, 1u);
}

TEST(FaultInjectorTest, CertainCorruptionChangesBytes) {
  FaultConfig cfg;
  cfg.corrupt_up = 1.0;
  FaultInjector inj(cfg);
  const std::vector<std::uint8_t> payload(64, 0x55);
  FaultedDelivery d = inj.apply(LinkDir::kUp, /*client_id=*/0, payload);
  ASSERT_EQ(d.copies.size(), 1u);
  EXPECT_NE(d.copies[0], payload);
  EXPECT_EQ(d.copies[0].size(), payload.size());
  EXPECT_EQ(inj.stats().corruptions_up, 1u);
}

TEST(FaultInjectorTest, CrashScheduleIsPermanentFromitsRound) {
  FaultConfig cfg;
  cfg.crash_at_round[3] = 2;
  FaultInjector inj(cfg);
  inj.begin_round(0);
  EXPECT_FALSE(inj.is_crashed(3));
  inj.begin_round(2);
  EXPECT_TRUE(inj.is_crashed(3));
  inj.begin_round(7);
  EXPECT_TRUE(inj.is_crashed(3));
  EXPECT_FALSE(inj.is_crashed(0));
}

TEST(FaultInjectorTest, PerRoundStreamIsDeterministic) {
  FaultConfig cfg;
  cfg.drop_up = 0.5;
  cfg.corrupt_up = 0.3;
  cfg.seed = 99;
  FaultInjector a(cfg), b(cfg);
  // b burns unrelated draws in round 1, then both replay round 2: the fate
  // sequences must match because the stream is forked from (seed, round).
  b.begin_round(1);
  for (int i = 0; i < 17; ++i) b.apply(LinkDir::kUp, /*client_id=*/0, {1, 2, 3, 4});
  a.begin_round(2);
  b.begin_round(2);
  for (int i = 0; i < 32; ++i) {
    FaultedDelivery da = a.apply(LinkDir::kUp, /*client_id=*/0, {1, 2, 3, 4});
    FaultedDelivery db = b.apply(LinkDir::kUp, /*client_id=*/0, {1, 2, 3, 4});
    EXPECT_EQ(da.copies, db.copies);
  }
}

TEST(FaultInjectorTest, RejectsBadProbabilities) {
  FaultConfig cfg;
  cfg.drop_up = 1.5;
  EXPECT_THROW(FaultInjector{cfg}, Error);
}

// ------------------------------------------------------------ frame + ship --

TEST(TransportFrameTest, RoundTripPreservesPayload) {
  const std::vector<std::uint8_t> payload{0, 1, 2, 250, 251, 252};
  EXPECT_EQ(Transport::open(Transport::frame(payload)), payload);
  EXPECT_EQ(Transport::open(Transport::frame({})), std::vector<std::uint8_t>{});
}

TEST(TransportFrameTest, AnySingleByteFlipIsDetected) {
  const std::vector<std::uint8_t> payload{7, 7, 7, 7, 7, 7, 7, 7};
  const std::vector<std::uint8_t> framed = Transport::frame(payload);
  for (std::size_t pos = 0; pos < framed.size(); ++pos) {
    std::vector<std::uint8_t> bad = framed;
    bad[pos] ^= 0xFF;
    EXPECT_THROW(Transport::open(bad), Error) << "flip at byte " << pos;
  }
}

TEST(TransportFrameTest, TruncatedFrameRejected) {
  std::vector<std::uint8_t> framed = Transport::frame({1, 2, 3});
  framed.resize(framed.size() - 1);
  EXPECT_THROW(Transport::open(framed), Error);
  framed.resize(4);
  EXPECT_THROW(Transport::open(framed), Error);
}

TEST(TransportShipTest, FaultFreeShipDeliversOneOpenableCopy) {
  Transport t;
  const std::vector<std::uint8_t> payload(100, 0xAB);
  auto copies = t.ship(LinkDir::kUp, 0, payload);
  ASSERT_EQ(copies.size(), 1u);
  EXPECT_EQ(Transport::open(copies[0]), payload);
  // Payload and frame overhead are accounted separately.
  EXPECT_EQ(t.stats().messages_up, 1u);
  EXPECT_EQ(t.stats().bytes_up, 100u);
  EXPECT_EQ(t.stats().frame_bytes_up, copies[0].size() - 100u);
}

TEST(TransportShipTest, DropsAndDuplicatesAreAccounted) {
  Transport t;
  FaultConfig cfg;
  cfg.drop_up = 1.0;
  cfg.duplicate_down = 1.0;
  t.enable_faults(cfg);
  EXPECT_TRUE(t.ship(LinkDir::kUp, 0, {1, 2, 3}).empty());
  EXPECT_EQ(t.ship(LinkDir::kDown, 0, {1, 2, 3}).size(), 2u);
  EXPECT_EQ(t.stats().messages_up, 0u);    // dropped copies never arrive
  EXPECT_EQ(t.stats().messages_down, 2u);  // the duplicate is real traffic
  EXPECT_EQ(t.faults()->stats().drops_up, 1u);
  EXPECT_EQ(t.faults()->stats().duplicates_down, 1u);
}

// --------------------------------------------------------- server hardening --

nn::FlatParams unit_params(float value = 0.0f) {
  return nn::FlatParams::from_tensors({Tensor({2}, {value, value})});
}

ModelUpdateMsg make_update(int client, float value, std::int64_t samples = 1) {
  ModelUpdateMsg u;
  u.client_id = client;
  u.num_samples = samples;
  u.params = unit_params(value);
  return u;
}

TEST(ServerValidationTest, RejectsEachFaultClassWithNamedReason) {
  FlServer server(unit_params(), std::make_unique<NoServerDefense>());
  const std::unordered_set<int> none;

  ModelUpdateMsg wrong_round = make_update(1, 1.0f);
  wrong_round.round = 5;
  UpdateVerdict v = server.validate_update(wrong_round, none, std::nullopt);
  EXPECT_FALSE(v.accepted);
  EXPECT_EQ(v.reason, RejectReason::kWrongRound);
  EXPECT_NE(v.detail.find("round"), std::string::npos);

  ModelUpdateMsg dup = make_update(3, 1.0f);
  v = server.validate_update(dup, {3}, std::nullopt);
  EXPECT_EQ(v.reason, RejectReason::kDuplicateClient);

  ModelUpdateMsg bad_shape = make_update(1, 1.0f);
  {
    bad_shape.params = nn::FlatParams::from_tensors({Tensor({3})});
  }
  v = server.validate_update(bad_shape, none, std::nullopt);
  EXPECT_EQ(v.reason, RejectReason::kStructureMismatch);

  ModelUpdateMsg nan_update = make_update(1, 1.0f);
  nan_update.params.as_span()[1] = std::numeric_limits<float>::quiet_NaN();
  v = server.validate_update(nan_update, none, std::nullopt);
  EXPECT_EQ(v.reason, RejectReason::kNonFinite);
  EXPECT_NE(v.detail.find("tensor 0"), std::string::npos);

  ModelUpdateMsg empty = make_update(1, 1.0f, /*samples=*/0);
  v = server.validate_update(empty, none, std::nullopt);
  EXPECT_EQ(v.reason, RejectReason::kNoSamples);

  ModelUpdateMsg mixed = make_update(1, 1.0f);
  mixed.pre_weighted = true;
  v = server.validate_update(mixed, none, /*weighting=*/false);
  EXPECT_EQ(v.reason, RejectReason::kMixedWeighting);

  EXPECT_TRUE(server.validate_update(make_update(1, 1.0f), none, std::nullopt).accepted);
}

TEST(ServerValidationTest, TryAggregateQuarantinesAndAveragesTheRest) {
  FlServer server(unit_params(), std::make_unique<NoServerDefense>());
  ModelUpdateMsg nan_update = make_update(2, 1.0f);
  nan_update.params.as_span()[0] = std::numeric_limits<float>::infinity();
  const std::vector<ModelUpdateMsg> cohort{make_update(0, 2.0f), nan_update,
                                           make_update(1, 4.0f)};
  const HardenedRound out = validate_and_aggregate(server, cohort, /*quorum=*/2);
  EXPECT_TRUE(out.aggregated);
  ASSERT_EQ(out.verdicts.size(), 3u);
  EXPECT_TRUE(out.verdicts[0].accepted);  // client 0
  EXPECT_FALSE(out.verdicts[1].accepted);  // client 2 quarantined
  EXPECT_EQ(out.verdicts[1].reason, RejectReason::kNonFinite);
  EXPECT_TRUE(out.verdicts[2].accepted);  // client 1
  EXPECT_EQ(server.round(), 1);
  EXPECT_NEAR(server.global_params().as_span()[0], 3.0f, 1e-6);  // mean of 2 and 4
}

TEST(ServerValidationTest, BelowQuorumLeavesGlobalUntouched) {
  FlServer server(unit_params(7.0f), std::make_unique<NoServerDefense>());
  const std::vector<ModelUpdateMsg> lone{make_update(0, 1.0f)};
  const HardenedRound out = validate_and_aggregate(server, lone, /*quorum=*/2);
  EXPECT_FALSE(out.aggregated);
  EXPECT_EQ(server.round(), 0);
  EXPECT_EQ(server.global_params().as_span()[0], 7.0f);
}

TEST(ServerValidationTest, CarryForwardAdvancesRoundOnly) {
  FlServer server(unit_params(7.0f), std::make_unique<NoServerDefense>());
  server.carry_forward();
  EXPECT_EQ(server.round(), 1);
  EXPECT_EQ(server.global_params().as_span()[0], 7.0f);
}

TEST(ServerValidationTest, RestoreInstallsCheckpointState) {
  FlServer server(unit_params(), std::make_unique<NoServerDefense>());
  server.restore(4, unit_params(3.0f));
  EXPECT_EQ(server.round(), 4);
  EXPECT_EQ(server.global_params().as_span()[0], 3.0f);
  EXPECT_THROW(server.restore(1, nn::FlatParams::from_tensors({Tensor({5})})), Error);
  EXPECT_THROW(server.restore(-1, unit_params()), Error);
}

// ----------------------------------------------- fault-tolerant simulation --

SimulationConfig faulty_config(int rounds) {
  SimulationConfig cfg;
  cfg.rounds = rounds;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 4242;
  cfg.min_clients = 3;
  cfg.max_retries = 3;
  return cfg;
}

// Acceptance scenario: 10 clients, 30% drop, 5% corruption, one permanently
// crashed client. All rounds must complete via quorum aggregation, every
// corrupted update must be quarantined, and the final accuracy must stay
// within 5 points of the zero-fault baseline under the same seed.
TEST(FaultSimulationTest, SurvivesDropCorruptionAndCrash) {
  const int kRounds = 6;
  const int kCrashed = 7;

  SimulationConfig faulty = faulty_config(kRounds);
  faulty.faults.drop_up = 0.3;
  faulty.faults.drop_down = 0.3;
  faulty.faults.corrupt_up = 0.05;
  faulty.faults.corrupt_down = 0.05;
  faulty.faults.crash_at_round[kCrashed] = 0;
  // Seed chosen so the short run actually draws uplink corruptions (the
  // test asserts every one of them lands in quarantine).
  faulty.faults.seed = 3;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(10, 2000, 31), faulty,
                          DefenseBundle{});
  sim.run();

  SimulationConfig clean = faulty_config(kRounds);
  FederatedSimulation baseline(tiny_mlp_factory(2, 2), easy_split(10, 2000, 31),
                               clean, DefenseBundle{});
  baseline.run();

  // Every configured round completed, each through quorum aggregation.
  EXPECT_EQ(sim.server().round(), kRounds);
  ASSERT_EQ(sim.round_log().size(), static_cast<std::size_t>(kRounds));
  std::size_t quarantined_corrupt = 0;
  for (const RoundOutcome& out : sim.round_log()) {
    EXPECT_TRUE(out.quorum_met) << "round " << out.round;
    EXPECT_FALSE(out.carried_forward);
    EXPECT_GE(out.accepted.size(), faulty.min_clients);
    // The crashed client is logged every round and never aggregated.
    EXPECT_NE(std::find(out.crashed.begin(), out.crashed.end(), kCrashed),
              out.crashed.end());
    EXPECT_EQ(std::find(out.accepted.begin(), out.accepted.end(), kCrashed),
              out.accepted.end());
    for (const RoundOutcome::Rejection& rej : out.quarantined)
      if (rej.reason.rfind("corrupt: ", 0) == 0) ++quarantined_corrupt;
  }

  // Every corrupted update that reached the server was quarantined: the
  // injector's uplink-corruption count matches the quarantine log exactly.
  const FaultStats& fstats = sim.transport().faults()->stats();
  EXPECT_GT(fstats.corruptions_up, 0u);
  EXPECT_GT(fstats.drops_up + fstats.drops_down, 0u);
  EXPECT_EQ(quarantined_corrupt, fstats.corruptions_up);

  // Degraded-but-live training: within 5 accuracy points of the zero-fault
  // baseline under the same seed.
  ASSERT_FALSE(sim.history().empty());
  const double faulty_acc = sim.history().back().global_test_accuracy;
  const double clean_acc = baseline.history().back().global_test_accuracy;
  EXPECT_GT(clean_acc, 0.85);
  EXPECT_GT(faulty_acc, clean_acc - 0.05);
}

TEST(FaultSimulationTest, TotalBlackoutCarriesEveryRoundForward) {
  SimulationConfig cfg = faulty_config(2);
  cfg.min_clients = 1;
  cfg.max_retries = 1;
  cfg.faults.drop_up = 1.0;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(3, 300, 32), cfg,
                          DefenseBundle{});
  const nn::FlatParams initial = sim.server().global_params();
  sim.run();
  EXPECT_EQ(sim.server().round(), 2);
  for (const RoundOutcome& out : sim.round_log()) {
    EXPECT_TRUE(out.carried_forward);
    EXPECT_FALSE(out.quorum_met);
    EXPECT_EQ(out.lost_update.size(), 3u);
    EXPECT_EQ(out.retries_used, 1);
  }
  // The global model survived unchanged — degraded but live.
  const nn::FlatParams& after = sim.server().global_params();
  for (std::size_t j = 0; j < initial.as_span().size(); ++j)
    EXPECT_EQ(initial.as_span()[j], after.as_span()[j]);
}

TEST(FaultSimulationTest, RoundDeadlineBoundsRetries) {
  SimulationConfig cfg = faulty_config(1);
  cfg.min_clients = 1;
  cfg.max_retries = 10;
  cfg.retry_backoff_seconds = 1.0;
  cfg.round_deadline_seconds = 1.5;
  cfg.faults.drop_up = 1.0;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(2, 200, 33), cfg,
                          DefenseBundle{});
  const RoundOutcome& out = sim.run_round();
  EXPECT_TRUE(out.carried_forward);
  // Backoff accumulates 1s then 2s of simulated time; the 1.5s deadline
  // fires long before the 10-retry budget.
  EXPECT_EQ(out.retries_used, 2);
}

TEST(FaultSimulationTest, ZeroFaultProtocolMatchesSeedBehavior) {
  SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.train = TrainConfig{1, 32};
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(3, 200, 34), cfg,
                          DefenseBundle{});
  sim.run();
  for (const RoundOutcome& out : sim.round_log()) {
    EXPECT_TRUE(out.quorum_met);
    EXPECT_EQ(out.accepted.size(), 3u);
    EXPECT_EQ(out.retries_used, 0);
    EXPECT_TRUE(out.quarantined.empty());
    EXPECT_TRUE(out.crashed.empty());
  }
}

// ------------------------------------------------------ checkpoint / resume --

std::vector<std::uint8_t> full_state(const FederatedSimulation& sim) {
  BinaryWriter w;
  sim.save_full_state(w);
  return w.take();
}

TEST(CheckpointTest, ResumedRunsAreDeterministic) {
  SimulationConfig cfg = faulty_config(6);
  cfg.client_fraction = 0.6;  // exercise per-round selection forking
  cfg.min_clients = 2;
  cfg.faults.drop_up = 0.2;
  cfg.faults.corrupt_up = 0.05;

  // Run half the rounds and save the full state (as a crashed run would
  // have), then let the same run finish uninterrupted.
  FederatedSimulation first(tiny_mlp_factory(2, 2), easy_split(5, 600, 35), cfg,
                            DefenseBundle{});
  for (int r = 0; r < 3; ++r) first.run_round();
  const std::vector<std::uint8_t> checkpoint = full_state(first);
  first.run();

  // Two fresh processes restore the same state and finish the run.
  auto resume = [&] {
    FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(5, 600, 35), cfg,
                            DefenseBundle{});
    BinaryReader r(checkpoint);
    sim.restore_full_state(r);
    EXPECT_EQ(sim.server().round(), 3);
    sim.run();
    EXPECT_EQ(sim.server().round(), 6);
    EXPECT_EQ(sim.round_log().size(), 6u);  // rounds 0..2 restored, 3..5 re-ran
    return full_state(sim);
  };
  const std::vector<std::uint8_t> a = resume();
  const std::vector<std::uint8_t> b = resume();
  EXPECT_EQ(a, b);
  // Every client's private state came back too, so resuming is byte-equal
  // to never having stopped.
  EXPECT_EQ(a, full_state(first));
}

TEST(CheckpointTest, FileRoundTripRestoresRoundAndModel) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 32};
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(2, 200, 36), cfg,
                          DefenseBundle{});
  sim.run_round();
  sim.run_round();
  const std::string path = ::testing::TempDir() + "dinar_ckpt.bin";
  store::atomic_write_file(path, full_state(sim));

  FederatedSimulation fresh(tiny_mlp_factory(2, 2), easy_split(2, 200, 36), cfg,
                            DefenseBundle{});
  const auto bytes = store::read_file(path);
  ASSERT_TRUE(bytes.has_value());
  BinaryReader r(*bytes);
  fresh.restore_full_state(r);
  EXPECT_EQ(fresh.server().round(), 2);
  const nn::FlatParams& a = sim.server().global_params();
  const nn::FlatParams& b = fresh.server().global_params();
  for (std::size_t j = 0; j < a.as_span().size(); ++j)
    EXPECT_EQ(a.as_span()[j], b.as_span()[j]);
}

TEST(CheckpointTest, CorruptedCheckpointRejected) {
  SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.train = TrainConfig{1, 32};
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(2, 200, 37), cfg,
                          DefenseBundle{});
  const std::vector<std::uint8_t> bytes = full_state(sim);

  std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + 10);
  BinaryReader rt(truncated);
  EXPECT_THROW(sim.restore_full_state(rt), Error);

  std::vector<std::uint8_t> trailing = bytes;
  trailing.push_back(0);
  BinaryReader rx(trailing);
  EXPECT_THROW(sim.restore_full_state(rx), Error);

  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  BinaryReader rm(bad_magic);
  EXPECT_THROW(sim.restore_full_state(rm), Error);
}

}  // namespace
}  // namespace dinar::fl
