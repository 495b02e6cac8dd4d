// Byzantine-robust aggregation, adversarial clients and membership churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "core/dinar.h"
#include "fl/simulation.h"
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

nn::FlatParams one_tensor(float value) {
  return nn::FlatParams::from_tensors({Tensor({2}, {value, value})});
}

ModelUpdateMsg update_of(int client, float value, std::int64_t samples = 1) {
  ModelUpdateMsg u;
  u.client_id = client;
  u.num_samples = samples;
  u.params = one_tensor(value);
  return u;
}

bool has_excluded(const std::vector<AggregatorFlag>& flags, int client) {
  return std::any_of(flags.begin(), flags.end(), [client](const AggregatorFlag& f) {
    return f.client_id == client && f.excluded;
  });
}

// ------------------------------------------------------- aggregator factory --

TEST(RobustAggregatorFactory, BuildsEveryKnownMethod) {
  for (const std::string& name : robust_aggregator_names()) {
    RobustConfig cfg;
    cfg.method = name;
    auto agg = make_robust_aggregator(cfg);
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->name(), name);
  }
}

TEST(RobustAggregatorFactory, RejectsUnknownMethodAndBadParameters) {
  RobustConfig unknown;
  unknown.method = "byzantine_roulette";
  EXPECT_THROW(make_robust_aggregator(unknown), Error);

  RobustConfig trim;
  trim.method = "trimmed_mean";
  trim.trim_fraction = 0.5;  // would trim everything
  EXPECT_THROW(make_robust_aggregator(trim), Error);

  RobustConfig screen;
  screen.method = "median";
  screen.outlier_threshold = 0.9;  // could flag the median half itself
  EXPECT_THROW(make_robust_aggregator(screen), Error);

  RobustConfig clip;
  clip.method = "norm_clip";
  clip.clip_multiplier = 0.0;
  EXPECT_THROW(make_robust_aggregator(clip), Error);
}

// ------------------------------------------------------ aggregation results --

TEST(RobustAggregatorTest, FedAvgMatchesSampleWeightedMean) {
  auto agg = make_robust_aggregator(RobustConfig{});
  const std::vector<ModelUpdateMsg> updates{update_of(0, 2.0f, 1),
                                            update_of(1, 4.0f, 3)};
  RobustAggregateResult r = agg->aggregate(updates, one_tensor(0.0f));
  EXPECT_NEAR(r.params.entry_span(0)[0], 3.5f, 1e-6);  // (2*1 + 4*3) / 4
  EXPECT_TRUE(r.flags.empty());
}

TEST(RobustAggregatorTest, MedianOutvotesAndQuarantinesMinorityOutlier) {
  RobustConfig cfg;
  cfg.method = "median";
  auto agg = make_robust_aggregator(cfg);
  const std::vector<ModelUpdateMsg> updates{update_of(0, 1.0f), update_of(1, 1.0f),
                                            update_of(2, 1.0f), update_of(3, 1.0f),
                                            update_of(4, 100.0f)};
  RobustAggregateResult r = agg->aggregate(updates, one_tensor(0.0f));
  EXPECT_NEAR(r.params.entry_span(0)[0], 1.0f, 1e-6);
  ASSERT_EQ(r.flags.size(), 1u);
  EXPECT_EQ(r.flags[0].client_id, 4);
  EXPECT_TRUE(r.flags[0].excluded);
  EXPECT_NE(r.flags[0].reason.find("median-outlier"), std::string::npos);
}

// The per-coordinate median the aggregator took before it reused its
// column in place: a copy per coordinate, nth_element, and the mean of the
// two middle values for even counts. Kept as the bit-exact oracle.
float oracle_median(std::vector<double> v) {
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0)
    m = 0.5 * (m + *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)));
  return static_cast<float>(m);
}

TEST(RobustAggregatorTest, MedianIsBitEqualToThePerCoordinateOracle) {
  RobustConfig cfg;
  cfg.method = "median";
  cfg.outlier_threshold = 1e9;  // disarm the screen: test the statistic alone
  ExecConfig exec_cfg;
  exec_cfg.threads = 2;
  ExecutionContext exec(exec_cfg);
  for (const std::size_t members : {3u, 4u, 5u, 6u, 7u}) {
    Rng rng(100 + members);
    const std::int64_t n = 1500;
    std::vector<ModelUpdateMsg> updates(members);
    for (std::size_t i = 0; i < members; ++i) {
      std::vector<float> a(static_cast<std::size_t>(n - 7));
      std::vector<float> b(7);
      for (float& v : a) {
        // Thirds: full-precision values, values on a coarse grid (ties),
        // and signed zeros (the median's sign bit must match too).
        const double kind = rng.uniform();
        v = kind < 1.0 / 3 ? static_cast<float>(rng.gaussian())
            : kind < 2.0 / 3 ? std::round(static_cast<float>(rng.gaussian()) * 4.0f) / 4.0f
                             : (rng.uniform() < 0.5 ? 0.0f : -0.0f);
      }
      for (float& v : b) v = static_cast<float>(rng.gaussian());
      updates[i].client_id = static_cast<int>(i);
      updates[i].num_samples = 1 + static_cast<std::int64_t>(i);
      updates[i].params = nn::FlatParams::from_tensors(
          {Tensor({n - 7}, std::move(a)), Tensor({7}, std::move(b))});
    }
    const nn::FlatParams global(updates.front().params.index());
    for (const ExecutionContext* ctx : {static_cast<const ExecutionContext*>(nullptr),
                                        static_cast<const ExecutionContext*>(&exec)}) {
      auto agg = make_robust_aggregator(cfg);
      agg->set_execution_context(ctx);
      const RobustAggregateResult r = agg->aggregate(updates, global);
      ASSERT_TRUE(r.flags.empty());
      const std::span<const float> out = r.params.as_span();
      for (std::size_t j = 0; j < out.size(); ++j) {
        std::vector<double> column;
        for (const ModelUpdateMsg& u : updates)
          column.push_back(static_cast<double>(u.params.as_span()[j]));
        const float expected = oracle_median(column);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out[j]), std::bit_cast<std::uint32_t>(expected))
            << members << " members, coordinate " << j;
      }
    }
  }
}

// The median after the outlier screen: with no member excluded the
// statistic is the screen's own center, and with some excluded it must be
// the median over the survivors only. Both bit-equal the oracle, at a null
// context and at 2 and 4 threads.
TEST(RobustAggregatorTest, ScreenedMedianIsBitEqualToTheOracleOverSurvivors) {
  RobustConfig cfg;
  cfg.method = "median";
  ExecConfig two_cfg;
  two_cfg.threads = 2;
  const ExecutionContext two(two_cfg);
  ExecConfig four_cfg;
  four_cfg.threads = 4;
  const ExecutionContext four(four_cfg);
  // (members, outliers): the last `outliers` members sit far from the rest.
  const std::vector<std::pair<std::size_t, std::size_t>> cohorts = {
      {5, 0}, {6, 0}, {5, 1}, {6, 1}, {7, 2}, {8, 3}};
  for (const auto& [members, outliers] : cohorts) {
    Rng rng(300 + members * 10 + outliers);
    const std::int64_t n = 1200;
    std::vector<ModelUpdateMsg> updates(members);
    for (std::size_t i = 0; i < members; ++i) {
      const bool outlier = i + outliers >= members;
      std::vector<float> v(static_cast<std::size_t>(n));
      for (float& x : v) {
        const double kind = rng.uniform();
        x = kind < 0.5 ? static_cast<float>(rng.gaussian())
            : kind < 0.75 ? std::round(static_cast<float>(rng.gaussian()) * 4.0f) / 4.0f
                          : (rng.uniform() < 0.5 ? 0.0f : -0.0f);
        if (outlier) x += 1000.0f;
      }
      updates[i].client_id = static_cast<int>(i);
      updates[i].num_samples = 1 + static_cast<std::int64_t>(i);
      updates[i].params = nn::FlatParams::from_tensors({Tensor({n}, std::move(v))});
    }
    const nn::FlatParams global(updates.front().params.index());
    const std::size_t survivors = members - outliers;
    for (const ExecutionContext* ctx : {static_cast<const ExecutionContext*>(nullptr),
                                        &two, &four}) {
      auto agg = make_robust_aggregator(cfg);
      agg->set_execution_context(ctx);
      const RobustAggregateResult r = agg->aggregate(updates, global);
      ASSERT_EQ(r.flags.size(), outliers) << members << " members";
      for (std::size_t i = survivors; i < members; ++i)
        EXPECT_TRUE(has_excluded(r.flags, static_cast<int>(i)));
      const std::span<const float> out = r.params.as_span();
      for (std::size_t j = 0; j < out.size(); ++j) {
        std::vector<double> column;
        for (std::size_t i = 0; i < survivors; ++i)
          column.push_back(static_cast<double>(updates[i].params.as_span()[j]));
        const float expected = oracle_median(column);
        ASSERT_EQ(std::bit_cast<std::uint32_t>(out[j]), std::bit_cast<std::uint32_t>(expected))
            << members << " members, " << outliers << " outliers, coordinate " << j;
      }
    }
  }
}

TEST(RobustAggregatorTest, TrimmedMeanDropsBothExtremes) {
  RobustConfig cfg;
  cfg.method = "trimmed_mean";
  cfg.trim_fraction = 0.2;
  cfg.outlier_threshold = 1e9;  // disarm the screen: test the statistic alone
  auto agg = make_robust_aggregator(cfg);
  const std::vector<ModelUpdateMsg> updates{update_of(0, 0.0f), update_of(1, 1.0f),
                                            update_of(2, 1.0f), update_of(3, 1.0f),
                                            update_of(4, 50.0f)};
  RobustAggregateResult r = agg->aggregate(updates, one_tensor(0.0f));
  EXPECT_NEAR(r.params.entry_span(0)[0], 1.0f, 1e-6);  // 0 and 50 trimmed per coordinate
}

TEST(RobustAggregatorTest, NormClipBoundsLargeDeltas) {
  RobustConfig cfg;
  cfg.method = "norm_clip";
  cfg.clip_multiplier = 2.0;
  auto agg = make_robust_aggregator(cfg);
  // Three unit deltas and one 100x delta from a zero global: the outlier
  // is scaled down to 2x the median norm instead of dominating the mean.
  const std::vector<ModelUpdateMsg> updates{update_of(0, 1.0f), update_of(1, 1.0f),
                                            update_of(2, 1.0f),
                                            update_of(3, 100.0f)};
  RobustAggregateResult r = agg->aggregate(updates, one_tensor(0.0f));
  EXPECT_NEAR(r.params.entry_span(0)[0], 1.25f, 1e-5);  // (1 + 1 + 1 + 2) / 4
  ASSERT_EQ(r.flags.size(), 1u);
  EXPECT_EQ(r.flags[0].client_id, 3);
  EXPECT_FALSE(r.flags[0].excluded);  // clipped, not removed
  EXPECT_NE(r.flags[0].reason.find("norm-clipped"), std::string::npos);
}

TEST(RobustAggregatorTest, KrumSelectsInsideTheHonestCluster) {
  RobustConfig cfg;
  cfg.method = "krum";
  cfg.assumed_byzantine = 1;
  auto agg = make_robust_aggregator(cfg);
  const std::vector<ModelUpdateMsg> updates{
      update_of(0, 1.00f), update_of(1, 1.01f), update_of(2, 1.02f),
      update_of(3, 0.99f), update_of(4, 50.0f)};
  RobustAggregateResult r = agg->aggregate(updates, one_tensor(0.0f));
  // Krum keeps exactly one update, from inside the cluster.
  EXPECT_GT(r.params.entry_span(0)[0], 0.9f);
  EXPECT_LT(r.params.entry_span(0)[0], 1.1f);
  EXPECT_EQ(r.flags.size(), 4u);
  EXPECT_TRUE(has_excluded(r.flags, 4));
}

TEST(RobustAggregatorTest, MultiKrumExcludesExactlyTheAssumedByzantine) {
  RobustConfig cfg;
  cfg.method = "multi_krum";
  cfg.assumed_byzantine = 1;  // select m = n - f = 4
  auto agg = make_robust_aggregator(cfg);
  const std::vector<ModelUpdateMsg> updates{
      update_of(0, 1.00f), update_of(1, 1.01f), update_of(2, 1.02f),
      update_of(3, 0.99f), update_of(4, 50.0f)};
  RobustAggregateResult r = agg->aggregate(updates, one_tensor(0.0f));
  EXPECT_NEAR(r.params.entry_span(0)[0], 1.005f, 1e-3);  // mean of the 4 honest
  ASSERT_EQ(r.flags.size(), 1u);
  EXPECT_EQ(r.flags[0].client_id, 4);
  EXPECT_TRUE(r.flags[0].excluded);
  EXPECT_NE(r.flags[0].reason.find("krum-rank"), std::string::npos);
}

TEST(RobustAggregatorTest, RobustMethodsRejectPreWeightedUpdates) {
  // Secure aggregation uploads pre-weighted masked sums; robust statistics
  // need the individual updates, so everything but plain FedAvg refuses.
  ModelUpdateMsg masked = update_of(0, 2.0f, 2);
  masked.pre_weighted = true;
  for (const std::string& name : robust_aggregator_names()) {
    RobustConfig cfg;
    cfg.method = name;
    auto agg = make_robust_aggregator(cfg);
    const std::vector<ModelUpdateMsg> solo{masked};
    const std::vector<ModelUpdateMsg> pair{masked, update_of(1, 1.0f)};
    if (name == "fedavg") {
      EXPECT_NO_THROW(agg->aggregate(solo, one_tensor(0.0f)));
    } else {
      EXPECT_THROW(agg->aggregate(pair, one_tensor(0.0f)), Error) << name;
    }
  }
}

// -------------------------------------------------- layer-aware regression --

nn::FlatParams two_tensors(float a, float b0, float b1) {
  return nn::FlatParams::from_tensors(
      {Tensor({2}, {a, a}), Tensor({2}, {b0, b1})});
}

// The DINAR regression: an honest client's obfuscated layer is random by
// design. A naive (all-tensor) outlier screen quarantines exactly that
// client; excluding the obfuscated tensors from scoring keeps it in.
TEST(LayerAwareScoringTest, NaiveMedianQuarantinesHonestDinarUpdateLayerAwareDoesNot) {
  const auto cohort = [] {
    std::vector<ModelUpdateMsg> updates;
    for (int i = 0; i < 4; ++i) {
      ModelUpdateMsg u;
      u.client_id = i;
      u.num_samples = 1;
      u.params = two_tensors(1.0f + 0.01f * static_cast<float>(i), 0.0f, 0.0f);
      updates.push_back(std::move(u));
    }
    // Client 4 is honest but DINAR-obfuscates tensor 1 (its sensitive
    // layer): random values, huge relative to anyone's training signal.
    ModelUpdateMsg dinar;
    dinar.client_id = 4;
    dinar.num_samples = 1;
    dinar.params = two_tensors(1.04f, 50.0f, -50.0f);
    updates.push_back(std::move(dinar));
    return updates;
  }();
  const nn::FlatParams global = two_tensors(0.0f, 0.0f, 0.0f);

  RobustConfig naive;
  naive.method = "median";
  RobustAggregateResult plain = make_robust_aggregator(naive)->aggregate(cohort, global);
  EXPECT_TRUE(has_excluded(plain.flags, 4))
      << "naive scoring must quarantine the obfuscated update (that is the bug "
         "layer-awareness fixes)";

  RobustConfig aware = naive;
  aware.excluded_tensors = {1};  // the obfuscated layer's tensor
  RobustAggregateResult result =
      make_robust_aggregator(aware)->aggregate(cohort, global);
  for (const AggregatorFlag& f : result.flags)
    EXPECT_FALSE(f.excluded) << "client " << f.client_id << ": " << f.reason;
  // The scored tensor aggregates over all five clients...
  EXPECT_NEAR(result.params.entry_span(0)[0], 1.02f, 1e-6);
  // ...and the excluded tensor still averages (it stays obfuscation noise
  // that personalization discards, but the broadcast keeps its structure).
  EXPECT_NEAR(result.params.entry_span(1)[0], 10.0f, 1e-5);
}

// End-to-end: a full DINAR federation (every client obfuscates) under
// layer-aware median aggregation never sees an honest client excluded.
TEST(LayerAwareScoringTest, FullDinarFederationIsNeverQuarantined) {
  SimulationConfig cfg;
  cfg.rounds = 3;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 4242;
  cfg.robust.method = "median";

  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(5, 500, 51), cfg,
                          core::make_dinar_bundle({1}, 7));
  sim.run();
  for (const RoundOutcome& out : sim.round_log()) {
    EXPECT_EQ(out.aggregator, "median");
    EXPECT_EQ(out.accepted.size(), 5u) << "round " << out.round;
    for (const AggregatorFlag& f : out.aggregator_flags)
      EXPECT_FALSE(f.excluded) << "round " << out.round << " client "
                               << f.client_id << ": " << f.reason;
  }
}

// --------------------------------------------------------- adversary engine --

TEST(AdversaryEngineTest, SignFlipInvertsTheDelta) {
  AdversaryConfig cfg;
  cfg.attackers[3] = AttackType::kSignFlip;
  cfg.sign_flip_scale = 2.0;
  AdversaryEngine engine(cfg);
  engine.begin_round(0);
  ModelUpdateMsg u = update_of(3, 1.5f);
  engine.corrupt_update(one_tensor(1.0f), u);  // 1 - 2 * (1.5 - 1) = 0
  EXPECT_NEAR(u.params.entry_span(0)[0], 0.0f, 1e-6);
  EXPECT_EQ(engine.stats().sign_flips, 1u);
  EXPECT_EQ(engine.stats().corrupted_updates, 1u);
}

TEST(AdversaryEngineTest, ModelReplacementBoostsTheDelta) {
  AdversaryConfig cfg;
  cfg.attackers[3] = AttackType::kModelReplacement;
  cfg.replacement_scale = 10.0;
  AdversaryEngine engine(cfg);
  engine.begin_round(0);
  ModelUpdateMsg u = update_of(3, 1.5f);
  engine.corrupt_update(one_tensor(1.0f), u);  // 1 + 10 * (1.5 - 1) = 6
  EXPECT_NEAR(u.params.entry_span(0)[0], 6.0f, 1e-5);
  EXPECT_EQ(engine.stats().replacements, 1u);
}

TEST(AdversaryEngineTest, AttackStreamIsDeterministicPerSeedAndRound) {
  AdversaryConfig cfg;
  cfg.attackers[3] = AttackType::kGaussianNoise;
  cfg.noise_std = 0.5;
  cfg.seed = 77;

  AdversaryEngine a(cfg), b(cfg);
  // b takes a different path through earlier rounds; the round-2 payload
  // must match anyway because the stream is forked from (seed, round,
  // client), not drawn sequentially.
  b.begin_round(1);
  ModelUpdateMsg burn = update_of(3, 2.0f);
  b.corrupt_update(one_tensor(1.0f), burn);

  a.begin_round(2);
  b.begin_round(2);
  ModelUpdateMsg ua = update_of(3, 1.5f), ub = update_of(3, 1.5f);
  a.corrupt_update(one_tensor(1.0f), ua);
  b.corrupt_update(one_tensor(1.0f), ub);
  for (std::size_t j = 0; j < ua.params.as_span().size(); ++j)
    EXPECT_EQ(ua.params.as_span()[j], ub.params.as_span()[j]);
}

TEST(AdversaryEngineTest, ColludersUploadOneIdenticalPayload) {
  AdversaryConfig cfg;
  cfg.attackers[2] = AttackType::kColluding;
  cfg.attackers[5] = AttackType::kColluding;
  AdversaryEngine engine(cfg);
  engine.begin_round(4);
  // Different honest updates, opposite call orders — the crafted payload
  // depends only on (seed, round).
  ModelUpdateMsg first = update_of(5, -3.0f), second = update_of(2, 1.5f);
  engine.corrupt_update(one_tensor(1.0f), first);
  engine.corrupt_update(one_tensor(1.0f), second);
  for (std::size_t j = 0; j < first.params.as_span().size(); ++j)
    EXPECT_EQ(first.params.as_span()[j], second.params.as_span()[j]);
  EXPECT_EQ(engine.stats().colluding_uploads, 2u);
}

TEST(AdversaryEngineTest, SleeperScheduleActivatesAtConfiguredRound) {
  AdversaryConfig cfg;
  cfg.attackers[0] = AttackType::kSignFlip;
  cfg.active_from_round = 3;
  AdversaryEngine engine(cfg);
  engine.begin_round(2);
  EXPECT_FALSE(engine.is_attacker(0));
  engine.begin_round(3);
  EXPECT_TRUE(engine.is_attacker(0));
  EXPECT_FALSE(engine.is_attacker(1));  // honest clients stay honest
}

TEST(AdversaryEngineTest, RejectsBadConfigAndHonestCorruption) {
  AdversaryConfig zero_scale;
  zero_scale.attackers[0] = AttackType::kSignFlip;
  zero_scale.sign_flip_scale = 0.0;
  EXPECT_THROW(AdversaryEngine{zero_scale}, Error);

  AdversaryConfig negative_round;
  negative_round.attackers[0] = AttackType::kSignFlip;
  negative_round.active_from_round = -1;
  EXPECT_THROW(AdversaryEngine{negative_round}, Error);

  AdversaryConfig negative_id;
  negative_id.attackers[-2] = AttackType::kGaussianNoise;
  EXPECT_THROW(AdversaryEngine{negative_id}, Error);

  AdversaryConfig ok;
  ok.attackers[0] = AttackType::kSignFlip;
  AdversaryEngine engine(ok);
  engine.begin_round(0);
  ModelUpdateMsg honest = update_of(1, 1.0f);
  EXPECT_THROW(engine.corrupt_update(one_tensor(0.0f), honest), Error);
}

// ------------------------------------------------- end-to-end Byzantine FL --

double run_attacked(const std::string& method, bool with_attackers,
                    std::vector<RoundOutcome>* log = nullptr) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 4242;
  cfg.robust.method = method;
  if (with_attackers) {
    for (const int id : {1, 4, 7}) cfg.adversaries.attackers[id] = AttackType::kSignFlip;
    cfg.adversaries.sign_flip_scale = 4.0;
    cfg.robust.assumed_byzantine = 3;
  }
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(10, 1500, 61), cfg,
                          DefenseBundle{});
  sim.run();
  if (log != nullptr) *log = sim.round_log();
  return sim.history().back().global_test_accuracy;
}

// Acceptance scenario: 30% sign-flip attackers. Robust aggregation stays
// within a couple of points of the attack-free baseline; plain FedAvg
// degrades badly.
TEST(ByzantineSimulationTest, RobustAggregatorsResistThirtyPercentAttackers) {
  const double baseline = run_attacked("fedavg", /*with_attackers=*/false);
  EXPECT_GT(baseline, 0.85);

  std::vector<RoundOutcome> krum_log;
  const double fedavg = run_attacked("fedavg", true);
  const double multi_krum = run_attacked("multi_krum", true, &krum_log);
  const double trimmed = run_attacked("trimmed_mean", true);

  EXPECT_LT(fedavg, baseline - 0.15) << "plain FedAvg should degrade";
  EXPECT_GT(multi_krum, baseline - 0.02);
  EXPECT_GT(trimmed, baseline - 0.02);

  // The attack trace is surfaced, and Multi-Krum's exclusions are exactly
  // the three attackers every round.
  for (const RoundOutcome& out : krum_log) {
    EXPECT_EQ(out.attackers, (std::vector<int>{1, 4, 7})) << "round " << out.round;
    EXPECT_EQ(out.aggregator, "multi_krum");
    std::vector<int> excluded;
    for (const AggregatorFlag& f : out.aggregator_flags)
      if (f.excluded) excluded.push_back(f.client_id);
    std::sort(excluded.begin(), excluded.end());
    EXPECT_EQ(excluded, (std::vector<int>{1, 4, 7})) << "round " << out.round;
  }
}

// ------------------------------------------------------------------- churn --

TEST(ChurnConfigTest, PresenceIsAPureFunctionOfConfigAndRound) {
  ChurnConfig churn;
  churn.join_at_round[3] = 2;
  churn.away[0] = {{1, 3}};
  churn.away[4] = {{2, -1}};
  EXPECT_TRUE(churn.any());

  EXPECT_FALSE(churn.present(3, 0));
  EXPECT_FALSE(churn.present(3, 1));
  EXPECT_TRUE(churn.present(3, 2));

  EXPECT_TRUE(churn.present(0, 0));
  EXPECT_FALSE(churn.present(0, 1));
  EXPECT_FALSE(churn.present(0, 2));
  EXPECT_TRUE(churn.present(0, 3));  // rejoin bound is exclusive

  EXPECT_TRUE(churn.present(4, 1));
  EXPECT_FALSE(churn.present(4, 2));
  EXPECT_FALSE(churn.present(4, 999));  // -1 = never returns

  EXPECT_TRUE(churn.present(1, 0));  // unlisted clients are founding members
  EXPECT_FALSE(ChurnConfig{}.any());
}

TEST(ChurnSimulationTest, RosterJoinsDeparturesAndSelectionTrackTheSchedule) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 11;
  cfg.churn.join_at_round[3] = 2;   // late joiner
  cfg.churn.away[0] = {{1, 3}};     // leaves, rejoins
  cfg.churn.away[4] = {{2, -1}};    // leaves for good
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(5, 600, 71), cfg,
                          DefenseBundle{});
  sim.run();

  const std::vector<RoundOutcome>& log = sim.round_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log[0].roster_size, 4u);  // 3 waits to join
  EXPECT_EQ(log[1].roster_size, 3u);  // 0 left
  EXPECT_EQ(log[2].roster_size, 3u);  // 3 joined, 4 left
  EXPECT_EQ(log[3].roster_size, 4u);  // 0 rejoined

  EXPECT_EQ(log[1].departed, (std::vector<int>{0}));
  EXPECT_EQ(log[2].joined, (std::vector<int>{3}));
  EXPECT_EQ(log[2].departed, (std::vector<int>{4}));
  EXPECT_EQ(log[3].joined, (std::vector<int>{0}));

  for (const RoundOutcome& out : log) {
    const std::vector<std::size_t> roster = sim.roster_at(out.round);
    EXPECT_TRUE(out.quorum_met);
    EXPECT_EQ(out.selected.size(), roster.size());
    for (const int id : out.accepted)
      EXPECT_TRUE(std::find(roster.begin(), roster.end(),
                            static_cast<std::size_t>(id)) != roster.end())
          << "client " << id << " aggregated while absent in round " << out.round;
  }
}

TEST(ChurnSimulationTest, RejoiningClientCarriesPersonalizedStateAcrossAbsence) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 12;
  cfg.churn.away[2] = {{1, 3}};
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(4, 500, 72), cfg,
                          core::make_dinar_bundle({1}, 99));

  sim.run_round();  // round 0: everyone participates
  const nn::FlatParams before_absence = sim.clients()[2].model().parameters();

  sim.run_round();  // rounds 1, 2: client 2 is away — its state must not move
  sim.run_round();
  const nn::FlatParams during = sim.clients()[2].model().parameters();
  ASSERT_EQ(during.numel(), before_absence.numel());
  for (std::size_t j = 0; j < during.as_span().size(); ++j)
    EXPECT_EQ(during.as_span()[j], before_absence.as_span()[j]) << "coord " << j;

  const RoundOutcome& rejoin = sim.run_round();  // round 3: back in
  EXPECT_EQ(rejoin.joined, (std::vector<int>{2}));
  EXPECT_TRUE(std::find(rejoin.accepted.begin(), rejoin.accepted.end(), 2) !=
              rejoin.accepted.end());

  // It picked up the current global model (its parameters moved again)...
  bool moved = false;
  const nn::FlatParams after = sim.clients()[2].model().parameters();
  for (std::size_t j = 0; j < after.as_span().size() && !moved; ++j)
    moved = after.as_span()[j] != before_absence.as_span()[j];
  EXPECT_TRUE(moved);

  // ...while its DINAR private layer stays personal: the obfuscated layer
  // it trains on differs from the server's aggregate of obfuscation noise.
  nn::Model global = sim.global_model();
  const auto [begin, end] = global.layer_param_span(1);
  const nn::FlatParams& global_params = sim.server().global_params();
  bool personal = false;
  for (std::size_t t = begin; t < end && !personal; ++t)
    for (std::size_t j = 0; j < after.entry_span(t).size() && !personal; ++j)
      personal = std::abs(after.entry_span(t)[j] - global_params.entry_span(t)[j]) > 1e-6f;
  EXPECT_TRUE(personal);
}

TEST(ChurnSimulationTest, CheckpointResumeIsDeterministicUnderChurnAndAttack) {
  SimulationConfig cfg;
  cfg.rounds = 6;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 13;
  cfg.client_fraction = 0.6;  // selection must re-fork per round
  cfg.min_clients = 2;
  cfg.churn.join_at_round[4] = 2;
  cfg.churn.away[1] = {{2, 4}};
  cfg.adversaries.attackers[0] = AttackType::kGaussianNoise;
  cfg.adversaries.noise_std = 0.1;
  cfg.robust.method = "trimmed_mean";

  const auto full_state = [](const FederatedSimulation& sim) {
    BinaryWriter w;
    sim.save_full_state(w);
    return w.take();
  };
  // Save the full state at round 3, then let the same run finish
  // uninterrupted.
  FederatedSimulation first(tiny_mlp_factory(2, 2), easy_split(5, 600, 73), cfg,
                            DefenseBundle{});
  for (int r = 0; r < 3; ++r) first.run_round();
  const std::vector<std::uint8_t> checkpoint = full_state(first);
  first.run();

  auto resume = [&] {
    FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(5, 600, 73), cfg,
                            DefenseBundle{});
    BinaryReader r(checkpoint);
    sim.restore_full_state(r);
    sim.run();
    return sim;
  };
  FederatedSimulation a = resume();
  FederatedSimulation b = resume();
  // Resuming is byte-equal to never having stopped: the joining, returning
  // and attacking clients' private state came back with the server's.
  EXPECT_EQ(full_state(a), full_state(first));

  const nn::FlatParams& pa = a.server().global_params();
  const nn::FlatParams& pb = b.server().global_params();
  for (std::size_t j = 0; j < pa.as_span().size(); ++j)
    EXPECT_EQ(pa.as_span()[j], pb.as_span()[j]);

  // The replayed rounds took identical decisions: same rosters, the same
  // selections, the same attackers, the same aggregator treatment.
  ASSERT_EQ(a.round_log().size(), b.round_log().size());
  for (std::size_t i = 0; i < a.round_log().size(); ++i) {
    const RoundOutcome& ra = a.round_log()[i];
    const RoundOutcome& rb = b.round_log()[i];
    EXPECT_EQ(ra.selected, rb.selected);
    EXPECT_EQ(ra.accepted, rb.accepted);
    EXPECT_EQ(ra.attackers, rb.attackers);
    EXPECT_EQ(ra.roster_size, rb.roster_size);
    EXPECT_EQ(ra.joined, rb.joined);
    EXPECT_EQ(ra.aggregator_flags.size(), rb.aggregator_flags.size());
  }
}

// Restore into a quarantine-heavy round: the server comes back at the
// checkpointed round, refuses a round full of invalid updates, carries
// forward, and then aggregates normally once valid updates arrive.
TEST(ServerInterplayTest, RestoreThenQuarantineHeavyRoundThenCarryForward) {
  FlServer server(one_tensor(1.0f), std::make_unique<NoServerDefense>());
  server.restore(3, one_tensor(2.0f));
  EXPECT_EQ(server.round(), 3);

  ModelUpdateMsg stale = update_of(0, 5.0f);  // round 0 != restored round 3
  ModelUpdateMsg poisoned = update_of(1, 5.0f);
  poisoned.round = 3;
  poisoned.params.as_span()[0] = std::numeric_limits<float>::quiet_NaN();
  const std::vector<ModelUpdateMsg> suspect{stale, poisoned};
  HardenedRound out = validate_and_aggregate(server, suspect, /*quorum=*/1);
  EXPECT_FALSE(out.aggregated);
  ASSERT_EQ(out.verdicts.size(), 2u);
  EXPECT_EQ(out.verdicts[0].reason, RejectReason::kWrongRound);
  EXPECT_EQ(out.verdicts[1].reason, RejectReason::kNonFinite);
  EXPECT_EQ(server.round(), 3);
  EXPECT_EQ(server.global_params().as_span()[0], 2.0f);

  server.carry_forward();  // degraded round keeps the restored model
  EXPECT_EQ(server.round(), 4);
  EXPECT_EQ(server.global_params().as_span()[0], 2.0f);

  ModelUpdateMsg good = update_of(0, 6.0f);
  good.round = 4;
  const std::vector<ModelUpdateMsg> healthy{good};
  out = validate_and_aggregate(server, healthy, /*quorum=*/1);
  EXPECT_TRUE(out.aggregated);
  EXPECT_EQ(server.round(), 5);
  EXPECT_NEAR(server.global_params().as_span()[0], 6.0f, 1e-6);
}

// -------------------------------------------------------- config validation --

std::string construction_error(const SimulationConfig& cfg, int clients = 3) {
  try {
    FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(clients, 90, 74), cfg,
                            DefenseBundle{});
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(SimulationConfigValidationTest, RejectsOutOfRangeValuesWithNamedErrors) {
  SimulationConfig base;
  base.rounds = 2;
  base.train = TrainConfig{1, 32};

  SimulationConfig cfg = base;
  cfg.client_fraction = 0.0;
  EXPECT_NE(construction_error(cfg).find("client_fraction"), std::string::npos);
  cfg.client_fraction = 1.5;
  EXPECT_NE(construction_error(cfg).find("client_fraction"), std::string::npos);

  cfg = base;
  cfg.rounds = 0;
  EXPECT_NE(construction_error(cfg).find("rounds"), std::string::npos);

  cfg = base;
  cfg.min_clients = 9;  // roster of 3
  EXPECT_NE(construction_error(cfg).find("min_clients"), std::string::npos);

  cfg = base;
  cfg.max_retries = -1;
  EXPECT_NE(construction_error(cfg).find("max_retries"), std::string::npos);

  cfg = base;
  cfg.retry_backoff_seconds = -0.5;
  EXPECT_NE(construction_error(cfg).find("retry_backoff_seconds"), std::string::npos);

  cfg = base;
  cfg.round_deadline_seconds = -1.0;
  EXPECT_NE(construction_error(cfg).find("round_deadline_seconds"), std::string::npos);

  cfg = base;
  cfg.eval_every = -2;
  EXPECT_NE(construction_error(cfg).find("eval_every"), std::string::npos);

  // A federation that cannot train is rejected up front: zero epochs
  // would upload the broadcast unchanged every round.
  for (const int epochs : {0, -1}) {
    cfg = base;
    cfg.train.epochs = epochs;
    EXPECT_NE(construction_error(cfg).find("SimulationConfig.train.epochs"),
              std::string::npos)
        << epochs;
  }
  for (const std::int64_t batch : {std::int64_t{0}, std::int64_t{-4}}) {
    cfg = base;
    cfg.train.batch_size = batch;
    EXPECT_NE(construction_error(cfg).find("SimulationConfig.train.batch_size"),
              std::string::npos)
        << batch;
  }
  for (const double lr : {0.0, -1e-3, std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity()}) {
    cfg = base;
    cfg.learning_rate = lr;
    EXPECT_NE(construction_error(cfg).find("SimulationConfig.learning_rate"),
              std::string::npos)
        << lr;
  }

  // A valid config constructs.
  EXPECT_EQ(construction_error(base), "");
}

TEST(SimulationConfigValidationTest, RejectsInconsistentChurnAndAttackers) {
  SimulationConfig base;
  base.rounds = 2;
  base.train = TrainConfig{1, 32};

  SimulationConfig cfg = base;
  cfg.churn.join_at_round[9] = 1;  // roster of 3
  EXPECT_NE(construction_error(cfg).find("join_at_round"), std::string::npos);

  cfg = base;
  cfg.churn.away[0] = {{1, 3}, {2, 4}};  // overlapping
  EXPECT_NE(construction_error(cfg).find("overlap"), std::string::npos);

  cfg = base;
  cfg.churn.away[0] = {{2, 2}};  // rejoin must follow leave
  EXPECT_NE(construction_error(cfg).find("rejoin"), std::string::npos);

  cfg = base;
  cfg.churn.away[0] = {{1, -1}, {5, 6}};  // life after permanent departure
  EXPECT_NE(construction_error(cfg).find("permanent"), std::string::npos);

  cfg = base;
  cfg.churn.join_at_round[1] = 3;
  cfg.churn.away[1] = {{1, 2}};  // away before it ever joined
  EXPECT_NE(construction_error(cfg).find("before its join round"), std::string::npos);

  cfg = base;
  cfg.adversaries.attackers[7] = AttackType::kSignFlip;  // roster of 3
  EXPECT_NE(construction_error(cfg).find("attackers"), std::string::npos);
}

// --------------------------------------------------- per-round fault deltas --

TEST(FaultDeltaTest, PerRoundDeltasSumToInjectorTotals) {
  SimulationConfig cfg;
  cfg.rounds = 3;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 4242;
  cfg.min_clients = 1;
  cfg.faults.drop_up = 0.3;
  cfg.faults.corrupt_up = 0.1;
  cfg.faults.crash_at_round[0] = 1;
  cfg.faults.seed = 3;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(5, 400, 75), cfg,
                          DefenseBundle{});
  sim.run();

  FaultStats summed;
  for (const RoundOutcome& out : sim.round_log()) {
    summed.drops_up += out.fault_delta.drops_up;
    summed.drops_down += out.fault_delta.drops_down;
    summed.corruptions_up += out.fault_delta.corruptions_up;
    summed.crashed_contacts += out.fault_delta.crashed_contacts;
  }
  const FaultStats& total = sim.transport().faults()->stats();
  EXPECT_EQ(summed.drops_up, total.drops_up);
  EXPECT_EQ(summed.drops_down, total.drops_down);
  EXPECT_EQ(summed.corruptions_up, total.corruptions_up);
  EXPECT_EQ(summed.crashed_contacts, total.crashed_contacts);
  EXPECT_GT(total.drops_up + total.corruptions_up, 0u);
  EXPECT_GT(total.crashed_contacts, 0u);
}

TEST(FaultDeltaTest, DeltaIsCounterWiseDifference) {
  FaultStats before;
  before.drops_up = 2;
  before.corruptions_up = 1;
  FaultStats now = before;
  now.drops_up = 5;
  now.duplicates_down = 4;
  const FaultStats d = fault_stats_delta(now, before);
  EXPECT_EQ(d.drops_up, 3u);
  EXPECT_EQ(d.corruptions_up, 0u);
  EXPECT_EQ(d.duplicates_down, 4u);
}

}  // namespace
}  // namespace dinar::fl
