#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>

#include "privacy/defense_catalog.h"
#include "privacy/dp.h"
#include "privacy/gradient_compression.h"
#include "privacy/secure_aggregation.h"
#include "test_helpers.h"
#include "util/error.h"

namespace dinar::privacy {
namespace {

using dinar::testing::make_tiny_mlp;

nn::FlatParams sample_params(std::uint64_t seed, float scale = 1.0f) {
  Rng rng(seed);
  std::vector<Tensor> p;
  p.push_back(Tensor::gaussian({8, 4}, rng, scale));
  p.push_back(Tensor::gaussian({4}, rng, scale));
  return nn::FlatParams::from_tensors(p);
}

// --------------------------------------------------------------------- dp --

TEST(DpParamsTest, SigmaMatchesGaussianMechanism) {
  DpParams p;
  p.epsilon = 2.2;
  p.delta = 1e-5;
  p.sensitivity = 0.02;
  const double expected = 0.02 * std::sqrt(2.0 * std::log(1.25 / 1e-5)) / 2.2;
  EXPECT_NEAR(p.sigma(), expected, 1e-12);
}

TEST(DpParamsTest, SmallerEpsilonMeansMoreNoise) {
  DpParams lo, hi;
  lo.epsilon = 0.05;
  hi.epsilon = 2.2;
  EXPECT_GT(lo.sigma(), hi.sigma());
}

TEST(DpParamsTest, InvalidBudgetThrows) {
  DpParams p;
  p.epsilon = 0.0;
  EXPECT_THROW(p.sigma(), Error);
}

TEST(ClipTest, NormAboveBoundIsScaledDown) {
  nn::FlatParams p = sample_params(1, 10.0f);
  ASSERT_GT(nn::flat_l2_norm(p), 5.0);
  clip_l2(p, 5.0);
  EXPECT_NEAR(nn::flat_l2_norm(p), 5.0, 1e-4);
}

TEST(ClipTest, NormBelowBoundUntouched) {
  nn::FlatParams p = sample_params(2, 0.01f);
  const double before = nn::flat_l2_norm(p);
  clip_l2(p, 5.0);
  EXPECT_DOUBLE_EQ(nn::flat_l2_norm(p), before);
}

TEST(NoiseTest, GaussianNoiseHasRequestedScale) {
  std::vector<Tensor> raw;
  raw.push_back(Tensor({20000}));
  nn::FlatParams p = nn::FlatParams::from_tensors(raw);
  Rng rng(3);
  add_gaussian_noise(p, 0.5, rng);
  double sq = 0.0;
  for (float v : p.as_span()) sq += static_cast<double>(v) * v;
  EXPECT_NEAR(std::sqrt(sq / 20000.0), 0.5, 0.02);
}

TEST(NoiseTest, ZeroSigmaIsNoop) {
  nn::FlatParams p = sample_params(4);
  nn::FlatParams orig = p;
  Rng rng(5);
  add_gaussian_noise(p, 0.0, rng);
  EXPECT_EQ(p.as_span()[0], orig.as_span()[0]);
}

TEST(LdpDefenseTest, PerturbsUpload) {
  Rng rng(6);
  nn::Model model = make_tiny_mlp(4, 2, rng);
  DpParams dp;
  LdpDefense defense(dp, Rng(7));
  bool pre_weighted = false;
  nn::FlatParams before = model.parameters();
  nn::FlatParams after = defense.before_upload(model, model.parameters(), 100, pre_weighted);
  EXPECT_FALSE(pre_weighted);
  ASSERT_TRUE(before.same_layout(after));
  double diff = 0.0;
  for (std::size_t j = 0; j < before.as_span().size(); ++j)
    diff += std::fabs(before.as_span()[j] - after.as_span()[j]);
  EXPECT_GT(diff, 0.0);
  // The live model must be untouched (defense transforms the copy).
  nn::FlatParams still = model.parameters();
  EXPECT_EQ(still.as_span()[0], before.as_span()[0]);
}

TEST(WdpDefenseTest, UsesFixedSigmaAndBound) {
  Rng rng(8);
  nn::Model model = make_tiny_mlp(4, 2, rng);
  WdpDefense defense(5.0, 0.025, Rng(9));
  bool pw = false;
  nn::FlatParams out = defense.before_upload(model, model.parameters(), 10, pw);
  EXPECT_LE(nn::flat_l2_norm(out),
            5.0 + 0.025 * std::sqrt(static_cast<double>(out.numel())) * 4);
}

TEST(CdpDefenseTest, PerturbsAggregate) {
  DpParams dp;
  CdpDefense defense(dp, Rng(10));
  nn::FlatParams p = sample_params(11);
  nn::FlatParams orig = p;
  defense.after_aggregate(p);
  double diff = 0.0;
  for (std::size_t j = 0; j < p.entry_span(0).size(); ++j)
    diff += std::fabs(p.entry_span(0)[j] - orig.entry_span(0)[j]);
  EXPECT_GT(diff, 0.0);
}

// --------------------------------------------------------------------- gc --

TEST(GcDefenseTest, KeepsTopFractionOfDelta) {
  Rng rng(12);
  nn::Model model = make_tiny_mlp(4, 2, rng);
  GradientCompressionDefense defense(0.25);

  nn::FlatParams reference = model.parameters();
  defense.on_download(model, reference);

  // Perturb the model so the delta is dense.
  nn::FlatParams perturbed = reference;
  Rng noise_rng(13);
  for (float& v : perturbed.as_span())
    v += static_cast<float>(noise_rng.gaussian(0.0, 0.1));
  model.set_parameters(perturbed);

  bool pw = false;
  nn::FlatParams out = defense.before_upload(model, model.parameters(), 10, pw);

  std::int64_t changed = 0, total = 0;
  for (std::size_t j = 0; j < out.as_span().size(); ++j) {
    total += 1;
    if (out.as_span()[j] != reference.as_span()[j]) ++changed;
  }
  const double kept = static_cast<double>(changed) / static_cast<double>(total);
  EXPECT_NEAR(kept, 0.25, 0.05);
}

TEST(GcDefenseTest, UploadBeforeDownloadThrows) {
  Rng rng(14);
  nn::Model model = make_tiny_mlp(4, 2, rng);
  GradientCompressionDefense defense(0.1);
  bool pw = false;
  EXPECT_THROW(defense.before_upload(model, model.parameters(), 10, pw), Error);
}

TEST(GcDefenseTest, InvalidRatioRejected) {
  EXPECT_THROW(GradientCompressionDefense(0.0), Error);
  EXPECT_THROW(GradientCompressionDefense(1.5), Error);
}

// --------------------------------------------------------------------- sa --

TEST(SaGroupTest, PairSeedsSymmetricAndDistinct) {
  SecureAggregationGroup group(5, 42);
  EXPECT_EQ(group.pair_seed(1, 3), group.pair_seed(3, 1));
  EXPECT_NE(group.pair_seed(0, 1), group.pair_seed(0, 2));
  EXPECT_NE(group.pair_seed(0, 1), group.pair_seed(1, 2));
  EXPECT_THROW(group.pair_seed(2, 2), Error);
  EXPECT_THROW(group.pair_seed(0, 9), Error);
}

TEST(SaGroupTest, NeedsTwoClients) {
  EXPECT_THROW(SecureAggregationGroup(1, 1), Error);
}

// Property: masks cancel in the sum for any group size.
class SaCancellationTest : public ::testing::TestWithParam<int> {};

TEST_P(SaCancellationTest, MaskedSumEqualsPlainSum) {
  const int n = GetParam();
  auto group = std::make_shared<SecureAggregationGroup>(n, 99);
  Rng rng(15);
  nn::Model model = make_tiny_mlp(4, 2, rng);

  nn::FlatParams plain_sum, masked_sum;
  for (int c = 0; c < n; ++c) {
    SecureAggregationDefense defense(group, c);
    nn::FlatParams params = sample_params(100 + static_cast<std::uint64_t>(c), 0.05f);
    // plain contribution: weight * params
    nn::FlatParams weighted = params;
    nn::flat_scale(weighted, 10.0f);
    if (c == 0) {
      plain_sum = nn::FlatParams(params.index());
      masked_sum = nn::FlatParams(params.index());
    }
    nn::flat_add(plain_sum, weighted);
    bool pw = false;
    nn::FlatParams masked = defense.before_upload(model, std::move(params), 10, pw);
    EXPECT_TRUE(pw);
    nn::flat_add(masked_sum, masked);
  }

  for (std::size_t j = 0; j < plain_sum.as_span().size(); ++j)
    EXPECT_NEAR(masked_sum.as_span()[j], plain_sum.as_span()[j], 5e-2);
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, SaCancellationTest, ::testing::Values(2, 3, 5, 8));

TEST(SaDefenseTest, IndividualUploadIsMasked) {
  auto group = std::make_shared<SecureAggregationGroup>(3, 7);
  Rng rng(16);
  nn::Model model = make_tiny_mlp(4, 2, rng);
  SecureAggregationDefense defense(group, 0);
  nn::FlatParams params = model.parameters();
  bool pw = false;
  nn::FlatParams masked = defense.before_upload(model, model.parameters(), 10, pw);
  // Masked values should be dominated by the stddev-1 masks, far from the
  // raw small weights.
  double dist = 0.0;
  std::int64_t n = 0;
  for (std::size_t j = 0; j < params.as_span().size(); ++j) {
    dist += std::fabs(masked.as_span()[j] - params.as_span()[j] * 10.0f);
    ++n;
  }
  EXPECT_GT(dist / static_cast<double>(n), 0.3);
}

TEST(SaDefenseTest, RoundsUseFreshMasks) {
  auto group = std::make_shared<SecureAggregationGroup>(2, 8);
  Rng rng(17);
  nn::Model model = make_tiny_mlp(4, 2, rng);
  SecureAggregationDefense defense(group, 0);
  bool pw = false;
  nn::FlatParams r1 = defense.before_upload(model, model.parameters(), 10, pw);
  nn::FlatParams r2 = defense.before_upload(model, model.parameters(), 10, pw);
  EXPECT_NE(r1.as_span()[0], r2.as_span()[0]);
}

// ---------------------------------------------------------------- catalog --

TEST(DefenseCatalogTest, AllBaselineNamesConstruct) {
  BaselineDefenseConfig cfg;
  for (const char* name : {"none", "ldp", "cdp", "wdp", "gc", "sa"}) {
    fl::DefenseBundle bundle = make_baseline_bundle(name, cfg);
    EXPECT_EQ(bundle.name, name);
    auto client = bundle.make_client(0);
    auto server = bundle.make_server();
    ASSERT_NE(client, nullptr);
    ASSERT_NE(server, nullptr);
  }
}

TEST(DefenseCatalogTest, UnknownNameThrows) {
  EXPECT_THROW(make_baseline_bundle("quantum", BaselineDefenseConfig{}), Error);
}

TEST(DefenseCatalogTest, BundleDefensesCarryExpectedNames) {
  BaselineDefenseConfig cfg;
  EXPECT_EQ(make_baseline_bundle("ldp", cfg).make_client(0)->name(), "ldp");
  EXPECT_EQ(make_baseline_bundle("cdp", cfg).make_server()->name(), "cdp");
  EXPECT_EQ(make_baseline_bundle("sa", cfg).make_client(1)->name(), "sa");
  EXPECT_EQ(make_baseline_bundle("gc", cfg).make_client(0)->name(), "gc");
}

// ------------------------------------------------- SA config rejections --

// A 4-client federation over SA (or another baseline) with `tweak` applied
// to an otherwise valid config; constructing it runs the config checks.
void build_federation(const std::string& defense,
                      const std::function<void(fl::SimulationConfig&)>& tweak) {
  Rng rng(31);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 4;
  data::FlSplit split =
      data::make_fl_split(dinar::testing::make_easy_dataset(200, rng), split_cfg, rng);
  BaselineDefenseConfig defense_cfg;
  defense_cfg.num_clients = 4;
  fl::SimulationConfig cfg;
  cfg.rounds = 1;
  tweak(cfg);
  fl::FederatedSimulation sim(dinar::testing::tiny_mlp_factory(2, 2), std::move(split),
                              cfg, make_baseline_bundle(defense, defense_cfg));
}

// Expects constructing the SA federation to throw an error that names the
// defense and `setting`.
void expect_sa_rejected(const std::function<void(fl::SimulationConfig&)>& tweak,
                        const std::string& setting) {
  try {
    build_federation("sa", tweak);
    FAIL() << "SA with " << setting << " was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("defense 'sa'"), std::string::npos) << what;
    EXPECT_NE(what.find(setting), std::string::npos) << what;
  }
}

TEST(SecureAggregationConfigTest, OnlySaUploadsArePreWeighted) {
  BaselineDefenseConfig cfg;
  for (const char* name : {"none", "ldp", "wdp", "gc", "sa"})
    EXPECT_EQ(make_baseline_bundle(name, cfg).make_client(0)->uploads_pre_weighted(),
              std::string(name) == "sa")
        << name;
}

TEST(SecureAggregationConfigTest, RejectsALossyUpdateCodec) {
  expect_sa_rejected(
      [](fl::SimulationConfig& c) {
        c.codec.update.encoding = fl::WireEncoding::kInt8;
        c.codec.update.topk_fraction = 0.1;
      },
      "lossy update codec");
  expect_sa_rejected(
      [](fl::SimulationConfig& c) { c.codec.update.encoding = fl::WireEncoding::kF16; },
      "lossy update codec");
  expect_sa_rejected([](fl::SimulationConfig& c) { c.codec.update.topk_fraction = 0.5; },
                     "lossy update codec");
}

TEST(SecureAggregationConfigTest, RejectsRobustAggregation) {
  for (const std::string& method : fl::robust_aggregator_names()) {
    if (method == "fedavg") continue;
    expect_sa_rejected([&](fl::SimulationConfig& c) { c.robust.method = method; },
                       "robust.method '" + method + "'");
  }
}

TEST(SecureAggregationConfigTest, RejectsSharding) {
  expect_sa_rejected([](fl::SimulationConfig& c) { c.shard.num_shards = 2; },
                     "shard.num_shards = 2");
}

TEST(SecureAggregationConfigTest, RejectsPartialParticipation) {
  expect_sa_rejected([](fl::SimulationConfig& c) { c.client_fraction = 0.5; },
                     "client_fraction = 0.5");
}

TEST(SecureAggregationConfigTest, RejectsLossyLinks) {
  expect_sa_rejected([](fl::SimulationConfig& c) { c.faults.drop_up = 0.1; },
                     "faults.drop_up = 0.1");
  expect_sa_rejected([](fl::SimulationConfig& c) { c.faults.drop_down = 0.1; },
                     "faults.drop_down = 0.1");
  expect_sa_rejected([](fl::SimulationConfig& c) { c.faults.corrupt_up = 0.1; },
                     "faults.corrupt_up = 0.1");
  expect_sa_rejected([](fl::SimulationConfig& c) { c.faults.corrupt_down = 0.1; },
                     "faults.corrupt_down = 0.1");
}

TEST(SecureAggregationConfigTest, RejectsACrashSchedule) {
  expect_sa_rejected([](fl::SimulationConfig& c) { c.faults.crash_at_round[1] = 2; },
                     "faults.crash_at_round");
}

TEST(SecureAggregationConfigTest, RejectsChurn) {
  expect_sa_rejected([](fl::SimulationConfig& c) { c.churn.join_at_round[3] = 1; },
                     "churn");
  expect_sa_rejected([](fl::SimulationConfig& c) { c.churn.away[2] = {{1, 2}}; },
                     "churn");
}

TEST(SecureAggregationConfigTest, AcceptsTheExactConfigurations) {
  // Plain FedAvg over one shard with dense f32 uploads, and a lossy
  // broadcast (SA masks only the uplink).
  EXPECT_NO_THROW(build_federation("sa", [](fl::SimulationConfig&) {}));
  EXPECT_NO_THROW(build_federation("sa", [](fl::SimulationConfig& c) {
    c.codec.broadcast.encoding = fl::WireEncoding::kF16;
  }));
  // Duplicated and delayed copies still deliver every upload once.
  EXPECT_NO_THROW(build_federation("sa", [](fl::SimulationConfig& c) {
    c.faults.duplicate_up = 0.2;
    c.faults.delay_prob = 0.5;
    c.faults.delay_max_seconds = 0.01;
  }));
  // The rejected settings stay valid for the other defenses.
  EXPECT_NO_THROW(build_federation("ldp", [](fl::SimulationConfig& c) {
    c.codec.update.encoding = fl::WireEncoding::kInt8;
    c.robust.method = "median";
    c.shard.num_shards = 2;
    c.client_fraction = 0.5;
    c.faults.drop_up = 0.1;
    c.faults.corrupt_down = 0.1;
    c.faults.crash_at_round[1] = 2;
    c.churn.join_at_round[3] = 1;
  }));
}

}  // namespace
}  // namespace dinar::privacy
