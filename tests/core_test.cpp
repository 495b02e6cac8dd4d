#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "core/consensus.h"
#include "core/dinar.h"
#include "core/obfuscation.h"
#include "core/sensitivity.h"
#include "fl/trainer.h"
#include "opt/optimizers.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/stats.h"

namespace dinar::core {
namespace {

using dinar::testing::make_tiny_mlp;
using dinar::testing::make_tiny_tabular;
using dinar::testing::tiny_mlp_factory;

// ------------------------------------------------------------- sensitivity --

TEST(SensitivityTest, OneEntryPerParamLayerWithinBounds) {
  Rng rng(1);
  nn::Model model = make_tiny_mlp(32, 4, rng);
  data::Dataset members = make_tiny_tabular(200, 4, rng);
  data::Dataset non_members = make_tiny_tabular(200, 4, rng);

  const auto sens = analyze_layer_sensitivity(model, members, non_members);
  ASSERT_EQ(sens.size(), 3u);
  for (std::size_t i = 0; i < sens.size(); ++i) {
    EXPECT_EQ(sens[i].layer_index, i);
    EXPECT_GE(sens[i].divergence, 0.0);
    EXPECT_LE(sens[i].divergence, std::log(2.0) + 1e-9);
    EXPECT_FALSE(sens[i].layer_name.empty());
  }
}

TEST(SensitivityTest, TrainedModelSeparatesMembersFromNonMembers) {
  // After overfitting on the member pool, at least one layer must show a
  // clearly nonzero member/non-member gradient divergence.
  Rng rng(2);
  data::Dataset members = make_tiny_tabular(150, 4, rng);
  data::Dataset non_members = make_tiny_tabular(150, 4, rng);
  nn::Model model = make_tiny_mlp(32, 4, rng);
  auto opt = opt::make_optimizer("adagrad", 1e-2);
  Rng train_rng(3);
  fl::train_local(model, members, *opt, fl::TrainConfig{30, 32}, train_rng);

  const auto sens = analyze_layer_sensitivity(model, members, non_members);
  const std::size_t top = most_sensitive_layer(sens);
  EXPECT_GT(sens[top].divergence, 0.01);
}

TEST(SensitivityTest, MostSensitiveLayerIsArgmax) {
  std::vector<LayerSensitivity> s(3);
  for (std::size_t i = 0; i < 3; ++i) s[i].layer_index = i;
  s[0].divergence = 0.1;
  s[1].divergence = 0.5;
  s[2].divergence = 0.3;
  EXPECT_EQ(most_sensitive_layer(s), 1u);
  EXPECT_THROW(most_sensitive_layer({}), Error);
}

TEST(SensitivityTest, EmptyPoolsRejected) {
  Rng rng(4);
  nn::Model model = make_tiny_mlp(32, 4, rng);
  data::Dataset d = make_tiny_tabular(50, 4, rng);
  EXPECT_THROW(analyze_layer_sensitivity(model, {}, d), Error);
  EXPECT_THROW(analyze_layer_sensitivity(model, d, {}), Error);
}

// --------------------------------------------------------------- consensus --

TEST(ConsensusTest, UnanimousProposalWins) {
  Rng rng(5);
  ConsensusResult r = run_layer_consensus({4, 4, 4, 4, 4}, std::vector<bool>(5, false),
                                          6, rng);
  EXPECT_EQ(r.agreed_layer, 4u);
  EXPECT_TRUE(r.honest_agreement);
}

TEST(ConsensusTest, MajorityBeatsMinority) {
  Rng rng(6);
  ConsensusResult r = run_layer_consensus({4, 4, 4, 2, 1}, std::vector<bool>(5, false),
                                          6, rng);
  EXPECT_EQ(r.agreed_layer, 4u);
}

TEST(ConsensusTest, TieBreaksToLowestIndex) {
  Rng rng(7);
  ConsensusResult r = run_layer_consensus({5, 5, 2, 2}, std::vector<bool>(4, false),
                                          6, rng);
  EXPECT_EQ(r.agreed_layer, 2u);
  EXPECT_TRUE(r.honest_agreement);
}

// Property: honest absolute majority always wins, for varying numbers of
// Byzantine voters below half.
class ByzantineToleranceTest : public ::testing::TestWithParam<int> {};

TEST_P(ByzantineToleranceTest, HonestMajorityPrevails) {
  const int num_byzantine = GetParam();
  const int n = 9;  // 9 voters, up to 4 Byzantine
  std::vector<std::size_t> proposals(n, 4);  // honest nodes propose layer 4
  std::vector<bool> byzantine(n, false);
  for (int i = 0; i < num_byzantine; ++i) byzantine[static_cast<std::size_t>(i)] = true;

  // Across several vote rounds with random Byzantine behaviour, the honest
  // common proposal must always be decided by the honest nodes.
  for (std::uint64_t trial = 0; trial < 10; ++trial) {
    Rng rng(100 + trial);
    ConsensusResult r = run_layer_consensus(proposals, byzantine, 6, rng);
    EXPECT_EQ(r.agreed_layer, 4u) << "trial " << trial;
    EXPECT_TRUE(r.honest_agreement);
  }
}

INSTANTIATE_TEST_SUITE_P(FaultCounts, ByzantineToleranceTest,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(ConsensusTest, AllByzantineRejected) {
  Rng rng(8);
  EXPECT_THROW(run_layer_consensus({1, 2}, {true, true}, 4, rng), Error);
}

TEST(ConsensusTest, OutOfRangeProposalRejected) {
  Rng rng(9);
  EXPECT_THROW(run_layer_consensus({7}, {false}, 4, rng), Error);
}

// At exactly half Byzantine the honest majority disappears: Byzantine
// voters send different random votes to different peers, so honest nodes
// can tally different winners. The protocol must report the disagreement
// (honest_agreement = false) rather than hide it; observing it flag at
// least once over many seeds proves the detector is wired through.
TEST(ConsensusTest, ExactlyHalfByzantineIsDetectedAsDisagreement) {
  const std::vector<std::size_t> proposals{3, 3, 0, 0};
  const std::vector<bool> byzantine{false, false, true, true};
  int disagreements = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    ConsensusResult r = run_layer_consensus(proposals, byzantine, 4, rng);
    if (!r.honest_agreement) ++disagreements;
    // Node decisions are always reported for every voter, agreed or not.
    EXPECT_EQ(r.node_decisions.size(), 4u);
  }
  EXPECT_GT(disagreements, 0);
}

TEST(ConsensusTest, SingleHonestNodeDecidesItsOwnProposal) {
  Rng rng(10);
  ConsensusResult r = run_layer_consensus({2}, {false}, 4, rng);
  EXPECT_EQ(r.agreed_layer, 2u);
  EXPECT_TRUE(r.honest_agreement);
  EXPECT_EQ(r.node_decisions, std::vector<std::size_t>{2});
}

// The lowest-index tie-break must not depend on the RNG: an all-honest
// tied vote decides identically under every seed.
TEST(ConsensusTest, TieBreakIsSeedIndependent) {
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(seed);
    ConsensusResult r =
        run_layer_consensus({5, 5, 2, 2}, std::vector<bool>(4, false), 6, rng);
    EXPECT_EQ(r.agreed_layer, 2u) << "seed " << seed;
    EXPECT_TRUE(r.honest_agreement);
  }
}

TEST(VotingNodeTest, HonestVoteIsProposal) {
  Rng rng(10);
  VotingNode node(0, 3);
  EXPECT_EQ(node.cast_vote(5, rng), 3u);
}

TEST(VotingNodeTest, DecideWithoutVotesThrows) {
  VotingNode node(0, 1);
  EXPECT_THROW(node.decide(), Error);
}

// ------------------------------------------------------------- obfuscation --

TEST(ObfuscationTest, ReplacesValuesScaleMatched) {
  Rng init(11);
  Tensor t = Tensor::gaussian({2000}, init, 0.05f);
  Tensor orig = t;
  Rng rng(12);
  obfuscate_span(t.values(), rng);

  // Values changed...
  std::int64_t unchanged = 0;
  for (std::int64_t i = 0; i < t.numel(); ++i)
    if (t.at(i) == orig.at(i)) ++unchanged;
  EXPECT_LT(unchanged, 5);

  // ...and stayed within ±3 sigma of the original scale.
  for (float v : t.values()) EXPECT_LE(std::fabs(v), 3.0f * 0.06f + 0.01f);
}

TEST(ObfuscationTest, ZeroTensorGetsFallbackScale) {
  Tensor t({100});
  Rng rng(13);
  obfuscate_span(t.values(), rng);
  double sq = 0.0;
  for (float v : t.values()) sq += static_cast<double>(v) * v;
  EXPECT_GT(sq, 0.0);
  for (float v : t.values()) EXPECT_LE(std::fabs(v), 0.1f);
}

TEST(ObfuscationTest, SnapshotLayerTargeting) {
  Rng rng(14);
  nn::Model model = make_tiny_mlp(8, 3, rng);
  nn::FlatParams snapshot = model.parameters();
  nn::FlatParams orig = snapshot;
  Rng orng(15);
  obfuscate_layer_in_snapshot(model, snapshot, 1, orng);

  const auto [begin, end] = model.layer_param_span(1);
  for (std::size_t i = 0; i < snapshot.index()->num_entries(); ++i) {
    bool changed = false;
    for (std::size_t j = 0; j < snapshot.entry_span(i).size(); ++j)
      if (snapshot.entry_span(i)[j] != orig.entry_span(i)[j]) changed = true;
    if (i >= begin && i < end)
      EXPECT_TRUE(changed) << "layer entry " << i << " should be obfuscated";
    else
      EXPECT_FALSE(changed) << "entry " << i << " must be untouched";
  }
}

// ----------------------------------------------------------- dinar defense --

TEST(DinarDefenseTest, UploadObfuscatesOnlyProtectedLayer) {
  Rng rng(16);
  nn::Model model = make_tiny_mlp(8, 3, rng);
  DinarDefense defense({2}, Rng(17));
  defense.initialize(model, 0);

  nn::FlatParams live_before = model.parameters();
  bool pw = false;
  nn::FlatParams upload = defense.before_upload(model, model.parameters(), 10, pw);
  EXPECT_FALSE(pw);

  const auto [begin, end] = model.layer_param_span(2);
  for (std::size_t i = 0; i < upload.index()->num_entries(); ++i) {
    const bool inside = i >= begin && i < end;
    bool equal = true;
    for (std::size_t j = 0; j < upload.entry_span(i).size(); ++j)
      if (upload.entry_span(i)[j] != live_before.entry_span(i)[j]) equal = false;
    EXPECT_EQ(equal, !inside);
    // The outgoing index advertises exactly the obfuscated entries.
    EXPECT_EQ(upload.index()->entry(i).is_obfuscated, inside);
  }

  // Live model untouched by the upload transform.
  nn::FlatParams live_after = model.parameters();
  for (std::size_t j = 0; j < live_before.as_span().size(); ++j)
    EXPECT_EQ(live_after.as_span()[j], live_before.as_span()[j]);
}

TEST(DinarDefenseTest, DownloadRestoresPrivateLayer) {
  Rng rng(18);
  nn::Model model = make_tiny_mlp(8, 3, rng);
  DinarDefense defense({1}, Rng(19));
  defense.initialize(model, 0);

  // Client trains: layer 1 takes distinctive values, then uploads (stores
  // theta_p^*).
  nn::FlatParams trained = model.layer_parameters(1);
  for (float& v : trained.entry_span(0)) v = 0.77f;
  for (float& v : trained.entry_span(1)) v = -0.33f;
  model.set_layer_parameters(1, trained);
  bool pw = false;
  defense.before_upload(model, model.parameters(), 10, pw);

  // Server sends back a different global model (all zeros).
  nn::FlatParams global = model.parameters();
  for (float& v : global.as_span()) v = 0.0f;
  defense.on_download(model, global);

  // Protected layer restored, everything else zero.
  nn::FlatParams restored = model.layer_parameters(1);
  EXPECT_EQ(restored.entry_span(0)[0], 0.77f);
  EXPECT_EQ(restored.entry_span(1)[0], -0.33f);
  EXPECT_EQ(nn::flat_l2_norm(model.layer_parameters(0)), 0.0);
  EXPECT_EQ(nn::flat_l2_norm(model.layer_parameters(2)), 0.0);
}

TEST(DinarDefenseTest, MultiLayerProtection) {
  Rng rng(20);
  nn::Model model = make_tiny_mlp(8, 3, rng);
  DinarDefense defense({0, 2}, Rng(21));
  defense.initialize(model, 0);
  bool pw = false;
  nn::FlatParams live = model.parameters();
  nn::FlatParams upload = defense.before_upload(model, model.parameters(), 10, pw);
  const auto [b0, e0] = model.layer_param_span(0);
  const auto [b2, e2] = model.layer_param_span(2);
  std::set<std::size_t> protected_slots;
  for (std::size_t i = b0; i < e0; ++i) protected_slots.insert(i);
  for (std::size_t i = b2; i < e2; ++i) protected_slots.insert(i);
  for (std::size_t i = 0; i < upload.index()->num_entries(); ++i) {
    bool equal = true;
    for (std::size_t j = 0; j < upload.entry_span(i).size(); ++j)
      if (upload.entry_span(i)[j] != live.entry_span(i)[j]) equal = false;
    EXPECT_EQ(equal, protected_slots.count(i) == 0);
  }
}

TEST(DinarDefenseTest, ValidatesLayerIndices) {
  Rng rng(22);
  nn::Model model = make_tiny_mlp(8, 3, rng);
  DinarDefense defense({9}, Rng(23));
  EXPECT_THROW(defense.initialize(model, 0), Error);
  EXPECT_THROW(DinarDefense({}, Rng(24)), Error);
  EXPECT_THROW(DinarDefense({1, 1}, Rng(25)), Error);
}

// ----------------------------------------------------------- initialization --

TEST(DinarInitTest, AgreesOnALayerAndRecordsMeasurements) {
  Rng rng(26);
  std::vector<data::Dataset> shards;
  for (int i = 0; i < 3; ++i) shards.push_back(make_tiny_tabular(150, 4, rng));
  data::Dataset non_members = make_tiny_tabular(150, 4, rng);

  DinarInitConfig cfg;
  cfg.warmup = fl::TrainConfig{8, 32};
  DinarInitResult result = run_dinar_initialization(tiny_mlp_factory(32, 4), shards,
                                                    non_members, cfg);
  EXPECT_LT(result.agreed_layer, 3u);
  EXPECT_EQ(result.proposals.size(), 3u);
  EXPECT_EQ(result.client_sensitivities.size(), 3u);
  EXPECT_TRUE(result.consensus.honest_agreement);
}

TEST(DinarInitTest, ByzantineClientsDoNotDerailStrongMajority) {
  Rng rng(27);
  std::vector<data::Dataset> shards;
  for (int i = 0; i < 5; ++i) shards.push_back(make_tiny_tabular(120, 4, rng));
  data::Dataset non_members = make_tiny_tabular(120, 4, rng);

  DinarInitConfig honest_cfg;
  honest_cfg.warmup = fl::TrainConfig{8, 32};
  DinarInitResult honest = run_dinar_initialization(tiny_mlp_factory(32, 4), shards,
                                                    non_members, honest_cfg);

  DinarInitConfig byz_cfg = honest_cfg;
  byz_cfg.byzantine_clients = {0};
  DinarInitResult with_byz = run_dinar_initialization(tiny_mlp_factory(32, 4), shards,
                                                      non_members, byz_cfg);
  // Honest proposals dominate; a single liar cannot flip the agreed layer
  // when the honest majority proposes a common index.
  if (honest.consensus.honest_agreement && with_byz.consensus.honest_agreement) {
    std::map<std::size_t, int> counts;
    for (std::size_t i = 1; i < honest.proposals.size(); ++i) ++counts[honest.proposals[i]];
    int best = 0;
    for (auto& [k, v] : counts) best = std::max(best, v);
    if (best >= 3) {
      EXPECT_EQ(with_byz.agreed_layer, honest.agreed_layer);
    }
  }
}

TEST(DinarBundleTest, ProducesDinarClients) {
  fl::DefenseBundle bundle = make_dinar_bundle({2});
  EXPECT_EQ(bundle.name, "dinar");
  auto client = bundle.make_client(0);
  EXPECT_EQ(client->name(), "dinar");
  auto server = bundle.make_server();
  EXPECT_EQ(server->name(), "none");  // DINAR is purely client-side
}

}  // namespace
}  // namespace dinar::core
