// Sharded hierarchical aggregation: the two-phase aggregator API, the
// aggregation session, and the tree's determinism / robustness contracts.
//
// The bit-identity tests use a "dyadic" cohort: every parameter, delta and
// weight is a small multiple of a power of two, so every float operation
// on every grouping of the cohort is exact — the shard-count invariance
// assertions below are exact bitwise equality, not tolerance checks. The
// divergence tests do the opposite: they pin down how far the documented
// non-invariant strategies (median / trimmed-mean / Krum) may drift from
// the flat path under Byzantine pressure, and where sharding genuinely
// weakens them (2-member shards cannot outvote their own attacker).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "fl/durable.h"
#include "fl/shard.h"
#include "fl/simulation.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/execution_context.h"
#include "util/serde.h"

namespace dinar::fl {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

constexpr std::uint64_t kSeed = 0xD1AAull;

data::FlSplit easy_split(int clients, std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  data::Dataset full = make_easy_dataset(n, rng);
  data::FlSplitConfig cfg;
  cfg.num_clients = clients;
  return data::make_fl_split(full, cfg, rng);
}

// Two entries (a {6} and a {3} tensor) so every aggregation exercises the
// layer-index run machinery, not just one flat block.
nn::FlatParams two_tensor_params() {
  return nn::FlatParams::from_tensors(
      {Tensor({6}, {0.5f, -0.25f, 1.0f, 0.0f, -1.5f, 0.75f}),
       Tensor({3}, {2.0f, -0.5f, 0.125f})});
}

ModelUpdateMsg update_for(int client, const nn::FlatParams& params,
                          std::int64_t samples = 1) {
  ModelUpdateMsg u;
  u.client_id = client;
  u.num_samples = samples;
  u.params = params;
  return u;
}

::testing::AssertionResult bitwise_equal(const nn::FlatParams& a,
                                         const nn::FlatParams& b) {
  const std::span<const float> sa = a.as_span();
  const std::span<const float> sb = b.as_span();
  if (sa.size() != sb.size())
    return ::testing::AssertionFailure()
           << "arena sizes differ: " << sa.size() << " vs " << sb.size();
  if (std::memcmp(sa.data(), sb.data(), sa.size() * sizeof(float)) != 0) {
    for (std::size_t j = 0; j < sa.size(); ++j)
      if (std::memcmp(&sa[j], &sb[j], sizeof(float)) != 0)
        return ::testing::AssertionFailure()
               << "first bit divergence at coordinate " << j << ": " << sa[j]
               << " vs " << sb[j];
  }
  return ::testing::AssertionSuccess();
}

// 16 client ids with exactly two members in each of the eight classes of
// shard_of(id, {8, kSeed}). Because shard_of(id, {m}) is the same hash mod
// m, the 2-shard split of this cohort is automatically balanced 8/8 and the
// 8-shard split 2-per-shard — the groupings the dyadic invariance tests
// compare.
std::vector<int> dyadic_cohort() {
  ShardConfig eight;
  eight.num_shards = 8;
  eight.assignment_seed = kSeed;
  std::array<int, 8> count{};
  std::vector<int> ids;
  for (int id = 0; ids.size() < 16 && id < 100000; ++id) {
    const std::uint32_t c = shard_of(id, eight);
    if (count[c] < 2) {
      ++count[c];
      ids.push_back(id);
    }
  }
  return ids;
}

// Absorbs `updates` in order into a session shaped by `cfg` and finalizes
// it.
HierarchicalResult run_session(RobustAggregator& agg,
                               const std::vector<ModelUpdateMsg>& updates,
                               const nn::FlatParams& global, const ShardConfig& cfg,
                               const ExecutionContext* exec) {
  agg.set_execution_context(exec);
  ShardedAggregationSession session(agg, global, cfg);
  for (const ModelUpdateMsg& u : updates) session.absorb(u);
  return session.finalize();
}

// Runs the tree with `threads` pool threads (0 = no execution context at
// all: every loop sequential on the caller).
HierarchicalResult run_tree(RobustAggregator& agg,
                            const std::vector<ModelUpdateMsg>& updates,
                            const nn::FlatParams& global, std::size_t shards,
                            unsigned threads) {
  ShardConfig cfg;
  cfg.num_shards = shards;
  cfg.assignment_seed = kSeed;
  if (threads == 0) {
    agg.set_execution_context(nullptr);
    return run_session(agg, updates, global, cfg, nullptr);
  }
  ExecConfig ec;
  ec.threads = threads;
  ExecutionContext exec(ec);
  agg.set_execution_context(&exec);
  HierarchicalResult out = run_session(agg, updates, global, cfg, &exec);
  agg.set_execution_context(nullptr);
  return out;
}

// ------------------------------------------------------------- registry --

TEST(ShardRegistryTest, KindNamesRoundTripThroughTheRegistry) {
  const std::array<AggregatorKind, 6> kinds = {
      AggregatorKind::kFedAvg,   AggregatorKind::kMedian,
      AggregatorKind::kTrimmedMean, AggregatorKind::kNormClip,
      AggregatorKind::kKrum,     AggregatorKind::kMultiKrum};
  const std::vector<std::string> names = robust_aggregator_names();
  EXPECT_EQ(names.size(), kinds.size());
  for (const AggregatorKind kind : kinds) {
    const std::string name = to_string(kind);
    EXPECT_EQ(aggregator_kind_from_name(name), kind);
    EXPECT_NE(std::find(names.begin(), names.end(), name), names.end());
    auto agg = make_robust_aggregator(kind);
    ASSERT_NE(agg, nullptr);
    EXPECT_EQ(agg->name(), name);
  }
}

TEST(ShardRegistryTest, UnknownKindFailsWithANamedError) {
  try {
    aggregator_kind_from_name("gradient_roulette");
    FAIL() << "unknown kind must throw";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown robust aggregator kind"), std::string::npos)
        << what;
    EXPECT_NE(what.find("gradient_roulette"), std::string::npos) << what;
    EXPECT_NE(what.find("fedavg"), std::string::npos)
        << "the error should list the registered kinds: " << what;
  }
}

// ----------------------------------------------------- shard assignment --

TEST(ShardAssignmentTest, AssignmentIsStableBoundedAndSeedSensitive) {
  ShardConfig cfg;
  cfg.num_shards = 8;
  cfg.assignment_seed = kSeed;
  std::array<int, 8> histogram{};
  bool seed_changes_something = false;
  for (int id = 0; id < 1000; ++id) {
    const std::uint32_t s = shard_of(id, cfg);
    ASSERT_LT(s, cfg.num_shards);
    EXPECT_EQ(s, shard_of(id, cfg)) << "assignment must be a pure function";
    ++histogram[s];
    ShardConfig other = cfg;
    other.assignment_seed = kSeed + 1;
    seed_changes_something |= shard_of(id, other) != s;
  }
  EXPECT_TRUE(seed_changes_something);
  for (int s = 0; s < 8; ++s)
    EXPECT_GT(histogram[s], 60) << "shard " << s
                                << " starved: splitmix64 should balance";

  // mod-m consistency: the 2-shard assignment is the 8-shard class mod 2.
  // The dyadic invariance tests below lean on exactly this property.
  ShardConfig two = cfg;
  two.num_shards = 2;
  for (int id = 0; id < 1000; ++id)
    EXPECT_EQ(shard_of(id, two), shard_of(id, cfg) % 2u);

  ShardConfig one;
  one.num_shards = 1;
  EXPECT_EQ(shard_of(1234, one), 0u);
}

// --------------------------------------------- single-shard bit-identity --

TEST(ShardHierarchyTest, SingleShardTreeMatchesFlatBitwiseForEveryMethod) {
  const nn::FlatParams global = two_tensor_params();
  std::vector<ModelUpdateMsg> updates;
  for (int i = 0; i < 12; ++i) {
    nn::FlatParams p = global;
    std::span<float> v = p.as_span();
    for (std::size_t j = 0; j < v.size(); ++j)
      v[j] += 0.05f * static_cast<float>((i * 7 + static_cast<int>(j) * 3) % 11 - 5);
    updates.push_back(update_for(i, p, 1 + i % 3));
  }

  for (const std::string& name : robust_aggregator_names()) {
    RobustConfig cfg;
    cfg.method = name;
    cfg.assumed_byzantine = 2;
    for (const unsigned threads : {0u, 4u}) {
      auto agg = make_robust_aggregator(cfg);
      const HierarchicalResult tree =
          run_tree(*agg, updates, global, /*shards=*/1, threads);
      const RobustAggregateResult flat = agg->aggregate(updates, global);
      EXPECT_TRUE(bitwise_equal(tree.result.params, flat.params))
          << name << " @ " << threads << " threads";
      EXPECT_EQ(tree.result.flags.size(), flat.flags.size()) << name;
      ASSERT_EQ(tree.shards.size(), 1u);
      EXPECT_EQ(tree.shards[0].num_updates, updates.size());
    }
  }
}

// ------------------------------------------- dyadic shard-count invariance --

TEST(ShardHierarchyTest, DyadicFedAvgIsShardCountAndThreadCountInvariant) {
  const std::vector<int> ids = dyadic_cohort();
  ASSERT_EQ(ids.size(), 16u);
  const nn::FlatParams global = two_tensor_params();
  std::vector<ModelUpdateMsg> updates;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nn::FlatParams p = global;
    std::span<float> v = p.as_span();
    for (std::size_t j = 0; j < v.size(); ++j)
      v[j] += 0.25f * static_cast<float>(static_cast<int>((i + j) % 5) - 2);
    updates.push_back(update_for(ids[i], p));  // num_samples == 1: dyadic
  }

  auto agg = make_robust_aggregator(AggregatorKind::kFedAvg);
  const HierarchicalResult base = run_tree(*agg, updates, global, 1, 0);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}})
    for (const unsigned threads : {0u, 1u, 4u}) {
      const HierarchicalResult r = run_tree(*agg, updates, global, shards, threads);
      EXPECT_TRUE(bitwise_equal(r.result.params, base.result.params))
          << shards << " shards @ " << threads << " threads";
      ASSERT_EQ(r.shards.size(), shards);
      for (const ShardStats& s : r.shards)
        EXPECT_EQ(s.num_updates, updates.size() / shards)
            << "dyadic cohort must balance at " << shards << " shards";
    }
}

TEST(ShardHierarchyTest, DyadicNormClipIsShardCountInvariantWhenNothingClips) {
  const std::vector<int> ids = dyadic_cohort();
  ASSERT_EQ(ids.size(), 16u);
  const nn::FlatParams global = two_tensor_params();
  std::vector<ModelUpdateMsg> updates;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nn::FlatParams p = global;
    std::span<float> v = p.as_span();
    // Every delta is +-0.25 per coordinate: all 16 norms are exactly
    // sqrt(9 * 0.0625) = 0.75, so the per-shard clip bound (2x the shard's
    // median norm) is 1.5 in EVERY grouping and nothing ever clips.
    for (std::size_t j = 0; j < v.size(); ++j)
      v[j] += ((i + j) % 2 == 0) ? 0.25f : -0.25f;
    updates.push_back(update_for(ids[i], p));
  }

  auto agg = make_robust_aggregator(AggregatorKind::kNormClip);
  const HierarchicalResult base = run_tree(*agg, updates, global, 1, 0);
  EXPECT_TRUE(base.result.flags.empty());
  for (const std::size_t shards : {std::size_t{2}, std::size_t{8}})
    for (const unsigned threads : {0u, 4u}) {
      const HierarchicalResult r = run_tree(*agg, updates, global, shards, threads);
      EXPECT_TRUE(bitwise_equal(r.result.params, base.result.params))
          << shards << " shards @ " << threads << " threads";
      EXPECT_TRUE(r.result.flags.empty()) << "equal norms must never clip";
      for (const ShardStats& s : r.shards) {
        EXPECT_DOUBLE_EQ(s.min_norm, 0.75);
        EXPECT_DOUBLE_EQ(s.max_norm, 0.75);
      }
    }
}

// ------------------------------------------------- documented divergence --

// Cohort for the Byzantine drift tests: 13 honest clients whose deltas
// span [-0.5, 0.5] on every coordinate, plus 3 attackers at +1000.
std::vector<ModelUpdateMsg> byzantine_cohort(const std::vector<int>& ids,
                                             const nn::FlatParams& global) {
  std::vector<ModelUpdateMsg> updates;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nn::FlatParams p = global;
    std::span<float> v = p.as_span();
    const bool attacker = i < 3;
    for (std::size_t j = 0; j < v.size(); ++j)
      v[j] += attacker ? 1000.0f
                       : 0.1f * static_cast<float>(static_cast<int>(i % 11) - 5);
    updates.push_back(update_for(ids[i], p));
  }
  return updates;
}

void expect_within_honest_hull(const nn::FlatParams& result,
                               const nn::FlatParams& global,
                               const std::string& label) {
  const std::span<const float> r = result.as_span();
  const std::span<const float> g = global.as_span();
  for (std::size_t j = 0; j < r.size(); ++j) {
    EXPECT_GE(r[j], g[j] - 0.5f - 1e-4f) << label << " coordinate " << j;
    EXPECT_LE(r[j], g[j] + 0.5f + 1e-4f) << label << " coordinate " << j;
  }
}

TEST(ShardHierarchyTest, RobustStrategiesStaySuppressiveAtHonestMajorityShards) {
  const std::vector<int> ids = dyadic_cohort();
  ASSERT_EQ(ids.size(), 16u);
  const nn::FlatParams global = two_tensor_params();
  const std::vector<ModelUpdateMsg> updates = byzantine_cohort(ids, global);

  for (const char* method : {"median", "trimmed_mean", "krum"}) {
    RobustConfig cfg;
    cfg.method = method;
    cfg.trim_fraction = 0.25;
    cfg.assumed_byzantine = 3;
    auto agg = make_robust_aggregator(cfg);

    // 2 shards of 8: worst case all three attackers share one shard, which
    // still holds an honest majority — every strategy keeps the aggregate
    // inside the honest hull, and the sharded result drifts from the flat
    // one by at most the hull width (the documented divergence bound).
    const HierarchicalResult flat = run_tree(*agg, updates, global, 1, 0);
    const HierarchicalResult sharded = run_tree(*agg, updates, global, 2, 4);
    expect_within_honest_hull(flat.result.params, global,
                              std::string(method) + "/flat");
    expect_within_honest_hull(sharded.result.params, global,
                              std::string(method) + "/2-shard");
    const std::span<const float> a = flat.result.params.as_span();
    const std::span<const float> b = sharded.result.params.as_span();
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_LE(std::fabs(a[j] - b[j]), 1.0f + 1e-4f)
          << method << " drift at coordinate " << j;
  }
}

TEST(ShardHierarchyTest, TwoMemberShardsCannotOutvoteTheirAttackerDocumented) {
  const std::vector<int> ids = dyadic_cohort();
  ASSERT_EQ(ids.size(), 16u);
  const nn::FlatParams global = two_tensor_params();
  const std::vector<ModelUpdateMsg> updates = byzantine_cohort(ids, global);

  RobustConfig cfg;
  cfg.method = "median";
  auto agg = make_robust_aggregator(cfg);
  const HierarchicalResult flat = run_tree(*agg, updates, global, 1, 0);
  // 8 shards of 2: a 2-member shard's median IS the pair mean, and its
  // outlier screen cannot separate two equidistant members, so an attacker
  // leaks roughly weight * 1000 into the root merge. This is the
  // documented trade-off of deep trees — SimulationConfig validation and
  // DESIGN.md §12 both warn about robustness floors, and this test pins
  // the failure mode so it stays documented rather than silent.
  const HierarchicalResult deep = run_tree(*agg, updates, global, 8, 4);
  const float drift =
      deep.result.params.as_span()[0] - flat.result.params.as_span()[0];
  EXPECT_GT(drift, 10.0f)
      << "2-member shards are expected to leak the attacker; if this starts "
         "passing the hull check, the divergence documentation is stale";
}

TEST(ShardHierarchyTest, ObfuscatedLayerExclusionHoldsInsideEveryShard) {
  const std::vector<int> ids = dyadic_cohort();
  ASSERT_EQ(ids.size(), 16u);
  const nn::FlatParams global = two_tensor_params();
  // Full DINAR federation: every client uploads honest training signal in
  // tensor 0 and per-client obfuscation noise (huge, mutually dissimilar)
  // in tensor 1.
  std::vector<ModelUpdateMsg> updates;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nn::FlatParams p = global;
    const std::span<float> scored = p.entry_span(0);
    for (std::size_t j = 0; j < scored.size(); ++j)
      scored[j] += 0.01f * static_cast<float>(i);
    const std::span<float> obf = p.entry_span(1);
    for (std::size_t j = 0; j < obf.size(); ++j)
      obf[j] = 40.0f * static_cast<float>((static_cast<int>(i) * 13 + static_cast<int>(j) * 5) % 7 - 3);
    updates.push_back(update_for(ids[i], p));
  }

  RobustConfig aware;
  aware.method = "median";
  aware.excluded_tensors = {1};
  auto agg = make_robust_aggregator(aware);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    const HierarchicalResult r = run_tree(*agg, updates, global, shards, 4);
    for (const AggregatorFlag& f : r.result.flags)
      EXPECT_FALSE(f.excluded)
          << shards << " shards flagged honest client " << f.client_id << ": "
          << f.reason;
  }

  // Naive scoring (no exclusion) must still quarantine a lone obfuscator
  // *inside its own shard* — the screen operates per shard. Make one
  // client the only obfuscator and find it flagged in the 2-shard tree.
  std::vector<ModelUpdateMsg> lone = updates;
  for (std::size_t i = 1; i < lone.size(); ++i) {
    const std::span<float> obf = lone[i].params.entry_span(1);
    const std::span<const float> base = global.entry_span(1);
    std::copy(base.begin(), base.end(), obf.begin());
  }
  RobustConfig naive;
  naive.method = "median";
  auto naive_agg = make_robust_aggregator(naive);
  const HierarchicalResult flagged = run_tree(*naive_agg, lone, global, 2, 1);
  const bool lone_flagged = std::any_of(
      flagged.result.flags.begin(), flagged.result.flags.end(),
      [&](const AggregatorFlag& f) {
        return f.client_id == ids[0] && f.excluded;
      });
  EXPECT_TRUE(lone_flagged)
      << "naive per-shard screen should quarantine the lone obfuscator";
}

// ------------------------------------------------- empty-shard tolerance --

TEST(ShardHierarchyTest, EmptyShardsAreSkippedAndAllEmptyCombineThrows) {
  const nn::FlatParams global = two_tensor_params();
  std::vector<ModelUpdateMsg> updates = {update_for(0, global),
                                         update_for(1, global),
                                         update_for(2, global)};
  auto agg = make_robust_aggregator(AggregatorKind::kFedAvg);
  ShardConfig cfg;
  cfg.num_shards = 8;
  cfg.assignment_seed = kSeed;
  const HierarchicalResult r = run_session(*agg, updates, global, cfg, nullptr);
  ASSERT_EQ(r.shards.size(), 8u);
  std::uint64_t total = 0;
  for (std::size_t s = 0; s < r.shards.size(); ++s) {
    EXPECT_EQ(r.shards[s].shard_id, s);
    total += r.shards[s].num_updates;
    if (r.shards[s].num_updates == 0) {
      EXPECT_EQ(r.shard_seconds[s], 0.0) << "empty shard " << s << " never ran";
    }
  }
  EXPECT_EQ(total, updates.size());
  EXPECT_TRUE(bitwise_equal(r.result.params, global))
      << "three copies of the global model must average back to it";

  const std::vector<ShardSummary> empties(3);
  EXPECT_THROW(agg->combine(empties, global), Error);
  EXPECT_THROW(run_session(*agg, {}, global, cfg, nullptr), Error);
}

// ------------------------------------------------- simulation integration --

TEST(ShardSimulationTest, ConfigValidationRejectsBadShardCounts) {
  SimulationConfig cfg;
  cfg.rounds = 1;
  cfg.train = TrainConfig{1, 32};
  cfg.seed = 99;

  cfg.shard.num_shards = 0;
  EXPECT_THROW(FederatedSimulation(tiny_mlp_factory(2, 2),
                                   easy_split(5, 300, 31), cfg, DefenseBundle{}),
               Error);

  cfg.shard.num_shards = 6;  // roster is only 5 clients
  EXPECT_THROW(FederatedSimulation(tiny_mlp_factory(2, 2),
                                   easy_split(5, 300, 31), cfg, DefenseBundle{}),
               Error);

  cfg.shard.num_shards = 5;  // one client per shard is legal
  EXPECT_NO_THROW(FederatedSimulation(tiny_mlp_factory(2, 2),
                                      easy_split(5, 300, 31), cfg,
                                      DefenseBundle{}));

  cfg.shard.num_shards = 1;
  cfg.robust.method = "definitely_not_registered";
  EXPECT_THROW(FederatedSimulation(tiny_mlp_factory(2, 2),
                                   easy_split(5, 300, 31), cfg, DefenseBundle{}),
               Error);
}

TEST(ShardSimulationTest, RoundOutcomesCarryShardStatsAndSurviveSerde) {
  SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 777;
  cfg.shard.num_shards = 3;
  cfg.shard.assignment_seed = kSeed;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(6, 600, 41), cfg,
                          DefenseBundle{});
  sim.run();

  ASSERT_EQ(sim.round_log().size(), 2u);
  for (const RoundOutcome& out : sim.round_log()) {
    ASSERT_TRUE(out.quorum_met);
    ASSERT_EQ(out.shards.size(), 3u) << "round " << out.round;
    std::uint64_t seen = 0;
    for (std::size_t s = 0; s < out.shards.size(); ++s) {
      EXPECT_EQ(out.shards[s].shard_id, s);
      EXPECT_LE(out.shards[s].num_accepted, out.shards[s].num_updates);
      seen += out.shards[s].num_updates;
    }
    EXPECT_EQ(seen, out.accepted.size())
        << "every accepted update lands in exactly one shard";
  }

  // Durable wire format round-trip (DFST v3 appended the shard stats).
  const RoundOutcome& out = sim.round_log()[0];
  BinaryWriter w;
  write_round_outcome(w, out);
  BinaryReader r(w.buffer());
  const RoundOutcome back = read_round_outcome(r);
  EXPECT_EQ(back.round, out.round);
  EXPECT_EQ(back.accepted, out.accepted);
  EXPECT_EQ(back.aggregator, out.aggregator);
  ASSERT_EQ(back.shards.size(), out.shards.size());
  for (std::size_t s = 0; s < out.shards.size(); ++s) {
    EXPECT_EQ(back.shards[s].shard_id, out.shards[s].shard_id);
    EXPECT_EQ(back.shards[s].num_updates, out.shards[s].num_updates);
    EXPECT_EQ(back.shards[s].num_accepted, out.shards[s].num_accepted);
    EXPECT_EQ(back.shards[s].num_flagged, out.shards[s].num_flagged);
    EXPECT_DOUBLE_EQ(back.shards[s].weight, out.shards[s].weight);
    EXPECT_DOUBLE_EQ(back.shards[s].min_norm, out.shards[s].min_norm);
    EXPECT_DOUBLE_EQ(back.shards[s].median_norm, out.shards[s].median_norm);
    EXPECT_DOUBLE_EQ(back.shards[s].max_norm, out.shards[s].max_norm);
  }
}

// The session takes each accepted upload over at commit and hands it back
// after finalize, so the uploads the server keeps for the attacker views
// are exactly the accepted ones, bit for bit, with no copy in between. Lost
// and unselected uploads leave no view behind; under ASan a dangling view
// of a moved-from or released update would fail here.
TEST(ShardHierarchyTest, SessionHandsBackExactlyTheAcceptedUploads) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 32};
  cfg.learning_rate = 0.05;
  cfg.seed = 4242;
  cfg.client_fraction = 0.8;
  cfg.robust.method = "median";
  cfg.shard.num_shards = 4;
  cfg.shard.assignment_seed = kSeed;
  cfg.faults.drop_up = 0.3;
  cfg.max_retries = 0;
  cfg.min_clients = 1;
  cfg.exec.threads = 2;
  FederatedSimulation sim(tiny_mlp_factory(2, 2), easy_split(10, 1000, 43), cfg,
                          DefenseBundle{});
  bool some_lost = false;
  for (int r = 0; r < cfg.rounds; ++r) {
    const RoundOutcome& out = sim.run_round();
    ASSERT_TRUE(out.quorum_met) << "round " << r;
    std::vector<std::size_t> accepted(out.accepted.begin(), out.accepted.end());
    EXPECT_EQ(sim.last_participants(), accepted) << "round " << r;
    some_lost |= accepted.size() < out.selected.size();
    for (std::size_t i = 0; i < sim.clients().size(); ++i) {
      if (std::find(accepted.begin(), accepted.end(), i) == accepted.end()) {
        EXPECT_THROW(sim.server_view_of_client(i), Error) << "round " << r << " client " << i;
        continue;
      }
      // Without a defense the upload is the client's trained model, which
      // stays untouched until the next broadcast.
      nn::Model view = sim.server_view_of_client(i);
      EXPECT_TRUE(bitwise_equal(view.parameters(), sim.clients()[i].model().parameters()))
          << "round " << r << " client " << i;
    }
  }
  EXPECT_TRUE(some_lost) << "the drop rate should lose at least one upload";
}

}  // namespace
}  // namespace dinar::fl
