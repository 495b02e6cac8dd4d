// Parallel execution engine tests.
//
// Covers the three layers of the engine:
//  - ThreadPool: worker-exception propagation (regression: exceptions used
//    to strand parallel_for callers);
//  - ExecutionContext: chunk coverage, inline fallbacks, nested sections,
//    deterministic lowest-index error surfacing, and fan-outs that finish
//    on the calling thread while every worker is busy;
//  - determinism suite: a federation with faults + Byzantine attackers +
//    membership churn run sequentially and with a 4-thread context must
//    produce byte-identical RoundOutcome logs, history records and final
//    models — the property the phased round protocol exists to guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <future>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "fl/simulation.h"
#include "test_helpers.h"
#include "util/error.h"
#include "util/execution_context.h"
#include "util/thread_pool.h"

namespace dinar::fl {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

// ------------------------------------------------------------ thread pool --

TEST(ThreadPoolTest, ParallelForPropagatesWorkerException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(16,
                        [](std::size_t i) {
                          if (i == 7) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPoolTest, PoolStaysUsableAfterWorkerException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(
                   4, [](std::size_t) { throw std::runtime_error("first"); }),
               std::runtime_error);
  std::atomic<int> sum{0};
  pool.parallel_for(8, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 28);
}

TEST(ThreadPoolTest, LowestIndexExceptionWins) {
  ThreadPool pool(4);
  // Every task throws; the caller must deterministically see index 0's
  // error, not whichever task lost the scheduling race.
  try {
    pool.parallel_for(8, [](std::size_t i) {
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
}

// ----------------------------------------------------- execution context --

TEST(ExecutionContextTest, SequentialContextHasNoPool) {
  ExecutionContext exec;  // default: 1 thread
  EXPECT_FALSE(exec.parallel());
  EXPECT_EQ(exec.threads(), 1u);
}

TEST(ExecutionContextTest, ParallelForCoversEveryIndexExactlyOnce) {
  ExecConfig cfg;
  cfg.threads = 4;
  ExecutionContext exec(cfg);
  ASSERT_TRUE(exec.parallel());
  std::vector<std::atomic<int>> hits(1000);
  exec.parallel_for(
      1000,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i)
          hits[static_cast<std::size_t>(i)] += 1;
      },
      /*grain=*/1);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutionContextTest, ForEachTaskCoversEveryIndexExactlyOnce) {
  ExecConfig cfg;
  cfg.threads = 3;
  ExecutionContext exec(cfg);
  std::vector<std::atomic<int>> hits(64);
  exec.for_each_task(64, [&](std::size_t i) { hits[i] += 1; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ExecutionContextTest, LowestChunkExceptionSurfaces) {
  ExecConfig cfg;
  cfg.threads = 4;
  ExecutionContext exec(cfg);
  try {
    exec.parallel_for(
        8,
        [](std::int64_t i0, std::int64_t) {
          throw std::runtime_error("chunk " + std::to_string(i0));
        },
        /*grain=*/1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
}

TEST(ExecutionContextTest, NestedParallelSectionsRunInline) {
  ExecConfig cfg;
  cfg.threads = 4;
  ExecutionContext exec(cfg);
  // An outer per-task section whose body opens another parallel section
  // must not deadlock on the saturated queue; the inner one runs inline.
  std::vector<std::int64_t> totals(8, 0);
  exec.for_each_task(8, [&](std::size_t t) {
    std::int64_t local = 0;
    exec.parallel_for(
        100,
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) local += i;
        },
        /*grain=*/1);
    totals[t] = local;
  });
  for (const std::int64_t t : totals) EXPECT_EQ(t, 4950);
}

// ----------------------------------------------- caller participation --

// Occupies every worker of `exec`'s pool until release(). Each blocker
// waits on a latch with a bounded wait, so a fan-out that wrongly waits for
// the workers makes the test fail (the latch times out) instead of hanging.
class PoolBlocker {
 public:
  explicit PoolBlocker(const ExecutionContext& exec) {
    for (unsigned w = 0; w < exec.threads(); ++w)
      blockers_.push_back(exec.submit([this] {
        std::unique_lock<std::mutex> lock(mu_);
        ++started_;
        cv_.notify_all();
        if (!cv_.wait_for(lock, std::chrono::seconds(20), [this] { return released_; }))
          timed_out_ = true;
      }));
    std::unique_lock<std::mutex> lock(mu_);
    all_started_ = cv_.wait_for(lock, std::chrono::seconds(20),
                                [&] { return started_ == exec.threads(); });
  }
  ~PoolBlocker() { release(); }

  bool all_started() const { return all_started_; }

  // Opens the latch and waits for the blockers; true iff they were still
  // held when it opened.
  bool release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    for (std::future<void>& f : blockers_)
      if (f.valid()) f.get();
    std::lock_guard<std::mutex> lock(mu_);
    return !timed_out_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  unsigned started_ = 0;
  bool released_ = false;
  bool timed_out_ = false;
  bool all_started_ = false;
  std::vector<std::future<void>> blockers_;
};

TEST(ExecutionContextTest, FanOutsFinishWhileEveryWorkerIsBlocked) {
  ExecConfig cfg;
  cfg.threads = 3;
  ExecutionContext exec(cfg);
  PoolBlocker blocker(exec);
  ASSERT_TRUE(blocker.all_started());

  // The caller runs every index itself; the helper tasks still queued
  // behind the blockers find nothing left when they start.
  std::vector<std::atomic<int>> hits(1000);
  exec.parallel_for(
      1000,
      [&](std::int64_t i0, std::int64_t i1) {
        for (std::int64_t i = i0; i < i1; ++i) hits[static_cast<std::size_t>(i)] += 1;
      },
      /*grain=*/1);
  std::vector<std::atomic<int>> tasks(16);
  exec.for_each_task(16, [&](std::size_t i) { tasks[i] += 1; });

  EXPECT_TRUE(blocker.release()) << "a fan-out waited for the blocked workers";
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  for (const auto& t : tasks) EXPECT_EQ(t.load(), 1);
}

TEST(ExecutionContextTest, EveryIndexRunsOnceWithTheCallerJoining) {
  ExecConfig cfg;
  cfg.threads = 2;
  ExecutionContext exec(cfg);
  for (int pass = 0; pass < 50; ++pass) {
    std::vector<std::atomic<int>> hits(37);
    exec.for_each_task(37, [&](std::size_t i) { hits[i] += 1; });
    std::vector<std::atomic<int>> coords(301);
    exec.parallel_for(
        301,
        [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i) coords[static_cast<std::size_t>(i)] += 1;
        },
        /*grain=*/1);
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1) << "pass " << pass;
    for (const auto& c : coords) ASSERT_EQ(c.load(), 1) << "pass " << pass;
  }
}

TEST(ExecutionContextTest, LowestIndexExceptionWinsWhenTheCallerRanIt) {
  ExecConfig cfg;
  cfg.threads = 2;
  ExecutionContext exec(cfg);
  PoolBlocker blocker(exec);
  ASSERT_TRUE(blocker.all_started());
  // With every worker blocked the caller runs every index, index 0
  // included; every index still runs and index 0's error surfaces.
  std::atomic<int> ran{0};
  try {
    exec.for_each_task(8, [&](std::size_t i) {
      ++ran;
      throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 0");
  }
  EXPECT_EQ(ran.load(), 8);
  try {
    exec.parallel_for(
        9,
        [](std::int64_t i0, std::int64_t) {
          throw std::runtime_error("chunk " + std::to_string(i0));
        },
        /*grain=*/1);
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "chunk 0");
  }
  EXPECT_TRUE(blocker.release());
}

// --------------------------------------------- gemm thread-count identity --

Tensor transposed(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (std::int64_t i = 0; i < t.dim(0); ++i)
    for (std::int64_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
  return out;
}

TEST(GemmParallelTest, BitIdenticalForAnyThreadCountAllTransCombos) {
  Rng rng(321);
  Tensor a({37, 29});
  Tensor b({29, 41});
  for (float& v : a.values()) v = static_cast<float>(rng.gaussian());
  for (float& v : b.values()) v = static_cast<float>(rng.gaussian());
  Tensor at = transposed(a);
  Tensor bt = transposed(b);

  ExecConfig cfg;
  cfg.threads = 4;
  cfg.grain = 1;  // force multi-chunk dispatch even at this size
  ExecutionContext exec(cfg);

  const auto expect_bits_equal = [](const Tensor& x, const Tensor& y) {
    ASSERT_EQ(x.shape(), y.shape());
    EXPECT_EQ(std::memcmp(x.values().data(), y.values().data(),
                          x.values().size() * sizeof(float)),
              0);
  };
  expect_bits_equal(gemm(Trans::kN, Trans::kN, a, b, &exec),
                    gemm(Trans::kN, Trans::kN, a, b, nullptr));
  expect_bits_equal(gemm(Trans::kT, Trans::kN, at, b, &exec),
                    gemm(Trans::kT, Trans::kN, at, b, nullptr));
  expect_bits_equal(gemm(Trans::kN, Trans::kT, a, bt, &exec),
                    gemm(Trans::kN, Trans::kT, a, bt, nullptr));
  expect_bits_equal(gemm(Trans::kT, Trans::kT, at, bt, &exec),
                    gemm(Trans::kT, Trans::kT, at, bt, nullptr));
}

// ------------------------------------------------------- model ownership --

TEST(ModelExecutionContextTest, CopiesNeverInheritTheContext) {
  Rng rng(5);
  nn::Model m = dinar::testing::make_tiny_mlp(4, 2, rng);
  ExecutionContext exec;
  m.set_execution_context(&exec);
  ASSERT_EQ(m.execution_context(), &exec);

  nn::Model copy(m);
  EXPECT_EQ(copy.execution_context(), nullptr);
  nn::Model assigned = dinar::testing::make_tiny_mlp(4, 2, rng);
  assigned = m;
  EXPECT_EQ(assigned.execution_context(), nullptr);
}

// -------------------------------------------------- determinism suite -----

std::string dump_outcome(const RoundOutcome& o) {
  std::ostringstream os;
  os << "round=" << o.round << " agg=" << o.aggregator
     << " retries=" << o.retries_used << " quorum=" << o.quorum_met
     << " carried=" << o.carried_forward << " roster=" << o.roster_size;
  const auto ids = [&os](const char* k, const std::vector<int>& v) {
    os << " " << k << "=[";
    for (const int x : v) os << x << ",";
    os << "]";
  };
  ids("selected", o.selected);
  ids("crashed", o.crashed);
  ids("missed", o.missed_broadcast);
  ids("lost", o.lost_update);
  ids("accepted", o.accepted);
  ids("attackers", o.attackers);
  ids("joined", o.joined);
  ids("departed", o.departed);
  os << " quarantined=[";
  for (const auto& q : o.quarantined) os << q.client_id << ":" << q.reason << ";";
  os << "] flags=[";
  for (const auto& f : o.aggregator_flags)
    os << f.client_id << ":" << f.excluded << ":" << f.reason << ";";
  os << "] shards=[";
  for (const auto& s : o.shards)
    os << s.shard_id << ":" << s.num_updates << ":" << s.num_accepted << ":"
       << s.num_flagged << ":" << s.weight << ":" << s.min_norm << ":"
       << s.median_norm << ":" << s.max_norm << ";";
  os << "] faults={" << o.fault_delta.drops_up << "," << o.fault_delta.drops_down
     << "," << o.fault_delta.duplicates_up << "," << o.fault_delta.duplicates_down
     << "," << o.fault_delta.corruptions_up << ","
     << o.fault_delta.corruptions_down << "," << o.fault_delta.crashed_contacts
     << "," << o.fault_delta.delays_injected << ","
     << o.fault_delta.injected_delay_seconds << "}";
  return os.str();
}

void expect_params_bitwise_equal(const nn::FlatParams& a, const nn::FlatParams& b,
                                 const char* what) {
  ASSERT_TRUE(a.same_layout(b)) << what;
  EXPECT_EQ(std::memcmp(a.as_span().data(), b.as_span().data(),
                        a.as_span().size() * sizeof(float)),
            0)
      << what << " differs bitwise";
}

// The full gauntlet: drops, duplication, corruption, delays, a crash, a
// straggler (simulated latency AND a real wall-clock sleep, so the
// streaming pipeline genuinely overlaps a tail), sign-flip + colluding
// attackers under multi-Krum, membership churn, quorum aggregation with
// retries, and periodic evaluation. The streaming engine is the only
// round schedule; the extra ctest leg re-runs exactly this suite with the
// gemm and codec kernels pinned to their scalar oracles to prove the
// property holds on every kernel tier.
SimulationConfig gauntlet_config(unsigned threads, std::size_t num_shards = 1) {
  SimulationConfig cfg;
  cfg.rounds = 6;
  cfg.train = TrainConfig{1, 16};
  cfg.learning_rate = 5e-2;
  cfg.seed = 99;
  cfg.client_fraction = 0.8;
  cfg.eval_every = 2;
  cfg.faults.drop_up = 0.15;
  cfg.faults.drop_down = 0.1;
  cfg.faults.duplicate_up = 0.1;
  cfg.faults.corrupt_up = 0.1;
  cfg.faults.delay_prob = 0.2;
  cfg.faults.delay_max_seconds = 0.5;
  cfg.faults.crash_at_round[2] = 4;
  // Real (tiny) wall-clock stragglers: their exchanges finish last, so in
  // stream mode every other client's commit overlaps their sleep. Zero
  // effect on any compared value.
  cfg.faults.straggler_wall_seconds[3] = 0.002;
  cfg.faults.straggler_wall_seconds[6] = 0.003;
  cfg.min_clients = 2;
  cfg.max_retries = 2;
  cfg.retry_backoff_seconds = 0.1;
  cfg.robust.method = "multi_krum";
  cfg.robust.assumed_byzantine = 2;
  cfg.adversaries.attackers[1] = AttackType::kSignFlip;
  cfg.adversaries.attackers[5] = AttackType::kColluding;
  cfg.adversaries.attackers[6] = AttackType::kColluding;
  cfg.churn.join_at_round[7] = 2;
  cfg.churn.away[4] = {{3, 5}};
  cfg.exec.threads = threads;
  cfg.shard.num_shards = num_shards;
  cfg.shard.assignment_seed = 0x5AADull;
  return cfg;
}

struct GauntletRun {
  std::vector<std::string> outcomes;
  std::vector<RoundRecord> history;
  nn::FlatParams global;
  std::vector<nn::FlatParams> client_params;
  TransportStats transport;
  FaultStats faults;
};

GauntletRun run_gauntlet(unsigned threads, std::size_t num_shards = 1) {
  Rng rng(17);
  data::Dataset full = make_easy_dataset(256, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 8;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  FederatedSimulation sim(tiny_mlp_factory(2, 2), std::move(split),
                          gauntlet_config(threads, num_shards), DefenseBundle{});
  sim.run();

  GauntletRun out;
  for (const RoundOutcome& o : sim.round_log()) out.outcomes.push_back(dump_outcome(o));
  out.history = sim.history();
  out.global = sim.server().global_params();
  for (FlClient& c : sim.clients()) out.client_params.push_back(c.model().parameters());
  out.transport = sim.transport().stats();
  out.faults = sim.transport().faults()->stats();
  return out;
}

TEST(ParallelDeterminismTest, SequentialAndFourThreadRunsAreByteIdentical) {
  const GauntletRun seq = run_gauntlet(1);
  const GauntletRun par = run_gauntlet(4);

  // Round-by-round event logs match verbatim.
  ASSERT_EQ(seq.outcomes.size(), par.outcomes.size());
  for (std::size_t r = 0; r < seq.outcomes.size(); ++r)
    EXPECT_EQ(seq.outcomes[r], par.outcomes[r]) << "round " << r;

  // Evaluation history matches to the last bit of every double.
  ASSERT_EQ(seq.history.size(), par.history.size());
  for (std::size_t i = 0; i < seq.history.size(); ++i) {
    EXPECT_EQ(seq.history[i].round, par.history[i].round);
    EXPECT_EQ(seq.history[i].global_test_accuracy,
              par.history[i].global_test_accuracy);
    EXPECT_EQ(seq.history[i].global_test_loss, par.history[i].global_test_loss);
    EXPECT_EQ(seq.history[i].personalized_test_accuracy,
              par.history[i].personalized_test_accuracy);
    EXPECT_EQ(seq.history[i].mean_client_train_accuracy,
              par.history[i].mean_client_train_accuracy);
  }

  // Final global and every client's personalized model are bit-identical.
  expect_params_bitwise_equal(seq.global, par.global, "global model");
  ASSERT_EQ(seq.client_params.size(), par.client_params.size());
  for (std::size_t c = 0; c < seq.client_params.size(); ++c)
    expect_params_bitwise_equal(seq.client_params[c], par.client_params[c],
                                "client model");

  // Transport and fault accounting agree exactly, including the
  // order-sensitive double latency sums (phase B pins their order).
  EXPECT_EQ(seq.transport.messages_up, par.transport.messages_up);
  EXPECT_EQ(seq.transport.messages_down, par.transport.messages_down);
  EXPECT_EQ(seq.transport.bytes_up, par.transport.bytes_up);
  EXPECT_EQ(seq.transport.bytes_down, par.transport.bytes_down);
  EXPECT_EQ(seq.transport.frame_bytes_up, par.transport.frame_bytes_up);
  EXPECT_EQ(seq.transport.frame_bytes_down, par.transport.frame_bytes_down);
  EXPECT_EQ(seq.transport.simulated_latency_seconds,
            par.transport.simulated_latency_seconds);
  EXPECT_EQ(seq.faults.drops_up, par.faults.drops_up);
  EXPECT_EQ(seq.faults.corruptions_up, par.faults.corruptions_up);
  EXPECT_EQ(seq.faults.injected_delay_seconds, par.faults.injected_delay_seconds);
}

TEST(ParallelDeterminismTest, ThreadCountTwoMatchesToo) {
  // Guards against a determinism bug that happens to cancel out at 4
  // threads (e.g. chunk-boundary effects).
  const GauntletRun seq = run_gauntlet(1);
  const GauntletRun par = run_gauntlet(2);
  ASSERT_EQ(seq.outcomes.size(), par.outcomes.size());
  for (std::size_t r = 0; r < seq.outcomes.size(); ++r)
    EXPECT_EQ(seq.outcomes[r], par.outcomes[r]) << "round " << r;
  expect_params_bitwise_equal(seq.global, par.global, "global model");
}

TEST(ParallelDeterminismTest, ShardedGauntletIsThreadCountInvariant) {
  // The same gauntlet through a 3-shard aggregation tree: edge aggregators
  // run concurrently under the pool, yet the fixed shard-order root merge
  // keeps every outcome (incl. the per-shard stats dumped above), history
  // record and model byte-identical across thread counts.
  const GauntletRun seq = run_gauntlet(1, /*num_shards=*/3);
  const GauntletRun par = run_gauntlet(4, /*num_shards=*/3);
  ASSERT_EQ(seq.outcomes.size(), par.outcomes.size());
  for (std::size_t r = 0; r < seq.outcomes.size(); ++r)
    EXPECT_EQ(seq.outcomes[r], par.outcomes[r]) << "round " << r;
  ASSERT_EQ(seq.history.size(), par.history.size());
  for (std::size_t i = 0; i < seq.history.size(); ++i)
    EXPECT_EQ(seq.history[i].global_test_accuracy,
              par.history[i].global_test_accuracy);
  expect_params_bitwise_equal(seq.global, par.global, "global model");
  ASSERT_EQ(seq.client_params.size(), par.client_params.size());
  for (std::size_t c = 0; c < seq.client_params.size(); ++c)
    expect_params_bitwise_equal(seq.client_params[c], par.client_params[c],
                                "client model");
}

TEST(ParallelDeterminismTest, SingleShardGauntletMatchesUnshardedExactly) {
  // num_shards == 1 must be the flat path bit-for-bit: same outcomes (the
  // shard stats ride along but the model math is untouched), same models.
  const GauntletRun flat = run_gauntlet(4);
  const GauntletRun one = run_gauntlet(4, /*num_shards=*/1);
  ASSERT_EQ(flat.outcomes.size(), one.outcomes.size());
  for (std::size_t r = 0; r < flat.outcomes.size(); ++r)
    EXPECT_EQ(flat.outcomes[r], one.outcomes[r]) << "round " << r;
  expect_params_bitwise_equal(flat.global, one.global, "global model");
}

}  // namespace
}  // namespace dinar::fl
