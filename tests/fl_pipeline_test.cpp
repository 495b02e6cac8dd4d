// Streaming round engine tests (DESIGN.md §13).
//
// Two layers:
//  - RoundPipeline: the scheduling contract itself — ascending commits
//    overlapping the still-running tail, deterministic lowest-index error
//    surfacing and full drain on abort;
//  - simulation determinism: the streaming round is byte-identical across
//    thread counts — RoundOutcomes, histories, final global + client
//    models, durable store state — at 1/2/4 threads, under faults,
//    Byzantine attackers, churn, sharding and real wall-clock stragglers
//    parked at the LAST client of each shard (the worst case for the
//    overlap: every shard's member list stays open until its tail lands).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "fl/pipeline.h"
#include "fl/shard.h"
#include "fl/simulation.h"
#include "store/round_store.h"
#include "test_helpers.h"
#include "util/execution_context.h"
#include "util/serde.h"
#include "util/thread_pool.h"

namespace dinar::fl {
namespace {

using dinar::testing::make_easy_dataset;
using dinar::testing::tiny_mlp_factory;

// ----------------------------------------------------------- RoundPipeline --

ExecutionContext make_exec(unsigned threads) {
  ExecConfig cfg;
  cfg.threads = threads;
  return ExecutionContext(cfg);
}

TEST(RoundPipelineTest, StreamCommitsAscendAndFollowTheirTask) {
  ExecutionContext exec = make_exec(4);
  const std::size_t n = 32;
  std::vector<std::atomic<bool>> task_done(n);
  std::vector<std::size_t> commit_order;
  RoundPipeline(PipelineMode::kStream, &exec)
      .run(
          n, [&](std::size_t i) { task_done[i].store(true); },
          [&](std::size_t i) {
            EXPECT_TRUE(task_done[i].load()) << "commit " << i << " before its task";
            commit_order.push_back(i);
          });
  ASSERT_EQ(commit_order.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(commit_order[i], i);
}

TEST(RoundPipelineTest, StreamOverlapsCommitsWithTheStragglerTail) {
  // The straggler (last index) blocks until every other index has
  // committed — only possible if the coordinator commits while the tail
  // is still running. A full-barrier schedule would deadlock here, which
  // is the whole point; a 10 s escape hatch turns a regression into a
  // failure instead of a hang.
  ExecutionContext exec = make_exec(2);
  const std::size_t n = 6;
  std::atomic<std::size_t> committed{0};
  std::atomic<bool> overlap_seen{false};
  RoundPipeline(PipelineMode::kStream, &exec)
      .run(
          n,
          [&](std::size_t i) {
            if (i != n - 1) return;
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (committed.load() < n - 1 &&
                   std::chrono::steady_clock::now() < deadline)
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            overlap_seen.store(committed.load() >= n - 1);
          },
          [&](std::size_t) { committed.fetch_add(1); });
  EXPECT_TRUE(overlap_seen.load())
      << "earlier commits did not overlap the straggler's exchange";
  EXPECT_EQ(committed.load(), n);
}

TEST(RoundPipelineTest, StreamWithoutWorkersInterleavesInline) {
  // Sequential degradation: task(i) immediately followed by commit(i).
  std::vector<std::string> trace;
  RoundPipeline(PipelineMode::kStream, nullptr)
      .run(
          3, [&](std::size_t i) { trace.push_back("t" + std::to_string(i)); },
          [&](std::size_t i) { trace.push_back("c" + std::to_string(i)); });
  EXPECT_EQ(trace, (std::vector<std::string>{"t0", "c0", "t1", "c1", "t2", "c2"}));
}

TEST(RoundPipelineTest, StreamSurfacesLowestFailedIndexAndStopsCommitting) {
  ExecutionContext exec = make_exec(4);
  const std::size_t n = 8;
  std::vector<std::size_t> commit_order;
  try {
    RoundPipeline(PipelineMode::kStream, &exec)
        .run(
            n,
            [&](std::size_t i) {
              if (i == 2 || i == 5)
                throw std::runtime_error("task " + std::to_string(i));
            },
            [&](std::size_t i) { commit_order.push_back(i); });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 2");
  }
  // Commits below the first failed index ran; nothing at or above it did.
  EXPECT_EQ(commit_order, (std::vector<std::size_t>{0, 1}));
}

TEST(RoundPipelineTest, CommitFailurePropagatesAfterDrainingTasks) {
  ExecutionContext exec = make_exec(2);
  const std::size_t n = 8;
  std::atomic<std::size_t> tasks_done{0};
  EXPECT_THROW(RoundPipeline(PipelineMode::kStream, &exec)
                   .run(
                       n,
                       [&](std::size_t) {
                         std::this_thread::sleep_for(std::chrono::milliseconds(1));
                         tasks_done.fetch_add(1);
                       },
                       [&](std::size_t i) {
                         if (i == 1) throw std::runtime_error("commit boom");
                       }),
               std::runtime_error);
  // The throw must not leave tasks running against a dead stack frame.
  EXPECT_EQ(tasks_done.load(), n);
}

// ---------------------------------------------- coordinator-run exchanges --
//
// The coordinator runs its own fixed share of the exchanges instead of
// sleeping (DESIGN.md §13). These pin that schedule without timing
// assumptions: rendezvous tasks can only all arrive if a third thread runs
// one of them, and with two workers the only third thread is the
// coordinator.

// Blocks each arriving task until `parties` have arrived; a 10 s escape
// hatch turns a schedule regression into a failure instead of a hang.
class Rendezvous {
 public:
  explicit Rendezvous(int parties) : parties_(parties) {}
  bool arrive_and_wait() {
    arrived_.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived_.load() < parties_ && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    return arrived_.load() >= parties_;
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
};

TEST(RoundPipelineTest, CoordinatorRunsAnExchangeWhileBothWorkersAreBusy) {
  // Two workers, five exchanges; indices 0..2 meet at a three-way
  // rendezvous. Each worker blocks in one of them, so the third can only
  // arrive on the coordinator's thread, and it is always index 2: the
  // coordinator's share is fixed, never raced for.
  ExecutionContext exec = make_exec(2);
  const std::size_t n = 5;
  const std::thread::id coordinator = std::this_thread::get_id();
  Rendezvous meet(3);
  std::vector<std::thread::id> ran_on(n);
  std::atomic<int> met{0};
  std::vector<std::size_t> commit_order;
  RoundPipeline(PipelineMode::kStream, &exec)
      .run(
          n,
          [&](std::size_t i) {
            ran_on[i] = std::this_thread::get_id();
            if (i < 3 && meet.arrive_and_wait()) met.fetch_add(1);
          },
          [&](std::size_t i) { commit_order.push_back(i); });
  EXPECT_EQ(met.load(), 3) << "no third thread joined the two busy workers";
  EXPECT_EQ(std::count(ran_on.begin(), ran_on.end(), coordinator), 1);
  EXPECT_EQ(ran_on[2], coordinator);
  EXPECT_EQ(commit_order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(RoundPipelineTest, TailIndexNeverRunsOnTheCoordinator) {
  // Index n-1 always stays on the pool, so the coordinator is free to
  // commit everything below it while the tail runs.
  ExecutionContext exec = make_exec(2);
  const std::thread::id coordinator = std::this_thread::get_id();
  for (std::size_t n = 1; n <= 6; ++n) {
    for (int rep = 0; rep < 50; ++rep) {
      std::thread::id tail_thread;
      RoundPipeline(PipelineMode::kStream, &exec)
          .run(
              n,
              [&](std::size_t i) {
                if (i + 1 == n) tail_thread = std::this_thread::get_id();
              },
              [](std::size_t) {});
      ASSERT_NE(tail_thread, coordinator) << "n=" << n << " rep " << rep;
      ASSERT_NE(tail_thread, std::thread::id()) << "n=" << n << " rep " << rep;
    }
  }
}

TEST(RoundPipelineTest, LowestFailedIndexSurfacesWhenTheCoordinatorRanIt) {
  // The rendezvous puts one of indices 0..2 on the coordinator (index 2,
  // its fixed share); that one throws, and so does the tail on a worker.
  // The coordinator's failure is the lowest, so it surfaces and commits
  // stop right below it.
  ExecutionContext exec = make_exec(2);
  const std::size_t n = 5;
  const std::thread::id coordinator = std::this_thread::get_id();
  Rendezvous meet(3);
  std::atomic<std::size_t> failed_here{n};
  std::atomic<std::size_t> tasks_done{0};
  std::vector<std::size_t> commit_order;
  try {
    RoundPipeline(PipelineMode::kStream, &exec)
        .run(
            n,
            [&](std::size_t i) {
              if (i < 3) meet.arrive_and_wait();
              tasks_done.fetch_add(1);
              if (i < 3 && std::this_thread::get_id() == coordinator) {
                failed_here.store(i);
                throw std::runtime_error("coordinator task " + std::to_string(i));
              }
              if (i == n - 1) throw std::runtime_error("tail task");
            },
            [&](std::size_t i) { commit_order.push_back(i); });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    ASSERT_EQ(failed_here.load(), 2u) << "index 2 did not run on the coordinator";
    EXPECT_EQ(std::string(e.what()),
              "coordinator task " + std::to_string(failed_here.load()));
  }
  std::vector<std::size_t> expected(failed_here.load());
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(commit_order, expected);
  EXPECT_EQ(tasks_done.load(), n) << "run() rethrew before every exchange drained";
}

TEST(RoundPipelineTest, EverySubmissionExitsBeforeRunReturns) {
  // commit(0) throws as soon as it runs. On even reps the pool is still
  // busy with a queue of slow submissions then; on odd reps the
  // coordinator's own tasks are the slow ones, so commit(0) throws before
  // the coordinator has run its whole share. Either way run() must still
  // run every task once and wait for every submission to return before it
  // rethrows: they point into its frame. The closures live on the heap and
  // die right after run(), so on the sanitized leg a late submission is a
  // reported use-after-free.
  ExecutionContext exec = make_exec(2);
  const std::thread::id coordinator = std::this_thread::get_id();
  for (const std::size_t n : {8u, 24u}) {
    for (int rep = 0; rep < 20; ++rep) {
      const bool slow_pool = rep % 2 == 0;
      std::atomic<std::size_t> on_coordinator{0};
      auto runs = std::make_unique<std::vector<std::atomic<int>>>(n);
      auto task = std::make_unique<std::function<void(std::size_t)>>(
          [&, slow_pool, runs = runs.get()](std::size_t i) {
            (*runs)[i].fetch_add(1);
            const bool here = std::this_thread::get_id() == coordinator;
            if (here) on_coordinator.fetch_add(1);
            if (here != slow_pool)
              std::this_thread::sleep_for(std::chrono::microseconds(200));
          });
      auto commit = std::make_unique<std::function<void(std::size_t)>>(
          [](std::size_t) { throw std::runtime_error("commit boom"); });
      EXPECT_THROW(RoundPipeline(PipelineMode::kStream, &exec).run(n, *task, *commit),
                   std::runtime_error);
      task.reset();
      commit.reset();
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ((*runs)[i].load(), 1) << "index " << i << " n=" << n;
      // Indices 2, 5, 8, ... below n-1 are the coordinator's share.
      ASSERT_EQ(on_coordinator.load(), (n - 2) / 3) << "n=" << n << " rep " << rep;
      runs.reset();
    }
  }
}

TEST(RoundPipelineTest, CoordinatorTaskRunsUnderTheWorkerMarker) {
  // A task the coordinator runs sees on_worker_thread() == true, so its
  // nested parallel sections run inline; the marker is gone afterwards.
  ExecutionContext exec = make_exec(2);
  const std::size_t n = 5;
  const std::thread::id coordinator = std::this_thread::get_id();
  Rendezvous meet(3);
  std::atomic<int> coordinator_tasks{0};
  std::atomic<int> marked{0};
  std::atomic<int> nested_inline{0};
  ASSERT_FALSE(ThreadPool::on_worker_thread());
  RoundPipeline(PipelineMode::kStream, &exec)
      .run(
          n,
          [&](std::size_t i) {
            if (i < 3) meet.arrive_and_wait();
            if (ThreadPool::on_worker_thread()) marked.fetch_add(1);
            if (std::this_thread::get_id() != coordinator) return;
            coordinator_tasks.fetch_add(1);
            const std::thread::id here = std::this_thread::get_id();
            std::atomic<bool> all_here{true};
            exec.parallel_for(
                4096,
                [&](std::int64_t, std::int64_t) {
                  if (std::this_thread::get_id() != here) all_here.store(false);
                },
                /*grain=*/1);
            if (all_here.load()) nested_inline.fetch_add(1);
          },
          [&](std::size_t) { EXPECT_FALSE(ThreadPool::on_worker_thread()); });
  EXPECT_GE(coordinator_tasks.load(), 1);
  EXPECT_EQ(marked.load(), static_cast<int>(n));
  EXPECT_EQ(nested_inline.load(), coordinator_tasks.load());
  EXPECT_FALSE(ThreadPool::on_worker_thread());
}

// ------------------------------------------- simulation-level determinism --

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
     << "," << o.fault_delta.corruptions_up << "," << o.fault_delta.corruptions_down
     << "," << o.fault_delta.crashed_contacts << ","
     << o.fault_delta.delays_injected << ","
     << o.fault_delta.injected_delay_seconds << "}";
  return os.str();
}

// Faults + a Byzantine attacker + churn + a 3-shard tree, with a real
// wall-clock straggler parked at the LAST client of every shard: each
// shard's member list stays open until its slowest member lands, the
// adversarial schedule for the overlap.
SimulationConfig overlap_config(unsigned threads) {
  SimulationConfig cfg;
  cfg.rounds = 4;
  cfg.train = TrainConfig{1, 16};
  cfg.learning_rate = 5e-2;
  cfg.seed = 77;
  cfg.eval_every = 2;
  cfg.faults.drop_up = 0.1;
  cfg.faults.corrupt_up = 0.1;
  cfg.faults.delay_prob = 0.2;
  cfg.faults.delay_max_seconds = 0.3;
  cfg.min_clients = 2;
  cfg.max_retries = 2;
  cfg.retry_backoff_seconds = 0.05;
  cfg.robust.method = "median";
  cfg.adversaries.attackers[1] = AttackType::kSignFlip;
  cfg.churn.away[4] = {{2, 3}};
  cfg.shard.num_shards = 3;
  cfg.shard.assignment_seed = 0x0F00D;
  cfg.exec.threads = threads;
  // Park a sleep on the highest client id of each shard.
  std::map<std::uint32_t, int> last_of_shard;
  for (int id = 0; id < 6; ++id)
    last_of_shard[shard_of(id, cfg.shard)] = id;  // ascending ids: last wins
  for (const auto& [shard, id] : last_of_shard)
    cfg.faults.straggler_wall_seconds[id] = 0.002;
  return cfg;
}

struct SimRun {
  std::vector<std::string> outcomes;
  std::vector<RoundRecord> history;
  nn::FlatParams global;
  std::vector<nn::FlatParams> client_params;
  std::vector<std::uint8_t> full_state;
};

SimRun run_sim(unsigned threads) {
  Rng rng(23);
  data::Dataset full = make_easy_dataset(192, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 6;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  FederatedSimulation sim(tiny_mlp_factory(2, 2), std::move(split),
                          overlap_config(threads), DefenseBundle{});
  sim.run();

  SimRun out;
  for (const RoundOutcome& o : sim.round_log()) out.outcomes.push_back(dump_outcome(o));
  out.history = sim.history();
  out.global = sim.server().global_params();
  for (FlClient& c : sim.clients()) out.client_params.push_back(c.model().parameters());
  BinaryWriter w;
  sim.save_full_state(w);
  out.full_state = w.buffer();
  return out;
}

void expect_runs_identical(const SimRun& a, const SimRun& b, const char* what) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (std::size_t r = 0; r < a.outcomes.size(); ++r)
    EXPECT_EQ(a.outcomes[r], b.outcomes[r]) << what << " round " << r;
  ASSERT_EQ(a.history.size(), b.history.size()) << what;
  for (std::size_t i = 0; i < a.history.size(); ++i) {
    EXPECT_EQ(a.history[i].global_test_accuracy, b.history[i].global_test_accuracy)
        << what;
    EXPECT_EQ(a.history[i].personalized_test_accuracy,
              b.history[i].personalized_test_accuracy)
        << what;
  }
  ASSERT_TRUE(a.global.same_layout(b.global)) << what;
  EXPECT_EQ(std::memcmp(a.global.as_span().data(), b.global.as_span().data(),
                        a.global.as_span().size() * sizeof(float)),
            0)
      << what << ": global model differs bitwise";
  ASSERT_EQ(a.client_params.size(), b.client_params.size()) << what;
  for (std::size_t c = 0; c < a.client_params.size(); ++c)
    EXPECT_EQ(std::memcmp(a.client_params[c].as_span().data(),
                          b.client_params[c].as_span().data(),
                          a.client_params[c].as_span().size() * sizeof(float)),
              0)
        << what << ": client " << c << " model differs bitwise";
  // Full serialized state (timings are measurement-only and excluded from
  // serde by design, so this must hold across thread counts).
  EXPECT_EQ(a.full_state, b.full_state) << what << ": full state differs";
}

TEST(PipelineSimTest, StreamByteIdenticalAcrossThreadCounts) {
  const SimRun sequential = run_sim(1);
  for (const unsigned threads : {2u, 4u}) {
    const SimRun stream = run_sim(threads);
    expect_runs_identical(sequential, stream,
                          ("stream@" + std::to_string(threads)).c_str());
  }
}

FederatedSimulation make_overlap_sim(unsigned threads) {
  Rng rng(23);
  data::Dataset full = make_easy_dataset(192, rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = 6;
  return FederatedSimulation(tiny_mlp_factory(2, 2),
                             data::make_fl_split(full, split_cfg, rng),
                             overlap_config(threads), DefenseBundle{});
}

std::vector<std::uint8_t> state_of(const FederatedSimulation& sim) {
  BinaryWriter w;
  sim.save_full_state(w);
  return w.buffer();
}

TEST(PipelineSimTest, DurableStoreBytesMatchAcrossThreadCountsAndRecover) {
  namespace fs = std::filesystem;
  const std::string base = ::testing::TempDir() + "dinar_pipeline_test";
  fs::remove_all(base);
  fs::create_directories(base);

  const auto run_with_store = [&](const std::string& name, unsigned threads,
                                  int rounds) {
    const std::string dir = base + "/" + name;
    store::RoundStore s(dir);
    FederatedSimulation sim = make_overlap_sim(threads);
    sim.attach_store(&s, /*snapshot_every=*/2);
    for (int i = 0; i < rounds; ++i) sim.run_round();
    return dir;
  };

  // Same rounds at different thread counts: every durable byte agrees (WAL
  // records and snapshots serialize no timings and no schedule artifacts).
  const std::string seq_dir = run_with_store("seq", 1, 3);
  const std::string pool_dir = run_with_store("pool", 4, 3);
  const auto files_of = [](const std::string& dir) {
    std::map<std::string, std::vector<char>> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
      if (entry.is_regular_file()) {
        std::ifstream f(entry.path(), std::ios::binary);
        files[entry.path().filename().string()] = {
            std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
      }
    return files;
  };
  const auto seq_files = files_of(seq_dir);
  EXPECT_FALSE(seq_files.empty());
  EXPECT_EQ(seq_files, files_of(pool_dir));

  // Cross-thread-count recovery: a sequential simulation recovers the
  // pool-written store and continues bit-identically to an uninterrupted
  // threaded run.
  store::RoundStore s(pool_dir);
  FederatedSimulation recovered = make_overlap_sim(1);
  recovered.attach_store(&s, 2);
  EXPECT_EQ(recovered.recover_from_store(), 3);
  recovered.run_round();

  FederatedSimulation reference = make_overlap_sim(4);
  for (int i = 0; i < 4; ++i) reference.run_round();
  EXPECT_EQ(state_of(recovered), state_of(reference));
}

TEST(PipelineSimTest, FedAvgStreamingAccumulatorMatchesAcrossThreadCounts) {
  // overlap_config runs "median"; fedavg's fold over coordinate ranges
  // at finalize needs its own thread-count bit-identity check.
  const auto run = [](unsigned threads) {
    Rng rng(23);
    data::Dataset full = make_easy_dataset(192, rng);
    data::FlSplitConfig split_cfg;
    split_cfg.num_clients = 6;
    SimulationConfig cfg = overlap_config(threads);
    cfg.robust.method = "fedavg";
    FederatedSimulation sim(tiny_mlp_factory(2, 2),
                            data::make_fl_split(full, split_cfg, rng), cfg,
                            DefenseBundle{});
    sim.run();
    return state_of(sim);
  };
  EXPECT_EQ(run(1), run(4));
}

}  // namespace
}  // namespace dinar::fl
