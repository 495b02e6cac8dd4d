// Streaming round engine (DESIGN.md §13).
//
// The original barriered round protocol (PR 3) ran every client exchange
// as a phase-A task, waited for ALL of them, then replayed
// validation/commit in a sequential phase B — so the fastest client's
// commit work waited on the slowest straggler, synchronization the
// paper's personalization loop does not require.
//
// RoundPipeline treats each exchange completion as an *event*: the moment
// client idx's task finishes AND every commit below idx has run,
// commit(idx) runs on the coordinator thread — validating the update and
// moving it into the server's aggregation session while later clients are
// still training or sleeping on a slow link. The determinism
// argument splits the schedule in two:
//
//   compute order  — tasks run in any order on any thread count; they are
//                    isolated by construction (randomness keyed by
//                    (seed, round, client), accounting deferred into
//                    per-client receipts);
//   commit order   — strictly ascending index, exactly the old phase B, so
//                    every order-sensitive step (stats sums, validation,
//                    acceptance, absorb) sees the identical sequence.
//
// Hence the streaming schedule is bit-identical to the barriered one for
// any thread count — the pipeline only changes *when* commits run relative
// to the task fan-out, never their order or inputs. It is the only
// schedule; nothing selects it.
//
// Who runs a task: the coordinator owns a fixed share of the indices —
// every (W+1)-th one below n-1, starting at W, for W pool workers — and
// every other index is its own pool submission. While the next in-order
// commit is not ready, the coordinator runs its next own index instead of
// sleeping, so 5 exchanges on 2 workers take two waves, not three. The
// share is fixed before the run starts, never raced for, so a client
// trains on the same side (coordinator or pool) in every round and its
// buffers stay in the same heap arenas; racing the workers for indices
// moves clients between arenas from round to round and makes peak RSS
// differ by several MiB from one process to the next. The share never holds
// index n-1: the tail always runs on the pool, which leaves the
// coordinator free to commit every lower index while the tail is still
// running (a worker blocked in the tail cannot hold up any lower index,
// because workers pop in submission order and run one task at a time).
// The coordinator's tasks run under ThreadPool::WorkerScope, so their
// nested parallel sections run inline exactly as on a worker instead of
// queueing gemm chunks behind whole exchanges. Which thread runs an index
// never changes its inputs, so this is a compute-order choice like any
// other.
//
// Error contract: a task exception aborts the round. The coordinator stops
// committing at the first failed index, runs the rest of its own share,
// drains every outstanding submission (references into the caller's frame
// stay valid), and rethrows the lowest failed index's exception, whichever
// thread ran it — the same deterministic surfacing rule as
// ThreadPool::parallel_for. Commits below the failed index have already
// run, but a task exception aborts the whole round, so no committed state
// survives to expose that.
#pragma once

#include <functional>

namespace dinar {
class ExecutionContext;
}

namespace dinar::fl {

// One-value schedule tag, kept only as RoundPipeline's first constructor
// argument because the benchmark's traced replay
// (perfbench/src/traced_run.cpp) still passes it.
enum class PipelineMode {
  kStream,
};

class RoundPipeline {
 public:
  // `exec` may be null (sequential). The pipeline holds the pointer only
  // for the duration of each run() call.
  RoundPipeline(PipelineMode mode, const ExecutionContext* exec);

  // Runs task(idx) for idx in [0, n) across the pool and commit(idx) for
  // every idx strictly in ascending order on the calling thread:
  // commit(idx) runs as soon as task(idx) and commits [0, idx) are done.
  // Every task runs exactly once, even when the round aborts; run()
  // returns only after every task AND every commit finished (or the round
  // aborted — see the error contract above) and every pool submission has
  // returned, since each holds references into run()'s frame. Sequential
  // contexts and pool workers degrade to an inline loop whose observable
  // behavior matches the threaded one.
  void run(std::size_t n, const std::function<void(std::size_t)>& task,
           const std::function<void(std::size_t)>& commit) const;

 private:
  const ExecutionContext* exec_;
};

}  // namespace dinar::fl
