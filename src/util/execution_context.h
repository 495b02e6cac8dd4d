// Parallel execution engine: the single seam between DINAR's compute and
// the thread pool.
//
// An ExecutionContext owns (at most) one ThreadPool and is passed
// explicitly — through SimulationConfig into the simulation, from there
// into clients, models and aggregators, and as an optional argument into
// tensor kernels. There are no global singletons: whoever constructs the
// context decides its size and lifetime, and everything downstream either
// received a pointer or runs sequentially.
//
// Determinism contract: parallel_for splits [0, n) into contiguous,
// disjoint chunks; which thread runs a chunk (a pool worker or the caller)
// is scheduling only. A kernel whose writes are disjoint per index (every
// output element is produced entirely by one chunk, with a fixed internal
// reduction order) therefore produces bit-identical results for every
// thread count, including 1. All tensor kernels in this repo are written to
// that contract; reductions that are NOT order-free (double sums of
// per-client latencies, FedAvg accumulation) must instead be collected
// per task and merged sequentially in a fixed order — see
// fl/simulation.cpp's phased round protocol.
#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <memory>

#include "util/thread_pool.h"

namespace dinar {

struct ExecConfig {
  // Worker threads; 1 = sequential (no pool is created), 0 = one per
  // hardware thread.
  unsigned threads = 1;
  // Minimum indices per parallel_for chunk when the caller does not pass
  // its own grain; keeps tiny loops from paying scheduling overhead.
  std::size_t grain = 1024;
};

class ExecutionContext {
 public:
  explicit ExecutionContext(ExecConfig config = {});

  const ExecConfig& config() const { return config_; }
  unsigned threads() const { return threads_; }
  bool parallel() const { return threads_ > 1; }

  // Splits [0, n) into at most threads() + 1 contiguous chunks of at least
  // max(grain, config().grain) indices and runs fn(begin, end) across the
  // pool and the calling thread (ThreadPool::parallel_for), returning when
  // every chunk has finished. Runs inline when sequential, when the range
  // is a single chunk, or when called from a pool worker or a WorkerScope
  // (nested parallelism degrades to sequential instead of deadlocking).
  // The lowest-index chunk's exception is rethrown.
  void parallel_for(std::int64_t n,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    std::size_t grain = 0) const;

  // Runs fn(i) for each i in [0, n), claimed one index at a time by the
  // pool and the calling thread — the granularity where each index is a
  // whole unit of work (one client's evaluation). Same inline/nesting rules
  // as parallel_for; the lowest-index exception is rethrown.
  void for_each_task(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  // Schedules one task on the pool and returns a future for its
  // completion/exception. Runs fn inline (returning an already-resolved
  // future) when sequential or when called from a pool worker — same
  // degradation rule as the fan-out primitives, so a submit can never
  // deadlock on a saturated queue. This is the seam the streaming round
  // pipeline uses to treat each client exchange as an independent event
  // and to overlap next-round downlink serialization with commit work.
  std::future<void> submit(std::function<void()> fn) const;

 private:
  ExecConfig config_;
  unsigned threads_ = 1;
  std::unique_ptr<ThreadPool> pool_;  // null when threads_ == 1
};

}  // namespace dinar
