// Fixed-size thread pool.
//
// The parallel execution engine (util/execution_context.h) wraps this pool;
// nothing else should reach it directly. Each FL client task carries its
// own Rng stream so results are identical regardless of scheduling. The
// thread that opens a parallel_for works on it too, so a pool of W workers
// runs a fan-out on W + 1 threads.
#pragma once

#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace dinar {

class ThreadPool {
 public:
  // `threads` is clamped to at least one worker: the default argument
  // forwards std::thread::hardware_concurrency(), which is allowed to
  // return 0, and a zero-worker pool would deadlock every submit().
  explicit ThreadPool(unsigned threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // True when called from inside a pool worker thread (any pool). Used to
  // run nested parallel sections inline instead of deadlocking on a
  // saturated queue.
  static bool on_worker_thread();

  // Marks the current thread as a pool worker for the scope's lifetime and
  // restores the previous marker on exit. A non-worker thread that runs a
  // task which would otherwise have been a pool submission (the round
  // pipeline's coordinator) uses it so the task's nested parallel sections
  // run inline, exactly as on a worker, instead of queueing behind whole
  // tasks on the saturated pool.
  class WorkerScope {
   public:
    WorkerScope();
    ~WorkerScope();
    WorkerScope(const WorkerScope&) = delete;
    WorkerScope& operator=(const WorkerScope&) = delete;

   private:
    bool previous_;
  };

  // Schedules `fn` and returns a future for its completion/exception.
  std::future<void> submit(std::function<void()> fn);

  // Runs fn(i) for i in [0, n) across the pool and the calling thread, and
  // returns when every index has finished. Up to min(n - 1, size()) helper
  // tasks and the caller claim indices one at a time; the caller runs its
  // claims under a WorkerScope, so their nested sections run inline. The
  // call never waits for a helper that has not started: a late helper finds
  // no index left and returns without touching fn. So a saturated pool
  // (every worker busy) degrades to the caller running every index.
  // Exceptions are captured per index and the lowest-index one is rethrown
  // on the caller's thread, whichever thread ran it, so the error surfaced
  // is deterministic — not whichever task happened to fail first under this
  // schedule.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop();
  void enqueue(std::function<void()> fn);

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace dinar
