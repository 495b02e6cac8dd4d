#include "fl/pipeline.h"

#include <condition_variable>
#include <exception>
#include <mutex>
#include <vector>

#include "util/execution_context.h"

namespace dinar::fl {

RoundPipeline::RoundPipeline(PipelineMode /*mode*/, const ExecutionContext* exec)
    : exec_(exec) {}

namespace {

// Shared state between the coordinator and the pool submissions of one
// threaded run(). Each index runs on exactly one thread, fixed before the
// run starts; a pool submission touches only its own slot plus the
// mutex/cv, and done/error are guarded by mu.
struct StreamState {
  explicit StreamState(std::size_t n) : done(n, false), error(n, nullptr) {}

  std::mutex mu;
  std::condition_variable cv;
  std::vector<bool> done;
  std::vector<std::exception_ptr> error;
};

std::exception_ptr run_task(const std::function<void(std::size_t)>& task, std::size_t i) {
  try {
    task(i);
  } catch (...) {
    return std::current_exception();
  }
  return nullptr;
}

}  // namespace

void RoundPipeline::run(std::size_t n, const std::function<void(std::size_t)>& task,
                        const std::function<void(std::size_t)>& commit) const {
  if (n == 0) return;

  // Without real workers there is nothing to overlap; the inline form
  // interleaves task(i); commit(i), which observably matches the threaded
  // schedule (commit i always runs after task i and commit i-1).
  if (exec_ == nullptr || !exec_->parallel() || ThreadPool::on_worker_thread()) {
    for (std::size_t i = 0; i < n; ++i) {
      task(i);
      commit(i);
    }
    return;
  }

  // Threaded stream: the coordinator (this thread) owns every (W+1)-th
  // index below n-1, starting at W, for W pool workers; every other index
  // is its own pool submission. The coordinator sweeps the commits in
  // ascending order and, while the next one is not ready, runs its own
  // next index instead of sleeping. Owning n-1 never, it is free to
  // commit everything below the tail while the tail runs.
  const std::size_t stride = exec_->threads() + 1;
  const auto owned_here = [stride, n](std::size_t i) {
    return i + 1 < n && i % stride == stride - 1;
  };
  StreamState st(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (owned_here(i)) continue;
    exec_->submit([&st, &task, i] {
      std::exception_ptr err = run_task(task, i);
      std::lock_guard<std::mutex> lock(st.mu);
      st.done[i] = true;
      // Moved, not copied: the caller may rethrow and free the exception
      // as soon as mu is released, so this thread keeps no reference.
      st.error[i] = std::move(err);
      st.cv.notify_all();
    });
  }

  std::size_t next_own = stride - 1;  // the coordinator's next index to run
  const auto run_one_here = [&] {
    if (!owned_here(next_own)) return false;
    const std::size_t j = next_own;
    next_own += stride;
    std::exception_ptr err;
    {
      // Nested parallel sections run inline, as on a worker.
      const ThreadPool::WorkerScope as_worker;
      err = run_task(task, j);
    }
    std::lock_guard<std::mutex> lock(st.mu);
    st.done[j] = true;
    st.error[j] = err;
    return true;
  };
  const auto is_done = [&st](std::size_t i) {
    std::lock_guard<std::mutex> lock(st.mu);
    return static_cast<bool>(st.done[i]);
  };
  // Every task runs once even when the round aborts: the coordinator
  // finishes its own share, then waits for every pool submission, since
  // each holds references into this frame (a submission's last touch of
  // it is under mu, where it marks its index done).
  const auto drain = [&] {
    while (run_one_here()) {
    }
    std::unique_lock<std::mutex> lock(st.mu);
    st.cv.wait(lock, [&st, n] {
      for (std::size_t i = 0; i < n; ++i)
        if (!st.done[i]) return false;
      return true;
    });
  };

  std::exception_ptr failure;  // lowest-index task error, if any
  for (std::size_t i = 0; i < n; ++i) {
    while (!is_done(i) && run_one_here()) {
    }
    {
      std::unique_lock<std::mutex> lock(st.mu);
      st.cv.wait(lock, [&st, i] { return st.done[i]; });
      failure = st.error[i];
    }
    // We sweep ascending, so the first error seen is the lowest-index one,
    // whichever thread ran it; commits stop here (the round is aborting)
    // but the remaining tasks must still drain before their captured
    // references go out of scope.
    if (failure) break;
    try {
      commit(i);
    } catch (...) {
      drain();
      throw;
    }
  }
  drain();
  if (failure) std::rethrow_exception(failure);
}

}  // namespace dinar::fl
