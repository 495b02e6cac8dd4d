#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

namespace dinar {
namespace {

thread_local bool t_on_worker_thread = false;

}  // namespace

bool ThreadPool::on_worker_thread() { return t_on_worker_thread; }

ThreadPool::WorkerScope::WorkerScope() : previous_(t_on_worker_thread) {
  t_on_worker_thread = true;
}

ThreadPool::WorkerScope::~WorkerScope() { t_on_worker_thread = previous_; }

ThreadPool::ThreadPool(unsigned threads) {
  // hardware_concurrency() may legally return 0 (the header's default
  // argument forwards it); a pool with zero workers would never drain its
  // queue, so submit()/parallel_for() would block forever.
  const unsigned n = std::max(1u, threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::enqueue(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    tasks_.push(std::move(fn));
  }
  cv_.notify_one();
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  auto promise = std::make_shared<std::promise<void>>();
  std::future<void> fut = promise->get_future();
  enqueue([promise, fn = std::move(fn)] {
    try {
      fn();
      promise->set_value();
    } catch (...) {
      promise->set_exception(std::current_exception());
    }
  });
  return fut;
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Completion state, shared with the helper tasks: indices are claimed
  // from `next`, and each finished index stores its exception slot under
  // `mu`. A helper that claims an index at or past n returns without
  // touching `fn` or this frame, so the caller returns once every index has
  // finished, whether or not every helper has started. A claimed index
  // keeps the caller waiting until it finishes, so `fn` outlives every
  // call of it.
  struct Sync {
    Sync(std::size_t count, const std::function<void(std::size_t)>& body)
        : n(count), fn(&body), errors(count) {}
    const std::size_t n;
    const std::function<void(std::size_t)>* fn;
    std::atomic<std::size_t> next{0};
    std::mutex mu;
    std::condition_variable done;
    std::size_t finished = 0;
    std::vector<std::exception_ptr> errors;
  };
  const auto drain = [](Sync& s) {
    for (std::size_t i = s.next.fetch_add(1); i < s.n; i = s.next.fetch_add(1)) {
      std::exception_ptr err;
      try {
        (*s.fn)(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(s.mu);
      s.errors[i] = std::move(err);
      if (++s.finished == s.n) s.done.notify_all();
    }
  };
  const auto sync = std::make_shared<Sync>(n, fn);
  const std::size_t helpers = std::min(n - 1, workers_.size());
  for (std::size_t h = 0; h < helpers; ++h) enqueue([sync, drain] { drain(*sync); });
  {
    // The caller claims indices too; its nested sections run inline, as
    // on a worker.
    const WorkerScope as_worker;
    drain(*sync);
  }
  std::vector<std::exception_ptr> errors;
  {
    std::unique_lock<std::mutex> lock(sync->mu);
    sync->done.wait(lock, [&] { return sync->finished == n; });
    // Taken out under the lock: a late helper may drop the last reference
    // to `sync`, and every captured exception must be released on this
    // thread, never on a worker racing the caller's reads of the surfaced
    // one.
    errors = std::move(sync->errors);
  }
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
}

void ThreadPool::worker_loop() {
  t_on_worker_thread = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace dinar
