#include "util/thread_pool.h"

#include <algorithm>

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
  // Completion state: a counter the caller waits on, plus one exception
  // slot per index so errors survive the task's stack unwinding and are
  // rethrown deterministically (lowest index first). It lives in the
  // caller's frame, which outlives every task (the caller waits for the
  // last one, and a task touches nothing after its final unlock), so every
  // captured exception is released on this thread, never on a worker
  // racing the caller's reads of the surfaced one.
  struct Sync {
    std::mutex mu;
    std::condition_variable done;
    std::size_t remaining;
    std::vector<std::exception_ptr> errors;
  };
  Sync sync;
  sync.remaining = n;
  sync.errors.resize(n);

  for (std::size_t i = 0; i < n; ++i) {
    enqueue([&sync, &fn, i] {
      std::exception_ptr err;
      try {
        fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(sync.mu);
      sync.errors[i] = std::move(err);
      if (--sync.remaining == 0) sync.done.notify_all();
    });
  }

  std::unique_lock<std::mutex> lock(sync.mu);
  sync.done.wait(lock, [&] { return sync.remaining == 0; });
  for (const std::exception_ptr& e : sync.errors)
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
