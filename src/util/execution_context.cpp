#include "util/execution_context.h"

#include <algorithm>
#include <thread>
#include <vector>

namespace dinar {

ExecutionContext::ExecutionContext(ExecConfig config) : config_(config) {
  threads_ = config_.threads == 0
                 ? std::max(1u, std::thread::hardware_concurrency())
                 : config_.threads;
  if (threads_ > 1) pool_ = std::make_unique<ThreadPool>(threads_);
}

void ExecutionContext::parallel_for(
    std::int64_t n, const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::size_t grain) const {
  if (n <= 0) return;
  const std::int64_t min_chunk = static_cast<std::int64_t>(
      std::max<std::size_t>(1, grain == 0 ? config_.grain : grain));
  if (pool_ == nullptr || ThreadPool::on_worker_thread() || n <= min_chunk) {
    fn(0, n);
    return;
  }
  // Contiguous disjoint chunks, one per worker plus one for the caller;
  // the chunk count only affects scheduling, never results (see the
  // determinism contract in the header).
  const std::int64_t max_chunks = (n + min_chunk - 1) / min_chunk;
  const std::int64_t chunks =
      std::min<std::int64_t>(max_chunks, static_cast<std::int64_t>(threads_) + 1);
  const std::int64_t chunk = (n + chunks - 1) / chunks;
  pool_->parallel_for(static_cast<std::size_t>(chunks), [&](std::size_t c) {
    const std::int64_t begin = static_cast<std::int64_t>(c) * chunk;
    const std::int64_t end = std::min(n, begin + chunk);
    if (begin < end) fn(begin, end);
  });
}

std::future<void> ExecutionContext::submit(std::function<void()> fn) const {
  if (pool_ == nullptr || ThreadPool::on_worker_thread()) {
    std::promise<void> done;
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
    return done.get_future();
  }
  return pool_->submit(std::move(fn));
}

void ExecutionContext::for_each_task(std::size_t n,
                                     const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  if (pool_ == nullptr || ThreadPool::on_worker_thread() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  pool_->parallel_for(n, fn);
}

}  // namespace dinar
