// Wall-clock and CPU timers used by the cost experiments (paper Table 3).
//
// Client-side training duration and server-side aggregation duration are
// measured with WallTimer; CumulativeTimer aggregates many short intervals
// (e.g. per-round defense overhead) into a single figure.
#pragma once

#include <chrono>
#include <cstdint>

namespace dinar {

class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  void reset() { start_ = Clock::now(); }

  double elapsed_seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

// Accumulates disjoint timed sections; thread-compatible (one per thread).
class CumulativeTimer {
 public:
  void start() { timer_.reset(); }
  void stop() {
    total_seconds_ += timer_.elapsed_seconds();
    ++intervals_;
  }
  void reset() {
    total_seconds_ = 0.0;
    intervals_ = 0;
  }

  double total_seconds() const { return total_seconds_; }
  std::uint64_t intervals() const { return intervals_; }

 private:
  WallTimer timer_;
  double total_seconds_ = 0.0;
  std::uint64_t intervals_ = 0;
};

// RAII section timing: adds the scope's duration to a CumulativeTimer.
class ScopedTimer {
 public:
  explicit ScopedTimer(CumulativeTimer& target) : target_(target) { target_.start(); }
  ~ScopedTimer() { target_.stop(); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  CumulativeTimer& target_;
};

}  // namespace dinar
