// In-memory span recorder for the benchmark's traced run.
//
// A span is one call the benchmark makes into a layer's public function:
// name, start, end, the span that caused it, and the round and client it
// belongs to. Spans go into per-thread append-only buffers (the only lock
// is taken once per thread, when its buffer is registered), and are read
// back after the run: exported as Chrome trace_event JSON, and reduced to
// per-name durations and self times (a span's duration minus the part of
// its interval that its children cover).
//
// The untraced run never constructs a Tracer and never enters this code.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;  // since the tracer was created
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::int64_t round = -1;   // -1 = not tied to a round
  int client = -1;           // -1 = not tied to a client
  std::uint32_t thread = 0;  // registration order of the recording thread

  double ms() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Records one span from construction to destruction. The parent is the
  // innermost open scope on this thread unless `parent` names one (a task
  // that runs on a pool worker on behalf of a coordinator span). Round and
  // client default to the parent's when it is on this thread. A null
  // tracer makes the scope a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::int64_t round = -1, int client = -1,
          std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint64_t id() const { return span_.id; }

   private:
    Tracer* tracer_;
    Span span_;
  };

  // Records an interval the caller measured itself (a wait between two
  // scopes) as a span of the calling thread.
  void record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t round, int client, std::uint64_t parent);

  // Every recorded span, ordered by start time. Call only once the
  // recording threads are quiescent.
  std::vector<Span> spans() const;

  // Writes the spans as a Chrome trace_event JSON file. Throws
  // dinar::Error on an I/O failure.
  void write_chrome_trace(const std::string& path) const;

  std::int64_t now_ns() const;

 private:
  struct OpenScope {
    std::uint64_t id;
    std::int64_t round;
    int client;
  };
  // One recording thread's buffer and its stack of open scopes. Only that
  // thread touches it until spans() reads it back.
  struct ThreadState {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
    std::vector<OpenScope> open;
  };
  // The calling thread's state, registered on first use.
  ThreadState& state();

  // Distinguishes tracers for the per-thread cache, even when a later
  // tracer reuses an earlier one's address.
  const std::uint64_t serial_;
  const std::chrono::steady_clock::time_point epoch_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;  // guards threads_ (registration and read-back)
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// Length of the union of `intervals` ([start, end) in ns) clipped to
// [lo, hi): overlapping intervals, such as spans of concurrent threads,
// count once.
std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                      std::int64_t lo, std::int64_t hi);

// Self time of every span: its duration minus the union of its children's
// intervals (clipped to its own), in milliseconds, keyed by span id.
std::map<std::uint64_t, double> self_ms(const std::vector<Span>& spans);

}  // namespace perfbench
