#include "tracer.h"

#include <algorithm>
#include <fstream>
#include <unordered_map>

#include "util/error.h"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> g_next_serial{1};

// The calling thread's state for the tracer with serial `serial`.
struct ThreadCache {
  std::uint64_t serial = 0;
  void* state = nullptr;
};
thread_local ThreadCache t_cache;

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer::Tracer()
    : serial_(g_next_serial.fetch_add(1)), epoch_(std::chrono::steady_clock::now()) {}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

Tracer::ThreadState& Tracer::state() {
  if (t_cache.serial == serial_) return *static_cast<ThreadState*>(t_cache.state);
  auto st = std::make_unique<ThreadState>();
  ThreadState* raw = st.get();
  {
    std::lock_guard<std::mutex> lock(mu_);
    st->thread = static_cast<std::uint32_t>(threads_.size());
    threads_.push_back(std::move(st));
  }
  t_cache = {serial_, raw};
  return *raw;
}

void Tracer::record(std::string name, std::int64_t start_ns, std::int64_t end_ns,
                    std::int64_t round, int client, std::uint64_t parent) {
  ThreadState& st = state();
  Span s;
  s.name = std::move(name);
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  s.parent = parent;
  s.round = round;
  s.client = client;
  s.thread = st.thread;
  st.spans.push_back(std::move(s));
}

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::int64_t round, int client,
                     std::uint64_t parent)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  ThreadState& st = tracer_->state();
  span_.name = std::move(name);
  span_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  span_.thread = st.thread;
  if (parent == 0 && !st.open.empty()) {
    const OpenScope& up = st.open.back();
    span_.parent = up.id;
    if (round < 0) round = up.round;
    if (client < 0) client = up.client;
  } else {
    span_.parent = parent;
  }
  span_.round = round;
  span_.client = client;
  st.open.push_back({span_.id, round, client});
  span_.start_ns = tracer_->now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->now_ns();
  ThreadState& st = tracer_->state();
  st.open.pop_back();
  st.spans.push_back(std::move(span_));
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& t : threads_)
      all.insert(all.end(), t->spans.begin(), t->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  DINAR_CHECK(f.good(), "cannot open trace file " << path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) f << ",";
    first = false;
    // trace_event timestamps are microseconds; keep the nanosecond digits.
    f << "\n{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
      << json_escape(s.name.substr(0, s.name.find('.'))) << "\",\"ph\":\"X\",\"pid\":1"
      << ",\"tid\":" << s.thread << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
      << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
      << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
      << ",\"round\":" << s.round << ",\"client\":" << s.client << "}}";
  }
  f << "\n]}\n";
  f.close();
  DINAR_CHECK(!f.fail(), "failed writing trace file " << path);
}

std::int64_t union_ns(std::vector<std::pair<std::int64_t, std::int64_t>> intervals,
                      std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0, run_start = 0, run_end = 0;
  for (auto [a, b] : intervals) {
    a = std::max(a, lo);
    b = std::min(b, hi);
    if (b <= a) continue;
    if (a > run_end) {
      total += run_end - run_start;
      run_start = a;
      run_end = b;
    } else {
      run_end = std::max(run_end, b);
    }
  }
  return total + run_end - run_start;
}

std::map<std::uint64_t, double> self_ms(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  std::map<std::uint64_t, double> out;
  for (const Span& s : spans) {
    const auto it = children.find(s.id);
    const std::int64_t covered =
        it == children.end() ? 0 : union_ns(it->second, s.start_ns, s.end_ns);
    out[s.id] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

}  // namespace perfbench
