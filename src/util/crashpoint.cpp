#include "util/crashpoint.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <mutex>

#include "util/error.h"

namespace dinar {
namespace {

struct ArmedState {
  std::string name;
  int hit = 1;       // die on the hit-th execution of the site
  int seen = 0;      // executions observed so far
};

std::mutex g_mu;
ArmedState g_armed;
// Fast-path gate: crashpoint() is called inside WAL appends on every round,
// so the unarmed case must not take the mutex.
std::atomic<bool> g_any{false};
std::once_flag g_env_once;

void load_from_env() {
  const char* env = std::getenv("DINAR_CRASHPOINT");
  if (env == nullptr || *env == '\0') return;  // unset/empty = injection off
  const CrashpointSpec parsed = parse_crashpoint_spec(env);
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed = ArmedState{parsed.site, parsed.hit, 0};
  g_any.store(true, std::memory_order_release);
}

}  // namespace

CrashpointSpec parse_crashpoint_spec(const std::string& spec) {
  CrashpointSpec out{spec, 1};
  if (const auto colon = spec.rfind(':'); colon != std::string::npos) {
    const std::string count = spec.substr(colon + 1);
    if (count.empty() || count.find_first_not_of("0123456789") != std::string::npos)
      throw Error("DINAR_CRASHPOINT: hit count after ':' must be a positive "
                  "integer in spec '" + spec + "'");
    errno = 0;
    const long long hit = std::strtoll(count.c_str(), nullptr, 10);
    if (errno == ERANGE || hit < 1 ||
        hit > std::numeric_limits<int>::max())
      throw Error("DINAR_CRASHPOINT: hit count out of range [1, 2^31) in spec '" +
                  spec + "'");
    out.site = spec.substr(0, colon);
    out.hit = static_cast<int>(hit);
  }
  if (out.site.empty())
    throw Error("DINAR_CRASHPOINT: empty crash site in spec '" + spec + "'");
  return out;
}

void crashpoint(const char* name) {
  std::call_once(g_env_once, load_from_env);
  if (!g_any.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(g_mu);
  if (g_armed.name != name) return;
  if (++g_armed.seen < g_armed.hit) return;
  // Report to stderr without touching buffered streams, then die without
  // unwinding — the on-disk state must be whatever the kernel already has.
  std::string msg = "[crashpoint] dying at " + g_armed.name + "\n";
  [[maybe_unused]] const auto n = ::write(STDERR_FILENO, msg.data(), msg.size());
  ::_exit(kCrashpointExitCode);
}

void crashpoint_arm(const std::string& name, int hit) {
  std::call_once(g_env_once, load_from_env);  // keep env parse one-shot
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed = ArmedState{name, hit < 1 ? 1 : hit, 0};
  g_any.store(true, std::memory_order_release);
}

void crashpoint_disarm() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_armed = ArmedState{};
  g_any.store(false, std::memory_order_release);
}

bool crashpoint_armed() {
  std::call_once(g_env_once, load_from_env);
  return g_any.load(std::memory_order_acquire);
}

const std::vector<std::string>& crashpoint_registry() {
  // Ordered roughly by how often each site executes; the crash-matrix
  // driver iterates this list verbatim.
  static const std::vector<std::string> kSites = {
      "wal.append.pre_write",   // nothing of this record on disk yet
      "wal.append.mid_write",   // torn tail: header + partial payload
      "wal.append.pre_fsync",   // full record written, not yet durable
      "wal.append.post_fsync",  // record durable, append not yet acked
      "snapshot.pre_write",     // before the temp snapshot file exists
      "snapshot.pre_fsync",     // temp written, not yet durable
      "snapshot.rename",        // temp durable, not yet installed
      "snapshot.post_rename",   // installed, WAL not yet compacted
      "round.commit.mid",       // state mutated in memory, WAL not appended
      "round.commit.post_append",  // WAL appended, snapshot cadence pending
  };
  return kSites;
}

}  // namespace dinar
