// Fault injection for the FL transport.
//
// Real middleware deployments see client crashes, dropped / duplicated /
// corrupted messages, and stragglers; the paper's round protocol (§2.1)
// assumes none of these. FaultInjector sits between a payload and its
// delivery: seeded, per-direction probabilities decide each message's fate
// (drop, duplicate, byte corruption, extra delay), per-client schedules
// model permanent crashes and wall-clock stragglers, and every injected
// fault is counted in FaultStats so experiments can report exactly what
// the round protocol survived.
//
// Determinism: every message's fault draws come from a stream forked from
// (seed, round, client, direction, per-client sequence number), so the
// fate of client A's messages is independent of whether client B shipped
// before or after it. That makes the injector safe under the parallel
// round protocol — concurrent per-client exchanges draw the identical
// faults the sequential path would — and a resumed simulation
// replays the identical fault schedule for the rounds it re-runs,
// independent of how many random draws happened before the crash.
//
// Beyond benign faults, AdversaryEngine models *Byzantine* clients: they
// follow the protocol (well-formed, finite, correctly-framed updates) but
// upload adversarially crafted parameters — sign-flipping, model
// replacement, Gaussian poisoning, or collusion on a shared malicious
// target. Attacks are scheduled per (seed, round, client) exactly like
// transport faults, so a resumed run replays the identical
// attack trace.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "fl/message.h"
#include "util/rng.h"

namespace dinar::fl {

enum class LinkDir { kUp, kDown };  // up = client -> server

struct FaultConfig {
  // Per-message fault probabilities in [0, 1], independent per direction.
  double drop_up = 0.0;
  double drop_down = 0.0;
  double duplicate_up = 0.0;
  double duplicate_down = 0.0;
  double corrupt_up = 0.0;
  double corrupt_down = 0.0;
  // With probability delay_prob a delivered message gains U(0, delay_max)
  // seconds of simulated one-way delay.
  double delay_prob = 0.0;
  double delay_max_seconds = 0.0;
  // client id -> first round at which the client is permanently down.
  std::map<int, std::int64_t> crash_at_round;
  // client id -> real wall-clock seconds that client's exchange task sleeps
  // before uploading. This burns actual time and never touches the
  // simulated-latency clock, so it has ZERO effect on any recorded or
  // compared value — bit-identity across thread counts is unaffected. It
  // exists to create a genuine straggler tail for the streaming round
  // engine to overlap (DESIGN.md §13): the fast clients' commits and the
  // next round's broadcast serialization proceed while these clients sleep.
  std::map<int, double> straggler_wall_seconds;
  std::uint64_t seed = 0xFA017;

  // True if any fault can ever fire under this configuration.
  bool any() const;
};

struct FaultStats {
  std::uint64_t drops_up = 0;
  std::uint64_t drops_down = 0;
  std::uint64_t duplicates_up = 0;
  std::uint64_t duplicates_down = 0;
  std::uint64_t corruptions_up = 0;
  std::uint64_t corruptions_down = 0;
  std::uint64_t crashed_contacts = 0;  // messages suppressed by a crash
  std::uint64_t delays_injected = 0;
  double injected_delay_seconds = 0.0;

  // Counter-wise accumulate (the parallel round protocol collects stats
  // per exchange and merges them in deterministic client order).
  void merge(const FaultStats& other);
};

// Counter-wise difference now - before; both must come from the same
// injector (the round protocol uses this to report per-round deltas).
FaultStats fault_stats_delta(const FaultStats& now, const FaultStats& before);

// One message's fate after injection: zero copies = dropped, two = the
// original plus a duplicate; each copy may have corrupted bytes.
struct FaultedDelivery {
  std::vector<std::vector<std::uint8_t>> copies;
  double extra_delay_seconds = 0.0;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config);

  // Forks the per-round random stream; must be called at every round start.
  void begin_round(std::int64_t round);
  std::int64_t round() const { return round_; }

  // True if the client's crash schedule says it is down this round.
  bool is_crashed(int client_id) const;
  // Book-keeping for a contact the simulation suppressed due to a crash.
  void record_crashed_contact() { ++stats_.crashed_contacts; }

  // Real seconds this client's exchange sleeps before its upload (0.0 =
  // none). Wall-clock only; never enters stats or outcomes.
  double straggler_wall_seconds(int client_id) const;

  // Applies drop / duplicate / corrupt / delay to one outgoing message.
  // All draws come from a stream keyed by (round, client_id, dir, seq)
  // where seq counts this client's messages on this link within the
  // round — so concurrent callers working on different clients obtain
  // exactly the faults the sequential schedule would. When `sink` is
  // non-null the fault counters go there instead of the injector's
  // cumulative stats; the caller later folds them back via merge_stats()
  // in deterministic order. Thread-safe.
  FaultedDelivery apply(LinkDir dir, int client_id, std::vector<std::uint8_t> payload,
                        FaultStats* sink = nullptr);

  // Folds deferred per-exchange counters back into the cumulative stats.
  void merge_stats(const FaultStats& delta) { stats_.merge(delta); }

  const FaultConfig& config() const { return config_; }
  const FaultStats& stats() const { return stats_; }
  void reset_stats() { stats_ = FaultStats{}; }
  // Crash recovery: installs persisted cumulative counters verbatim so
  // per-round fault deltas keep subtracting against the right baseline.
  void restore_stats(const FaultStats& stats) { stats_ = stats; }

 private:
  static void corrupt_bytes(std::vector<std::uint8_t>& payload, Rng& rng);
  std::uint64_t next_seq(LinkDir dir, int client_id);

  FaultConfig config_;
  Rng base_rng_;
  Rng round_rng_;  // forked per round; per-message streams fork from it
  std::int64_t round_ = 0;
  FaultStats stats_;
  // (client_id, dir) -> messages shipped this round; guarded by mu_.
  std::map<std::pair<int, int>, std::uint64_t> seq_;
  std::mutex mu_;
};

// -- Byzantine (adversarial) clients ----------------------------------------

enum class AttackType {
  kSignFlip,          // theta_mal = g - s * (theta - g): inverts the descent step
  kModelReplacement,  // theta_mal = g + s * (theta - g): boosts its own delta
  kGaussianNoise,     // theta_mal = theta + N(0, noise_std): poisons gradually
  kColluding,         // all colluders upload one identical crafted model
};
const char* to_string(AttackType type);

struct AdversaryConfig {
  // client id -> attack behavior; absent clients are honest.
  std::map<int, AttackType> attackers;
  // First round the attackers act; before it they behave honestly (a
  // sleeper schedule exercises mid-run detection).
  std::int64_t active_from_round = 0;
  // Delta multiplier for sign-flip attacks.
  double sign_flip_scale = 1.0;
  // Delta multiplier for model replacement and the colluders' target.
  double replacement_scale = 10.0;
  // Per-coordinate noise stddev for Gaussian poisoning.
  double noise_std = 1.0;
  std::uint64_t seed = 0xBAD5EED;

  bool any() const { return !attackers.empty(); }
};

struct AttackStats {
  std::uint64_t corrupted_updates = 0;
  std::uint64_t sign_flips = 0;
  std::uint64_t replacements = 0;
  std::uint64_t noise_injections = 0;
  std::uint64_t colluding_uploads = 0;
};

// Turns an honest client's trained update into its Byzantine payload. All
// randomness is forked from (seed, round, client), so the attack trace is
// independent of call order and replays identically after a resume.
class AdversaryEngine {
 public:
  explicit AdversaryEngine(AdversaryConfig config);

  // Must be called at every round start (mirrors FaultInjector).
  void begin_round(std::int64_t round) { round_ = round; }
  std::int64_t round() const { return round_; }

  // True if this client attacks in the current round.
  bool is_attacker(int client_id) const;

  // Replaces `update.params` with the attack payload; `global` is the
  // round's broadcast model the attacker also received. The update stays
  // well-formed (finite, right shapes) — that is the point: Byzantine
  // updates pass every validity check and must be caught statistically.
  // Thread-safe: all randomness is keyed by (round, client) and the stats
  // counters are mutex-guarded, so concurrent per-client exchanges
  // produce the identical attack trace in any order.
  void corrupt_update(const nn::FlatParams& global, ModelUpdateMsg& update);

  const AdversaryConfig& config() const { return config_; }
  const AttackStats& stats() const { return stats_; }
  // Crash recovery: installs persisted cumulative attack counters.
  void restore_stats(const AttackStats& stats) { stats_ = stats; }

 private:
  void record(AttackType type);

  AdversaryConfig config_;
  Rng base_rng_;
  std::int64_t round_ = 0;
  AttackStats stats_;
  std::mutex mu_;  // guards stats_ during parallel rounds
};

}  // namespace dinar::fl
