#include "fl/faults.h"

#include "util/error.h"

namespace dinar::fl {

bool FaultConfig::any() const {
  return drop_up > 0.0 || drop_down > 0.0 || duplicate_up > 0.0 ||
         duplicate_down > 0.0 || corrupt_up > 0.0 || corrupt_down > 0.0 ||
         delay_prob > 0.0 || !crash_at_round.empty() || !straggler_wall_seconds.empty();
}

namespace {

void check_probability(double p, const char* name) {
  DINAR_CHECK(p >= 0.0 && p <= 1.0, "fault probability " << name << " = " << p
                                                         << " outside [0, 1]");
}

// Order-free fork stream for one message's fault draws. Mixing odd
// multipliers per component keeps distinct (client, dir, seq) triples on
// distinct streams. The constants, the +2 offset on the client id
// included, fix every seeded run's fault schedule: keep them as they are.
std::uint64_t message_stream(int client_id, LinkDir dir, std::uint64_t seq) {
  std::uint64_t h = 0xFA17BA5EULL;
  h ^= static_cast<std::uint64_t>(client_id + 2) * 0x9E3779B97F4A7C15ULL;
  h ^= (dir == LinkDir::kUp ? 0x5BD1E995ULL : 0xC2B2AE3D27D4EB4FULL);
  h ^= (seq + 1) * 0x94D049BB133111EBULL;
  return h;
}

}  // namespace

void FaultStats::merge(const FaultStats& other) {
  drops_up += other.drops_up;
  drops_down += other.drops_down;
  duplicates_up += other.duplicates_up;
  duplicates_down += other.duplicates_down;
  corruptions_up += other.corruptions_up;
  corruptions_down += other.corruptions_down;
  crashed_contacts += other.crashed_contacts;
  delays_injected += other.delays_injected;
  injected_delay_seconds += other.injected_delay_seconds;
}

FaultInjector::FaultInjector(FaultConfig config)
    : config_(std::move(config)), base_rng_(config_.seed), round_rng_(config_.seed) {
  check_probability(config_.drop_up, "drop_up");
  check_probability(config_.drop_down, "drop_down");
  check_probability(config_.duplicate_up, "duplicate_up");
  check_probability(config_.duplicate_down, "duplicate_down");
  check_probability(config_.corrupt_up, "corrupt_up");
  check_probability(config_.corrupt_down, "corrupt_down");
  check_probability(config_.delay_prob, "delay_prob");
  DINAR_CHECK(config_.delay_max_seconds >= 0.0, "negative delay_max_seconds");
  for (const auto& [client, seconds] : config_.straggler_wall_seconds)
    DINAR_CHECK(seconds >= 0.0, "straggler wall seconds for client "
                                    << client << " must be >= 0");
  begin_round(0);
}

void FaultInjector::begin_round(std::int64_t round) {
  round_ = round;
  round_rng_ = base_rng_.fork(0xF417ULL + static_cast<std::uint64_t>(round));
  std::lock_guard<std::mutex> lock(mu_);
  seq_.clear();
}

std::uint64_t FaultInjector::next_seq(LinkDir dir, int client_id) {
  std::lock_guard<std::mutex> lock(mu_);
  return seq_[{client_id, dir == LinkDir::kUp ? 1 : 0}]++;
}

bool FaultInjector::is_crashed(int client_id) const {
  const auto it = config_.crash_at_round.find(client_id);
  return it != config_.crash_at_round.end() && round_ >= it->second;
}

double FaultInjector::straggler_wall_seconds(int client_id) const {
  const auto it = config_.straggler_wall_seconds.find(client_id);
  return it == config_.straggler_wall_seconds.end() ? 0.0 : it->second;
}

FaultedDelivery FaultInjector::apply(LinkDir dir, int client_id,
                                     std::vector<std::uint8_t> payload,
                                     FaultStats* sink) {
  const bool up = dir == LinkDir::kUp;
  Rng rng = round_rng_.fork(message_stream(client_id, dir, next_seq(dir, client_id)));
  FaultStats local;
  FaultedDelivery delivery;

  const auto commit = [&] {
    if (sink != nullptr) {
      sink->merge(local);
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      stats_.merge(local);
    }
  };

  if (rng.bernoulli(up ? config_.drop_up : config_.drop_down)) {
    ++(up ? local.drops_up : local.drops_down);
    commit();
    return delivery;
  }

  delivery.copies.push_back(std::move(payload));
  if (rng.bernoulli(up ? config_.duplicate_up : config_.duplicate_down)) {
    ++(up ? local.duplicates_up : local.duplicates_down);
    delivery.copies.push_back(delivery.copies.front());
  }

  const double p_corrupt = up ? config_.corrupt_up : config_.corrupt_down;
  for (std::vector<std::uint8_t>& copy : delivery.copies) {
    if (!copy.empty() && rng.bernoulli(p_corrupt)) {
      ++(up ? local.corruptions_up : local.corruptions_down);
      corrupt_bytes(copy, rng);
    }
  }

  if (rng.bernoulli(config_.delay_prob)) {
    ++local.delays_injected;
    delivery.extra_delay_seconds = rng.uniform(0.0, config_.delay_max_seconds);
    local.injected_delay_seconds += delivery.extra_delay_seconds;
  }
  commit();
  return delivery;
}

void FaultInjector::corrupt_bytes(std::vector<std::uint8_t>& payload, Rng& rng) {
  // Flip 1-4 bytes at random positions; the xor mask is drawn from
  // [1, 255] so every flip genuinely changes the byte.
  const std::uint64_t flips = 1 + rng.uniform_index(4);
  for (std::uint64_t f = 0; f < flips; ++f) {
    const std::size_t pos = static_cast<std::size_t>(rng.uniform_index(payload.size()));
    payload[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_index(255));
  }
}

FaultStats fault_stats_delta(const FaultStats& now, const FaultStats& before) {
  FaultStats d;
  d.drops_up = now.drops_up - before.drops_up;
  d.drops_down = now.drops_down - before.drops_down;
  d.duplicates_up = now.duplicates_up - before.duplicates_up;
  d.duplicates_down = now.duplicates_down - before.duplicates_down;
  d.corruptions_up = now.corruptions_up - before.corruptions_up;
  d.corruptions_down = now.corruptions_down - before.corruptions_down;
  d.crashed_contacts = now.crashed_contacts - before.crashed_contacts;
  d.delays_injected = now.delays_injected - before.delays_injected;
  d.injected_delay_seconds = now.injected_delay_seconds - before.injected_delay_seconds;
  return d;
}

// -- Byzantine (adversarial) clients ----------------------------------------

const char* to_string(AttackType type) {
  switch (type) {
    case AttackType::kSignFlip: return "sign-flip";
    case AttackType::kModelReplacement: return "model-replacement";
    case AttackType::kGaussianNoise: return "gaussian-noise";
    case AttackType::kColluding: return "colluding";
  }
  return "unknown";
}

namespace {

// Distinct, order-free fork streams per (round, client) and per round.
std::uint64_t attack_stream(std::int64_t round, int client_id) {
  return 0xADF00000ULL + static_cast<std::uint64_t>(round) * 100003ULL +
         static_cast<std::uint64_t>(client_id);
}
std::uint64_t collusion_stream(std::int64_t round) {
  return 0xC011DE00ULL + static_cast<std::uint64_t>(round);
}

}  // namespace

AdversaryEngine::AdversaryEngine(AdversaryConfig config)
    : config_(std::move(config)), base_rng_(config_.seed) {
  DINAR_CHECK(config_.active_from_round >= 0, "negative adversary active_from_round");
  DINAR_CHECK(config_.sign_flip_scale > 0.0, "sign_flip_scale must be positive");
  DINAR_CHECK(config_.replacement_scale > 0.0, "replacement_scale must be positive");
  DINAR_CHECK(config_.noise_std >= 0.0, "negative noise_std");
  for (const auto& [client, type] : config_.attackers)
    DINAR_CHECK(client >= 0, "negative attacker client id " << client
                                                            << " (" << to_string(type)
                                                            << ")");
}

bool AdversaryEngine::is_attacker(int client_id) const {
  return round_ >= config_.active_from_round &&
         config_.attackers.count(client_id) != 0;
}

void AdversaryEngine::corrupt_update(const nn::FlatParams& global,
                                     ModelUpdateMsg& update) {
  DINAR_CHECK(is_attacker(update.client_id),
              "corrupt_update called for honest client " << update.client_id);
  DINAR_CHECK(update.params.same_layout(global),
              "attacker " << update.client_id << " update shape differs from global");
  const AttackType type = config_.attackers.at(update.client_id);
  const std::span<const float> vg = global.as_span();
  const std::span<float> vu = update.params.as_span();

  switch (type) {
    case AttackType::kSignFlip:
      // Invert the client's own delta: the aggregate is pushed backwards
      // along an honest descent direction.
      for (std::size_t j = 0; j < vu.size(); ++j)
        vu[j] = static_cast<float>(
            static_cast<double>(vg[j]) -
            config_.sign_flip_scale *
                (static_cast<double>(vu[j]) - static_cast<double>(vg[j])));
      record(AttackType::kSignFlip);
      break;

    case AttackType::kModelReplacement:
      // Boost the own delta so a weighted mean is dominated by it (the
      // classic model-replacement / scaling backdoor vehicle).
      for (std::size_t j = 0; j < vu.size(); ++j)
        vu[j] = static_cast<float>(
            static_cast<double>(vg[j]) +
            config_.replacement_scale *
                (static_cast<double>(vu[j]) - static_cast<double>(vg[j])));
      record(AttackType::kModelReplacement);
      break;

    case AttackType::kGaussianNoise: {
      // One draw per coordinate in arena order — the same order the old
      // per-tensor loop consumed the stream in.
      Rng rng = base_rng_.fork(attack_stream(round_, update.client_id));
      for (float& v : vu)
        v = static_cast<float>(static_cast<double>(v) +
                               rng.gaussian(0.0, config_.noise_std));
      record(AttackType::kGaussianNoise);
      break;
    }

    case AttackType::kColluding: {
      // Every colluder regenerates the identical round target from the
      // same (seed, round) stream, so their uploads mutually support each
      // other in distance-based scoring (the scenario Krum is weakest in).
      Rng rng = base_rng_.fork(collusion_stream(round_));
      for (std::size_t j = 0; j < vu.size(); ++j)
        vu[j] = static_cast<float>(static_cast<double>(vg[j]) +
                                   config_.replacement_scale * rng.gaussian());
      record(AttackType::kColluding);
      break;
    }
  }
}

void AdversaryEngine::record(AttackType type) {
  std::lock_guard<std::mutex> lock(mu_);
  switch (type) {
    case AttackType::kSignFlip: ++stats_.sign_flips; break;
    case AttackType::kModelReplacement: ++stats_.replacements; break;
    case AttackType::kGaussianNoise: ++stats_.noise_injections; break;
    case AttackType::kColluding: ++stats_.colluding_uploads; break;
  }
  ++stats_.corrupted_updates;
}

}  // namespace dinar::fl
