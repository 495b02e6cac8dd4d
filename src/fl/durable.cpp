#include "fl/durable.h"

#include "util/error.h"

namespace dinar::fl {
namespace {

void write_int_vector(BinaryWriter& w, const std::vector<int>& v) {
  w.write_u64(v.size());
  for (const int x : v) w.write_i64(x);
}

std::vector<int> read_int_vector(BinaryReader& r) {
  const std::uint64_t n = r.read_length(sizeof(std::int64_t));
  std::vector<int> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) v.push_back(static_cast<int>(r.read_i64()));
  return v;
}

}  // namespace

void write_fault_stats(BinaryWriter& w, const FaultStats& s) {
  w.write_u64(s.drops_up);
  w.write_u64(s.drops_down);
  w.write_u64(s.duplicates_up);
  w.write_u64(s.duplicates_down);
  w.write_u64(s.corruptions_up);
  w.write_u64(s.corruptions_down);
  w.write_u64(s.crashed_contacts);
  w.write_u64(s.delays_injected);
  w.write_f64(s.injected_delay_seconds);
}

FaultStats read_fault_stats(BinaryReader& r) {
  FaultStats s;
  s.drops_up = r.read_u64();
  s.drops_down = r.read_u64();
  s.duplicates_up = r.read_u64();
  s.duplicates_down = r.read_u64();
  s.corruptions_up = r.read_u64();
  s.corruptions_down = r.read_u64();
  s.crashed_contacts = r.read_u64();
  s.delays_injected = r.read_u64();
  s.injected_delay_seconds = r.read_f64();
  return s;
}

void write_transport_stats(BinaryWriter& w, const TransportStats& s) {
  w.write_u64(s.messages_up);
  w.write_u64(s.messages_down);
  w.write_u64(s.bytes_up);
  w.write_u64(s.bytes_down);
  w.write_u64(s.frame_bytes_up);
  w.write_u64(s.frame_bytes_down);
  w.write_u64(s.bytes_up_uncoded);
  w.write_u64(s.bytes_down_uncoded);
  w.write_f64(s.simulated_latency_seconds);
  w.write_u64(s.socket_frames_tx);
  w.write_u64(s.socket_frames_rx);
  w.write_u64(s.socket_bytes_tx);
  w.write_u64(s.socket_bytes_rx);
  w.write_u64(s.socket_reconnects);
  w.write_u64(s.socket_evictions);
  w.write_u64(s.socket_queue_drops);
  w.write_u64(s.socket_protocol_errors);
}

TransportStats read_transport_stats(BinaryReader& r) {
  TransportStats s;
  s.messages_up = r.read_u64();
  s.messages_down = r.read_u64();
  s.bytes_up = r.read_u64();
  s.bytes_down = r.read_u64();
  s.frame_bytes_up = r.read_u64();
  s.frame_bytes_down = r.read_u64();
  s.bytes_up_uncoded = r.read_u64();
  s.bytes_down_uncoded = r.read_u64();
  s.simulated_latency_seconds = r.read_f64();
  s.socket_frames_tx = r.read_u64();
  s.socket_frames_rx = r.read_u64();
  s.socket_bytes_tx = r.read_u64();
  s.socket_bytes_rx = r.read_u64();
  s.socket_reconnects = r.read_u64();
  s.socket_evictions = r.read_u64();
  s.socket_queue_drops = r.read_u64();
  s.socket_protocol_errors = r.read_u64();
  return s;
}

void write_attack_stats(BinaryWriter& w, const AttackStats& s) {
  w.write_u64(s.corrupted_updates);
  w.write_u64(s.sign_flips);
  w.write_u64(s.replacements);
  w.write_u64(s.noise_injections);
  w.write_u64(s.colluding_uploads);
}

AttackStats read_attack_stats(BinaryReader& r) {
  AttackStats s;
  s.corrupted_updates = r.read_u64();
  s.sign_flips = r.read_u64();
  s.replacements = r.read_u64();
  s.noise_injections = r.read_u64();
  s.colluding_uploads = r.read_u64();
  return s;
}

void write_round_outcome(BinaryWriter& w, const RoundOutcome& out) {
  w.write_i64(out.round);
  write_int_vector(w, out.selected);
  write_int_vector(w, out.crashed);
  write_int_vector(w, out.missed_broadcast);
  write_int_vector(w, out.lost_update);
  w.write_u64(out.quarantined.size());
  for (const RoundOutcome::Rejection& q : out.quarantined) {
    w.write_i64(q.client_id);
    w.write_string(q.reason);
  }
  write_int_vector(w, out.accepted);
  w.write_i64(out.retries_used);
  w.write_u8(out.quorum_met ? 1 : 0);
  w.write_u8(out.carried_forward ? 1 : 0);
  write_int_vector(w, out.attackers);
  w.write_string(out.aggregator);
  w.write_u64(out.aggregator_flags.size());
  for (const AggregatorFlag& f : out.aggregator_flags) {
    w.write_i64(f.client_id);
    w.write_string(f.reason);
    w.write_u8(f.excluded ? 1 : 0);
  }
  w.write_u64(out.roster_size);
  write_int_vector(w, out.joined);
  write_int_vector(w, out.departed);
  write_fault_stats(w, out.fault_delta);
  w.write_u64(out.shards.size());
  for (const ShardStats& s : out.shards) {
    w.write_u32(s.shard_id);
    w.write_u64(s.num_updates);
    w.write_u64(s.num_accepted);
    w.write_u64(s.num_flagged);
    w.write_f64(s.weight);
    w.write_f64(s.min_norm);
    w.write_f64(s.median_norm);
    w.write_f64(s.max_norm);
  }
}

RoundOutcome read_round_outcome(BinaryReader& r) {
  RoundOutcome out;
  out.round = r.read_i64();
  out.selected = read_int_vector(r);
  out.crashed = read_int_vector(r);
  out.missed_broadcast = read_int_vector(r);
  out.lost_update = read_int_vector(r);
  const std::uint64_t nq = r.read_length(1);
  out.quarantined.reserve(nq);
  for (std::uint64_t i = 0; i < nq; ++i) {
    RoundOutcome::Rejection q;
    q.client_id = static_cast<int>(r.read_i64());
    q.reason = r.read_string();
    out.quarantined.push_back(std::move(q));
  }
  out.accepted = read_int_vector(r);
  out.retries_used = static_cast<int>(r.read_i64());
  out.quorum_met = r.read_u8() != 0;
  out.carried_forward = r.read_u8() != 0;
  out.attackers = read_int_vector(r);
  out.aggregator = r.read_string();
  const std::uint64_t nf = r.read_length(1);
  out.aggregator_flags.reserve(nf);
  for (std::uint64_t i = 0; i < nf; ++i) {
    AggregatorFlag f;
    f.client_id = static_cast<int>(r.read_i64());
    f.reason = r.read_string();
    f.excluded = r.read_u8() != 0;
    out.aggregator_flags.push_back(std::move(f));
  }
  out.roster_size = r.read_u64();
  out.joined = read_int_vector(r);
  out.departed = read_int_vector(r);
  out.fault_delta = read_fault_stats(r);
  const std::uint64_t ns = r.read_length(4 + 3 * 8 + 4 * 8);
  out.shards.reserve(ns);
  for (std::uint64_t i = 0; i < ns; ++i) {
    ShardStats s;
    s.shard_id = r.read_u32();
    s.num_updates = r.read_u64();
    s.num_accepted = r.read_u64();
    s.num_flagged = r.read_u64();
    s.weight = r.read_f64();
    s.min_norm = r.read_f64();
    s.median_norm = r.read_f64();
    s.max_norm = r.read_f64();
    out.shards.push_back(s);
  }
  return out;
}

void write_round_record(BinaryWriter& w, const RoundRecord& rec) {
  w.write_i64(rec.round);
  w.write_f64(rec.global_test_accuracy);
  w.write_f64(rec.global_test_loss);
  w.write_f64(rec.personalized_test_accuracy);
  w.write_f64(rec.mean_client_train_accuracy);
}

RoundRecord read_round_record(BinaryReader& r) {
  RoundRecord rec;
  rec.round = r.read_i64();
  rec.global_test_accuracy = r.read_f64();
  rec.global_test_loss = r.read_f64();
  rec.personalized_test_accuracy = r.read_f64();
  rec.mean_client_train_accuracy = r.read_f64();
  return rec;
}

}  // namespace dinar::fl
