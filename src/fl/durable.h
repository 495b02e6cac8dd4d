// Durable-state wire formats for the FL simulation.
//
// The generic store (store/round_store.h) moves opaque blobs; this header
// defines what the simulation puts inside them:
//
//  - WAL round record (kind kRoundCommit): everything round N changed —
//    the RoundOutcome event-log entry, an XOR bit-delta of the global
//    model arena (XOR, not subtraction: float arithmetic does not round-
//    trip, XOR of bit patterns reconstructs the new arena exactly), the
//    full post-round state of every client that participated (model,
//    training-RNG stream, defense state), and the absolute post-round
//    transport/fault/attack counters. Replaying a record is O(changed
//    state), not O(run length) — that is the O(delta) resume.
//
//  - WAL eval record (kind kEvalRecord): one RoundRecord appended to the
//    accuracy history at an eval round.
//
//  - Full-state snapshot ("DFST"): the complete simulation state the WAL
//    records patch — server, all clients, both logs, all counters. The
//    store compacts the WAL onto one of these periodically. It is also the
//    one resume format outside the store (save_full_state written with
//    store::atomic_write_file).
//
// All read_* functions validate lengths against the remaining buffer and
// throw dinar::Error on malformed input; recovery treats such a throw as
// a corrupt record and stops replay there (longest-valid-prefix
// semantics), never crashing.
//
// Streaming round engine interaction (DESIGN.md §13): the WAL
// append/fsync of round N overlaps the serialization of round N+1's
// broadcast on the pool. That prefetch holds
// no durable state — the record formats here carry nothing about it, a
// crash at any point discards it harmlessly, and every recovery path
// drops any in-flight prefetch before restoring. RoundOutcome::timings is
// measurement-only and is deliberately excluded from write_round_outcome.
#pragma once

#include <cstdint>

#include "fl/simulation.h"

namespace dinar::fl {

// First byte of every WAL record payload.
enum class WalRecordKind : std::uint8_t {
  kRoundCommit = 1,
  kEvalRecord = 2,
};

// Magic + version of the full-state snapshot payload. v2 widened the
// transport-stats block with the socket transport's wire counters; v3
// appended the hierarchical-aggregation per-shard stats to every
// RoundOutcome; v4 widened the transport-stats block again with the wire
// codec's uncoded-bytes counters. Older snapshots (and the WAL records
// written alongside them) are rejected, which recovery treats like any
// other unreadable state.
inline constexpr std::uint32_t kFullStateMagic = 0x54534644;  // "DFST"
inline constexpr std::uint32_t kFullStateVersion = 4;

// -- protocol-struct serde ---------------------------------------------------
void write_round_outcome(BinaryWriter& w, const RoundOutcome& out);
RoundOutcome read_round_outcome(BinaryReader& r);

void write_round_record(BinaryWriter& w, const RoundRecord& rec);
RoundRecord read_round_record(BinaryReader& r);

void write_fault_stats(BinaryWriter& w, const FaultStats& s);
FaultStats read_fault_stats(BinaryReader& r);

void write_transport_stats(BinaryWriter& w, const TransportStats& s);
TransportStats read_transport_stats(BinaryReader& r);

void write_attack_stats(BinaryWriter& w, const AttackStats& s);
AttackStats read_attack_stats(BinaryReader& r);

}  // namespace dinar::fl
