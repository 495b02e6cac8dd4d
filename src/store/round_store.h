// RoundStore: a crash-consistent directory of {snapshots + WAL}.
//
// The store is generic: payloads are opaque byte blobs supplied by the
// owner (the FL simulation serializes round deltas and full-state
// snapshots into them). The store's job is the durability protocol:
//
//   <dir>/wal.log                    append-only CRC-framed round records
//   <dir>/snapshot-<round>.snap      periodic compacted full snapshots
//
// Commit protocol (append): one fsynced WAL append per committed round —
// a round is durable iff its record's fsync returned.
//
// Compaction protocol (install_snapshot): write the snapshot via
// temp + fsync + atomic rename, *then* truncate the WAL, then delete older
// snapshots. Each step is individually crash-safe and the ordering makes
// every interleaving recoverable:
//   - crash before the rename: the old snapshot + full WAL still recover;
//   - crash after the rename, before the WAL reset: recovery sees the new
//     snapshot plus WAL records it has already absorbed — replay skips
//     records at or below the snapshot round (the owner dedupes by round);
//   - crash before old-snapshot deletion: recovery prefers the newest
//     *valid* snapshot and falls back to the older one if the newest is
//     torn or corrupt.
//
// Recovery (recover()): newest valid snapshot (CRC-checked, falling back
// to older generations, tolerating none at all) + the longest valid WAL
// prefix. Corruption never throws — it only shrinks what is recovered.
//
// Lifetime: recover() maps the snapshot and the WAL read-only and returns
// views into them, validated in place. The views live only as long as
// their Recovered, and no Recovered may be alive across a write to the
// store: install_snapshot() truncates the WAL, and reading a truncated
// page of a live mapping raises SIGBUS. Copy out anything needed later.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/io.h"
#include "store/wal.h"

namespace dinar::store {

inline constexpr std::uint32_t kSnapshotMagic = 0x504E5344;  // "DSNP"
inline constexpr std::uint32_t kSnapshotVersion = 1;

class RoundStore {
 public:
  // Opens (creating if needed) the store directory and its WAL, trimming
  // any torn WAL tail left by a crash.
  explicit RoundStore(std::string dir);

  const std::string& dir() const { return dir_; }

  // Durably appends one opaque round record to the WAL.
  void append(std::span<const std::uint8_t> payload);

  // Durably installs a compacted snapshot labeled with the round it
  // captures (state *after* that many committed rounds), truncates the
  // WAL, and prunes all but the latest kKeepSnapshots generations.
  void install_snapshot(std::int64_t round, std::span<const std::uint8_t> payload);

  struct Recovered {
    // Payload of the newest snapshot that passed validation, if any: a
    // view into snapshot_file.
    std::optional<std::span<const std::uint8_t>> snapshot;
    std::int64_t snapshot_round = -1;
    // Longest valid WAL prefix, oldest first: views into wal_file. May
    // contain records already absorbed by the snapshot or duplicated by a
    // crash between append and ack — the owner must dedupe by round.
    std::vector<std::span<const std::uint8_t>> wal_records;
    bool wal_tail_discarded = false;
    // Snapshot files that failed validation and were skipped.
    std::size_t snapshots_rejected = 0;
    // The read-only mappings the views above point into.
    std::optional<MappedFile> snapshot_file;
    std::optional<MappedFile> wal_file;
  };

  // Read-only recovery scan; never throws on corruption.
  Recovered recover() const;

  std::uint64_t wal_size_bytes() const { return wal_.size_bytes(); }
  std::string wal_path() const { return wal_.path(); }

  // Snapshot generations kept after compaction (newest + one fallback).
  static constexpr int kKeepSnapshots = 2;

 private:
  std::string snapshot_path(std::int64_t round) const;
  // Rounds of all snapshot files present, descending.
  std::vector<std::int64_t> snapshot_rounds() const;

  std::string dir_;
  Wal wal_;
};

}  // namespace dinar::store
