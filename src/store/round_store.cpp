#include "store/round_store.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "store/io.h"
#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar::store {
namespace {

constexpr std::size_t kSnapHeaderBytes = 8 + 8 + 8 + 4;  // magic+ver+round+len+crc

std::vector<std::uint8_t> frame_snapshot(std::int64_t round,
                                         std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> bytes(kSnapHeaderBytes + payload.size());
  std::uint8_t* p = bytes.data();
  const std::uint32_t magic = kSnapshotMagic, version = kSnapshotVersion;
  const std::uint64_t len = payload.size();
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  std::memcpy(p, &magic, 4);
  std::memcpy(p + 4, &version, 4);
  std::memcpy(p + 8, &round, 8);
  std::memcpy(p + 16, &len, 8);
  std::memcpy(p + 24, &crc, 4);
  if (!payload.empty())  // empty span's data() is null; memcpy forbids null
    std::memcpy(p + kSnapHeaderBytes, payload.data(), payload.size());
  return bytes;
}

// Validates a snapshot file's framing + CRC; nullopt on any mismatch
// (treated as a torn/corrupt snapshot, not an error). The payload is
// returned in the file's own buffer, with the header erased.
std::optional<std::vector<std::uint8_t>> unframe_snapshot(std::vector<std::uint8_t> bytes,
                                                          std::int64_t expect_round) {
  if (bytes.size() < kSnapHeaderBytes) return std::nullopt;
  std::uint32_t magic, version, crc;
  std::int64_t round;
  std::uint64_t len;
  std::memcpy(&magic, bytes.data(), 4);
  std::memcpy(&version, bytes.data() + 4, 4);
  std::memcpy(&round, bytes.data() + 8, 8);
  std::memcpy(&len, bytes.data() + 16, 8);
  std::memcpy(&crc, bytes.data() + 24, 4);
  if (magic != kSnapshotMagic || version != kSnapshotVersion) return std::nullopt;
  if (round != expect_round) return std::nullopt;
  if (len != bytes.size() - kSnapHeaderBytes) return std::nullopt;
  if (crc32(bytes.data() + kSnapHeaderBytes, len) != crc) return std::nullopt;
  bytes.erase(bytes.begin(), bytes.begin() + kSnapHeaderBytes);
  return bytes;
}

}  // namespace

RoundStore::RoundStore(std::string dir)
    : dir_((ensure_dir(dir), dir)), wal_(dir + "/wal.log") {}

void RoundStore::append(std::span<const std::uint8_t> payload) {
  wal_.append(payload);
}

std::string RoundStore::snapshot_path(std::int64_t round) const {
  char name[48];
  std::snprintf(name, sizeof name, "snapshot-%012lld.snap",
                static_cast<long long>(round));
  return dir_ + "/" + name;
}

std::vector<std::int64_t> RoundStore::snapshot_rounds() const {
  std::vector<std::int64_t> rounds;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    long long round = -1;
    if (std::sscanf(name.c_str(), "snapshot-%lld.snap", &round) == 1 && round >= 0 &&
        name == std::string(snapshot_path(round), dir_.size() + 1))
      rounds.push_back(round);
  }
  std::sort(rounds.rbegin(), rounds.rend());
  return rounds;
}

void RoundStore::install_snapshot(std::int64_t round,
                                  std::span<const std::uint8_t> payload) {
  const std::vector<std::uint8_t> framed = frame_snapshot(round, payload);
  // 1. Durably install the new snapshot (crash-safe: old snapshot + WAL
  //    still recover until the rename lands).
  atomic_write_file(snapshot_path(round), framed, "snapshot");
  crashpoint("snapshot.post_rename");
  // 2. Compact the WAL. A crash between 1 and 2 leaves absorbed records in
  //    the log; recovery dedupes them by round.
  wal_.reset();
  // 3. Prune old generations, keeping a fallback in case the newest
  //    snapshot is later found torn.
  const std::vector<std::int64_t> rounds = snapshot_rounds();
  for (std::size_t i = kKeepSnapshots; i < rounds.size(); ++i)
    remove_file(snapshot_path(rounds[i]));
}

RoundStore::Recovered RoundStore::recover() const {
  Recovered out;
  for (const std::int64_t round : snapshot_rounds()) {
    auto bytes = read_file(snapshot_path(round));
    if (!bytes.has_value()) continue;
    auto payload = unframe_snapshot(std::move(*bytes), round);
    if (!payload.has_value()) {
      ++out.snapshots_rejected;  // torn or bit-rotted: fall back to older
      continue;
    }
    out.snapshot = std::move(payload);
    out.snapshot_round = round;
    break;
  }
  Wal::ScanResult walscan = Wal::scan(wal_.path());
  out.wal_records = std::move(walscan.records);
  out.wal_tail_discarded = walscan.tail_discarded;
  return out;
}

bool RoundStore::empty() const {
  if (!snapshot_rounds().empty()) return false;
  return Wal::scan(wal_.path()).records.empty();
}

}  // namespace dinar::store
