// Append-only, CRC-framed write-ahead log.
//
// File layout:
//   [u32 magic 'DWAL'][u32 version]
//   record*:  [u32 payload_len][u32 crc32(payload)][payload bytes]
//
// Append durability: each append() writes the frame with a single writev()
// (header and payload, no staging copy of the payload) and fsyncs before
// returning, so an acked record survives kill -9 and power loss. A crash
// *during* an append leaves a torn tail: a partial header, a header whose
// payload is cut short, or a complete frame whose CRC does not match the
// (partially written or bit-rotted) payload.
//
// Recovery contract (scan()): return the longest valid prefix of records
// and stop at the first frame that is incomplete, overlong, or fails its
// CRC. Scanning NEVER throws on corruption — a torn tail is the expected
// aftermath of a crash, not an error; only genuine I/O failures throw.
// The writer constructor re-opens an existing log by scanning it and
// positioning the append cursor at the end of the valid prefix, so a torn
// tail is silently overwritten by the next append.
//
// Views, not copies: scan() maps the log read-only (store::MappedFile) and
// hands back each record as a span into that mapping. A record view lives
// only as long as its ScanResult, and no ScanResult may be alive across a
// write to the same log: reset() and the torn-tail trim truncate the file,
// and reading a truncated page of a live mapping raises SIGBUS. Copy a
// record out (std::vector(r.begin(), r.end())) to keep it past either.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/io.h"

namespace dinar::store {

inline constexpr std::uint32_t kWalMagic = 0x4C415744;  // "DWAL" little-endian
inline constexpr std::uint32_t kWalVersion = 1;

class Wal {
 public:
  struct ScanResult {
    // The mapped log the record views point into (nullopt when missing).
    std::optional<MappedFile> file;
    // Valid prefix, in order: payload views into `file`.
    std::vector<std::span<const std::uint8_t>> records;
    // Bytes of the valid prefix (header + intact records); anything past
    // this offset was discarded as torn or corrupt.
    std::uint64_t valid_bytes = 0;
    // True if the file held bytes beyond the valid prefix (torn append,
    // bit flip, or truncated header) that recovery ignored.
    bool tail_discarded = false;
    // True if the file was missing or had no intact header.
    bool missing_or_empty = false;
  };

  // Scans without opening for append. Never throws on corruption.
  static ScanResult scan(const std::string& path);

  // Opens `path` for appending, creating it (with a fresh header) if
  // missing, and truncating any torn tail left by a previous crash. The
  // scan that finds the valid prefix is unmapped before that truncation.
  explicit Wal(std::string path);
  ~Wal();
  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // Durably appends one record (frame write + fsync). Crashpoints:
  // wal.append.{pre_write, mid_write, pre_fsync, post_fsync}.
  void append(std::span<const std::uint8_t> payload);

  // Truncates the log back to a bare header (snapshot compaction). The
  // truncation is fsynced before returning.
  void reset();

  const std::string& path() const { return path_; }
  // Records appended or recovered through this handle's lifetime cursor.
  std::uint64_t size_bytes() const { return cursor_; }

 private:
  void open_and_position();

  std::string path_;
  int fd_ = -1;
  std::uint64_t cursor_ = 0;  // append offset = end of valid prefix
};

}  // namespace dinar::store
