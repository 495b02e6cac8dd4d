// Durable file I/O primitives for the state store.
//
// Every byte the store trusts after a crash went through one of these
// helpers. The contract is the classic one:
//   - atomic_write_file(): write to `<path>.tmp`, fsync the file, rename()
//     over the destination, fsync the containing directory. A reader can
//     observe either the complete old file or the complete new file, never
//     a prefix of either — rename() is atomic on POSIX filesystems.
//   - CRC-32 framing (crc32()) guards the *contents*: rename atomicity says
//     nothing about bit rot or a torn append inside a log file, so every
//     record and snapshot carries a checksum that recovery verifies before
//     believing a single byte.
//
// All functions throw dinar::Error on I/O failure; corruption is *not* an
// error here — detecting and tolerating it is the recovery layer's job.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dinar::store {

// CRC-32 (IEEE 802.3, reflected 0xEDB88320), the classic log-record
// checksum. `seed` chains multi-buffer checksums: pass a previous result.
// Runs the widest tier the build and host offer; every tier returns the
// values of the bytewise table loop, so no checksum on disk depends on it.
std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed = 0);

// CRC-32 tiers, narrowest first:
//   - kSlice8: eight table lookups per eight bytes, always compiled;
//   - kPclmul: folds 64-byte blocks with carry-less multiplies
//     (PCLMULQDQ), compiled when DINAR_SIMD=ON on x86-64 and run when
//     the host has the instruction.
enum class Crc32Kernel : std::uint8_t { kSlice8, kPclmul };
using Crc32Fn = std::uint32_t (*)(const void* data, std::size_t n, std::uint32_t seed);

// The tier's checksum, with crc32()'s signature, or nullptr when the tier
// is not compiled in or the host cannot run it.
Crc32Fn crc32_kernel(Crc32Kernel kernel);

namespace detail {
// Advance a raw CRC-32 register (seed already inverted) over n bytes.
std::uint32_t crc32_update_slice8(std::uint32_t c, const std::uint8_t* p, std::size_t n);
#if DINAR_CRC_HAVE_PCLMUL
std::uint32_t crc32_update_pclmul(std::uint32_t c, const std::uint8_t* p, std::size_t n);
#endif
}  // namespace detail

// Reads a whole file; std::nullopt if it does not exist. Throws on other
// I/O errors.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

// Durably replaces `path` with `bytes` via temp + fsync + rename + parent
// directory fsync. When `crash_site` is non-null, crashpoints
// "<crash_site>.pre_write", "<crash_site>.pre_fsync" and
// "<crash_site>.rename" fire at the matching steps (see util/crashpoint.h).
void atomic_write_file(const std::string& path, std::span<const std::uint8_t> bytes,
                       const char* crash_site = nullptr);

// fsyncs the directory containing `path` so a freshly created/renamed
// entry survives power loss. No-op on filesystems that refuse directory
// fds.
void fsync_parent_dir(const std::string& path);

// True if `path` exists (any file type).
bool path_exists(const std::string& path);

// Creates `dir` (and parents) if missing; throws if it cannot.
void ensure_dir(const std::string& dir);

// Removes a file if present; ignores a missing file, throws on other
// failures.
void remove_file(const std::string& path);

}  // namespace dinar::store
