// DFRM wire framing and its stream-oriented decoder.
//
// A frame is [u32 magic 'DFR2' | u64 payload length | u64 XXH64 checksum |
// payload bytes]: a 20-byte header, shared by the in-process transport and
// the TCP socket layer so the two cannot drift. The checksum is the
// standard 64-bit XXH64 (seed 0), which runs an order of magnitude faster
// than the bytewise FNV-1a the first layout ('DFRM' magic) carried. No
// reader for that layout is kept: frames are never persisted (the WAL and
// snapshots carry their own CRC-32 records) and both ends of every
// connection are one binary, so an old-layout peer is refused by name as
// bad magic.
//
// FrameReader applies the WAL's longest-valid-prefix discipline to a byte
// *stream*: bytes arrive in arbitrary fragments (TCP is not
// message-preserving), the reader buffers them, and next() hands back each
// complete, checksum-verified payload in order. A frame that is merely
// incomplete is not an error — it is the expected state between reads.
// A frame that can never become valid (bad magic, oversize length, failed
// checksum) poisons the stream: unlike a file of independent records,
// a TCP stream has no resynchronization point after a framing error, so
// the reader latches the error and the connection must be torn down (the
// peer reconnects and retransmits). The error is named so eviction
// accounting can attribute it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace dinar::net {

inline constexpr std::uint32_t kFrameMagic = 0x44465232;  // "DFR2"
inline constexpr std::size_t kFrameHeaderBytes =
    sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t);

// Frame size any in-tree endpoint accepts by default: large enough for the
// biggest model broadcast we ship, small enough that one malicious length
// field cannot make a peer allocate gigabytes.
inline constexpr std::size_t kDefaultMaxFrameBytes = 256u << 20;

// Compressed (DFRM v3) message payloads additionally declare the size of
// the DECODED parameter arena in their header, because the wire length no
// longer bounds what decoding allocates: an int8 + top-k payload can be
// 30x smaller than its arena, so a tiny frame passing the kOversize check
// could still declare a multi-GB decompressed arena (a decompression
// bomb). The net layer cannot include fl/message.h (layering), so the few
// header fields it sniffs are mirrored here; fl/message.cpp includes this
// header and static-asserts against drift. Offsets: u32 magic @0, u8 kind
// @4, u32 version @5, u64 decoded size @9.
inline constexpr std::uint32_t kMessageMagic = 0x4D524644;  // "DFRM" (message order)
inline constexpr std::uint32_t kMessageVersionCompressed = 3;
inline constexpr std::size_t kMessageDecodedSizeOffset =
    sizeof(std::uint32_t) + sizeof(std::uint8_t) + sizeof(std::uint32_t);
inline constexpr std::size_t kDefaultMaxDecodedBytes = 1u << 30;

// The decoded size a v3 message payload declares, or nullopt when the
// payload is not a v3 DFRM message (v2 and foreign payloads decode no
// larger than their wire size, which kOversize already bounds).
std::optional<std::uint64_t> declared_decoded_bytes(const std::uint8_t* payload,
                                                    std::size_t n);

// XXH64 with seed 0 over the payload (the frame checksum).
std::uint64_t xxh64(const std::uint8_t* data, std::size_t n);

// Bytewise FNV-1a 64: the model fingerprint the benchmark hashes with,
// not the frame checksum. Its values are pinned; do not change it.
std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n);

// Wraps a payload in a DFRM frame.
std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload);

// Verifies and strips a frame held as one complete buffer; throws
// dinar::Error naming the defect (short header, bad magic, length
// mismatch, checksum mismatch).
std::vector<std::uint8_t> open_frame(const std::vector<std::uint8_t>& framed);

class FrameReader {
 public:
  explicit FrameReader(std::size_t max_frame_bytes = kDefaultMaxFrameBytes,
                       std::size_t max_decoded_bytes = kDefaultMaxDecodedBytes)
      : max_frame_bytes_(max_frame_bytes),
        max_decoded_bytes_(max_decoded_bytes) {}

  enum class Error {
    kNone,
    kBadMagic,         // stream bytes are not a DFRM header
    kOversize,         // length field exceeds the configured cap
    kBadChecksum,      // complete frame whose payload fails XXH64
    kOversizeDecoded,  // v3 payload declares a decoded arena over the cap
  };
  static const char* to_string(Error e);

  // Appends freshly read stream bytes. No-op once the stream is poisoned.
  void feed(const std::uint8_t* data, std::size_t n);

  // Extracts the next complete payload, or nullopt when more bytes are
  // needed or the stream is poisoned (check error()).
  std::optional<std::vector<std::uint8_t>> next();

  // First unrecoverable framing error seen, if any. Latched: once set the
  // reader stays poisoned and next() yields nothing.
  Error error() const { return error_; }
  bool poisoned() const { return error_ != Error::kNone; }

  // Bytes buffered but not yet returned (backpressure accounting).
  std::size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  std::size_t max_frame_bytes_;
  std::size_t max_decoded_bytes_;
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  // prefix of buf_ already handed out
  Error error_ = Error::kNone;
};

}  // namespace dinar::net
