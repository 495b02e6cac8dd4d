#include "net/frame.h"

#include <cstring>

#include "util/error.h"

namespace dinar::net {

std::uint64_t fnv1a64(const std::uint8_t* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t rotl(std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); }

inline std::uint64_t read64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  std::memcpy(&v, p, sizeof v);  // little-endian hosts only, like the header fields
  return v;
}

inline std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline std::uint64_t lane_round(std::uint64_t acc, std::uint64_t input) {
  acc += input * kPrime2;
  return rotl(acc, 31) * kPrime1;
}

inline std::uint64_t merge_lane(std::uint64_t h, std::uint64_t lane) {
  h ^= lane_round(0, lane);
  return h * kPrime1 + kPrime4;
}

}  // namespace

std::uint64_t xxh64(const std::uint8_t* data, std::size_t n) {
  const std::uint8_t* p = data;
  const std::uint8_t* const end = data + n;
  std::uint64_t h = kPrime5;
  if (n >= 32) {
    // Four independent lanes over 32-byte stripes.
    std::uint64_t v1 = kPrime1 + kPrime2, v2 = kPrime2, v3 = 0, v4 = 0 - kPrime1;
    const std::uint8_t* const last_stripe = end - 32;
    do {
      v1 = lane_round(v1, read64(p));
      v2 = lane_round(v2, read64(p + 8));
      v3 = lane_round(v3, read64(p + 16));
      v4 = lane_round(v4, read64(p + 24));
      p += 32;
    } while (p <= last_stripe);
    h = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    h = merge_lane(h, v1);
    h = merge_lane(h, v2);
    h = merge_lane(h, v3);
    h = merge_lane(h, v4);
  }
  h += static_cast<std::uint64_t>(n);
  for (; end - p >= 8; p += 8) {
    h ^= lane_round(0, read64(p));
    h = rotl(h, 27) * kPrime1 + kPrime4;
  }
  if (end - p >= 4) {
    h ^= static_cast<std::uint64_t>(read32(p)) * kPrime1;
    h = rotl(h, 23) * kPrime2 + kPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<std::uint64_t>(*p) * kPrime5;
    h = rotl(h, 11) * kPrime1;
  }
  h ^= h >> 33;
  h *= kPrime2;
  h ^= h >> 29;
  h *= kPrime3;
  h ^= h >> 32;
  return h;
}

std::vector<std::uint8_t> frame(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> framed(kFrameHeaderBytes + payload.size());
  const std::uint64_t length = payload.size();
  const std::uint64_t checksum = xxh64(payload.data(), payload.size());
  std::memcpy(framed.data(), &kFrameMagic, sizeof kFrameMagic);
  std::memcpy(framed.data() + sizeof kFrameMagic, &length, sizeof length);
  std::memcpy(framed.data() + sizeof kFrameMagic + sizeof length, &checksum,
              sizeof checksum);
  if (!payload.empty())
    std::memcpy(framed.data() + kFrameHeaderBytes, payload.data(), payload.size());
  return framed;
}

std::vector<std::uint8_t> open_frame(const std::vector<std::uint8_t>& framed) {
  DINAR_CHECK(framed.size() >= kFrameHeaderBytes,
              "transport frame: " << framed.size() << " bytes is shorter than the "
                                  << kFrameHeaderBytes << "-byte header");
  std::uint32_t magic = 0;
  std::uint64_t length = 0, checksum = 0;
  std::memcpy(&magic, framed.data(), sizeof magic);
  std::memcpy(&length, framed.data() + sizeof magic, sizeof length);
  std::memcpy(&checksum, framed.data() + sizeof magic + sizeof length,
              sizeof checksum);
  DINAR_CHECK(magic == kFrameMagic, "transport frame: bad magic");
  DINAR_CHECK(length == framed.size() - kFrameHeaderBytes,
              "transport frame: length field " << length << " does not match "
                                               << framed.size() - kFrameHeaderBytes
                                               << " payload bytes");
  const std::uint8_t* payload = framed.data() + kFrameHeaderBytes;
  DINAR_CHECK(xxh64(payload, length) == checksum,
              "transport frame: checksum mismatch (payload corrupted in flight)");
  const auto decoded = declared_decoded_bytes(payload, length);
  DINAR_CHECK(!decoded.has_value() || *decoded <= kDefaultMaxDecodedBytes,
              "transport frame: v3 payload declares "
                  << (decoded ? *decoded : 0) << " decoded bytes, over the "
                  << kDefaultMaxDecodedBytes << "-byte cap");
  return std::vector<std::uint8_t>(payload, payload + length);
}

std::optional<std::uint64_t> declared_decoded_bytes(const std::uint8_t* payload,
                                                    std::size_t n) {
  if (n < kMessageDecodedSizeOffset + sizeof(std::uint64_t)) return std::nullopt;
  std::uint32_t magic = 0, version = 0;
  std::memcpy(&magic, payload, sizeof magic);
  std::memcpy(&version, payload + sizeof magic + 1, sizeof version);
  if (magic != kMessageMagic || version != kMessageVersionCompressed)
    return std::nullopt;
  std::uint64_t decoded = 0;
  std::memcpy(&decoded, payload + kMessageDecodedSizeOffset, sizeof decoded);
  return decoded;
}

const char* FrameReader::to_string(Error e) {
  switch (e) {
    case Error::kNone: return "none";
    case Error::kBadMagic: return "bad_magic";
    case Error::kOversize: return "oversize_frame";
    case Error::kBadChecksum: return "bad_checksum";
    case Error::kOversizeDecoded: return "oversize_decoded";
  }
  return "unknown";
}

void FrameReader::feed(const std::uint8_t* data, std::size_t n) {
  if (error_ != Error::kNone || n == 0) return;
  // Reclaim the consumed prefix before growing: a long-lived connection
  // must not accumulate every byte it ever received.
  if (consumed_ > 0 && (consumed_ >= buf_.size() || consumed_ > (64u << 10))) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

std::optional<std::vector<std::uint8_t>> FrameReader::next() {
  if (error_ != Error::kNone) return std::nullopt;
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return std::nullopt;

  const std::uint8_t* head = buf_.data() + consumed_;
  std::uint32_t magic = 0;
  std::uint64_t length = 0, checksum = 0;
  std::memcpy(&magic, head, sizeof magic);
  std::memcpy(&length, head + sizeof magic, sizeof length);
  std::memcpy(&checksum, head + sizeof magic + sizeof length, sizeof checksum);
  if (magic != kFrameMagic) {
    error_ = Error::kBadMagic;
    return std::nullopt;
  }
  if (length > max_frame_bytes_) {
    error_ = Error::kOversize;
    return std::nullopt;
  }
  if (avail - kFrameHeaderBytes < length) return std::nullopt;  // wait for more

  const std::uint8_t* payload = head + kFrameHeaderBytes;
  if (xxh64(payload, length) != checksum) {
    error_ = Error::kBadChecksum;
    return std::nullopt;
  }
  // Checksum-valid frames may still be hostile: a v3 message declares the
  // size decoding will allocate, which the wire length does not bound.
  if (const auto decoded = declared_decoded_bytes(payload, length);
      decoded.has_value() && *decoded > max_decoded_bytes_) {
    error_ = Error::kOversizeDecoded;
    return std::nullopt;
  }
  std::vector<std::uint8_t> out(payload, payload + length);
  consumed_ += kFrameHeaderBytes + static_cast<std::size_t>(length);
  return out;
}

}  // namespace dinar::net
