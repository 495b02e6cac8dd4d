// FL wire messages.
//
// Two message kinds cross the transport each round: the server's global
// model broadcast and each client's model update. Updates carry the
// client's sample count (FedAvg weight) and a `pre_weighted` flag used by
// secure aggregation, whose pairwise masks only cancel under an unweighted
// sum — SA clients pre-multiply their parameters by their own weight so
// the server can sum blindly and divide by the total weight.
//
// Wire format DFRM, version 3 (the only version; fl/wire_codec.h has the
// params body): magic, kind byte, u32 version, a u64 DECODED payload size
// (the arena bytes decoding will allocate — at a fixed offset so the net
// frame layer can bound it without parsing the message), the message
// fields, then the params as a layer-index header plus one coded run per
// index entry. The default codec writes every run as dense raw f32, so a
// lossless message costs 2 bytes per entry (the run's encoding and flags
// bytes) over a bare f32 arena. The decoder accepts version 3 only and
// refuses any other by name: messages are never persisted and both ends
// of every exchange are one binary, so no older peer exists to read.
// Sparse update runs code deltas against the round's broadcast, which the
// caller supplies as `reference` on both sides.
#pragma once

#include <cstdint>
#include <vector>

#include "fl/wire_codec.h"
#include "nn/model.h"

namespace dinar::fl {

struct GlobalModelMsg {
  std::int64_t round = 0;
  nn::FlatParams params;

  // Broadcasts are always dense (validate_codec_config), so no reference
  // is involved. Deterministic: equal messages give equal bytes.
  std::vector<std::uint8_t> serialize(const KindCodec& codec = {}) const;
  static GlobalModelMsg deserialize(const std::vector<std::uint8_t>& bytes);
};

struct ModelUpdateMsg {
  std::int32_t client_id = 0;
  std::int64_t round = 0;
  std::int64_t num_samples = 0;
  bool pre_weighted = false;
  nn::FlatParams params;

  // `reference` (the round's decoded broadcast) is required when the codec
  // is sparse; may be null otherwise.
  std::vector<std::uint8_t> serialize(
      const KindCodec& codec = {}, const nn::FlatParams* reference = nullptr) const;
  // `reference` is needed only to decode sparse runs; passing null for
  // such a payload throws a named dinar::Error (quarantined as corrupt).
  static ModelUpdateMsg deserialize(const std::vector<std::uint8_t>& bytes,
                                    const nn::FlatParams* reference = nullptr);
};

// The raw-f32 baseline of TransportStats' bytes-saved ratio, computed
// without serializing: the message's size with its parameters as one bare
// f32 arena (the retired version-2 layout, hence the name). A lossless
// message is exactly 2 bytes per index entry larger; a compressed one is
// usually much smaller.
std::uint64_t v2_wire_bytes(const GlobalModelMsg& msg);
std::uint64_t v2_wire_bytes(const ModelUpdateMsg& msg);

}  // namespace dinar::fl
