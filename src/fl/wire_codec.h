// DFRM params-body codec: per-layer element encodings + top-k
// sparsification for the two FL message kinds (DESIGN.md §14).
//
// Every message (fl/message.h) carries its parameters as the layer-index
// header followed by one coded run per index entry:
//
//   entry run := u8 encoding (WireEncoding)
//                u8 run_flags (bit0 = sparse)
//                [encoding == kInt8]  f32 scale
//                [sparse]  u64 k, k × u32 ascending entry-relative indices,
//                          k coded values
//                [dense]   numel coded values
//
// The default codec (f32, dense) writes every run as dense raw f32: the
// lossless format, 2 bytes per entry over a bare f32 arena. The encoding
// is chosen PER ENTRY at serialization time, which is what lets
// compression compose with the DINAR mechanism: entries tagged
// is_obfuscated carry the privacy-bearing obfuscated layer, and they are
// always emitted as dense raw f32 regardless of the configured encoding,
// so quantization noise never stacks on top of the obfuscation or DP
// noise the defense calibrated. No codec setting turns this off.
//
// Sparse runs code DELTAS against a reference snapshot — the round's
// decoded broadcast — not raw parameters: non-kept coordinates decode to
// the reference value, so dropping them loses the client's small moves,
// not the model. Both sides must use the byte-identical reference; the
// client keeps its decoded broadcast (FlClient::receive_global) and the
// server decodes its own broadcast bytes once per round, so even a lossy
// broadcast yields the same reference on both ends.
//
// Numerics policy (PR 5): NaN/Inf propagate per IEEE-754, they are never
// laundered into numbers. Entries whose candidate values are not all
// finite fall back to dense raw f32 — int8 scales are therefore always
// positive and finite, and a poisoned update still decodes poisoned so the
// server's non-finite scan rejects it. Pack/unpack run on the
// tensor/codec_kernels.h tiers, whose output is byte-identical across
// scalar and AVX2, so encoded frames do not depend on the host ISA.
#pragma once

#include <cstdint>
#include <memory>

#include "nn/flat_params.h"
#include "util/serde.h"

namespace dinar::fl {

// Element encodings for coded runs. Wire values — do not renumber.
enum class WireEncoding : std::uint8_t {
  kF32 = 0,   // raw little-endian f32 (lossless)
  kF16 = 1,   // IEEE binary16, RNE
  kBf16 = 2,  // bfloat16, RNE
  kInt8 = 3,  // q = clamp(rne(v / scale), -127, 127), per-entry f32 scale
};

const char* wire_encoding_name(WireEncoding e);

// Codec for one message kind (broadcast or update).
struct KindCodec {
  WireEncoding encoding = WireEncoding::kF32;
  // Fraction of each entry's coordinates kept (largest |delta| first,
  // ties to the lower index); 1.0 = dense. Sparse runs need a reference,
  // so only the update kind may set this below 1.
  double topk_fraction = 1.0;

  bool lossless() const {
    return encoding == WireEncoding::kF32 && topk_fraction >= 1.0;
  }
};

struct UpdateCodecConfig {
  KindCodec broadcast;  // server -> clients
  KindCodec update;     // clients -> server
  // Whether either kind compresses; only then does the simulation account
  // the raw-f32 baseline in TransportStats' bytes_*_uncoded counters.
  bool active() const { return !broadcast.lossless() || !update.lossless(); }
};

// Throws dinar::Error on an unusable config: unknown encoding value,
// topk_fraction outside (0, 1], or a sparse broadcast codec (clients have
// no reference to reconstruct against before the first broadcast lands).
void validate_codec_config(const UpdateCodecConfig& config);

// Writes the params body (index header + coded runs). `reference` is
// required when codec.topk_fraction < 1 and must have the same layout as
// `p`; it may be null for dense codecs.
void write_flat_params_v3(BinaryWriter& w, const nn::FlatParams& p,
                          const KindCodec& codec,
                          const nn::FlatParams* reference);

// Reads the params body. `decoded_bytes` is the header's declared
// decoded size, already bounded by the frame/message layers; the arena is
// only allocated after the index's numel is checked against it, so a
// tampered shape header cannot allocate beyond the declared (and capped)
// size. `reference` is required to decode sparse runs (dinar::Error
// otherwise) and must match the decoded layout.
nn::FlatParams read_flat_params_v3(BinaryReader& r, std::uint64_t decoded_bytes,
                                   const nn::FlatParams* reference);

// Size of `p` as a raw-f32 params body (index header + u64 float count +
// bare f32 arena, the retired version-2 layout), computed without
// serializing: the "uncoded bytes" baseline of the bytes-saved accounting
// in TransportStats. The lossless coded body is 2 bytes per entry larger,
// less the 8-byte float count the message header's decoded size replaces.
std::uint64_t flat_params_v2_bytes(const nn::FlatParams& p);

}  // namespace dinar::fl
