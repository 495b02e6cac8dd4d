#include "fl/wire_codec.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <vector>

#include "tensor/codec_kernels.h"
#include "util/error.h"
#include "util/memory_tracker.h"

namespace dinar::fl {
namespace {

constexpr std::uint8_t kRunFlagSparse = 1;
constexpr std::uint8_t kMaxEncodingValue = 3;  // kInt8

std::uint64_t value_bytes(WireEncoding e) {
  switch (e) {
    case WireEncoding::kF32:
      return 4;
    case WireEncoding::kF16:
    case WireEncoding::kBf16:
      return 2;
    case WireEncoding::kInt8:
      return 1;
  }
  return 0;
}

// Positive finite scale for an all-finite span: max|v|/127, with all-zero
// spans (and spans so small the division underflows to 0) mapping to 1.0
// so the wire never carries a zero, NaN, or Inf scale.
float int8_scale(float max_abs) {
  float s = max_abs / 127.0f;
  if (!(s > 0.0f)) s = 1.0f;
  return s;
}

void write_coded_values(BinaryWriter& w, WireEncoding e, const float* vals,
                        std::size_t n, float inv_scale) {
  const auto& k = detail::codec_kernel_fns();
  switch (e) {
    case WireEncoding::kF32:
      w.write_bytes(vals, n * sizeof(float));
      break;
    case WireEncoding::kF16: {
      std::vector<std::uint16_t> tmp(n);
      k.pack_f16(vals, n, tmp.data());
      w.write_bytes(tmp.data(), n * sizeof(std::uint16_t));
      break;
    }
    case WireEncoding::kBf16: {
      std::vector<std::uint16_t> tmp(n);
      k.pack_bf16(vals, n, tmp.data());
      w.write_bytes(tmp.data(), n * sizeof(std::uint16_t));
      break;
    }
    case WireEncoding::kInt8: {
      std::vector<std::int8_t> tmp(n);
      k.pack_i8(vals, n, inv_scale, tmp.data());
      w.write_bytes(tmp.data(), n);
      break;
    }
  }
}

// Reads exactly n coded values into `out`. read_raw bounds-checks before
// any scratch allocation, so a truncated run throws instead of allocating.
void read_coded_values(BinaryReader& r, WireEncoding e, std::size_t n,
                       float scale, float* out) {
  const auto& k = detail::codec_kernel_fns();
  switch (e) {
    case WireEncoding::kF32: {
      const std::uint8_t* raw = r.read_raw(n * sizeof(float));
      std::memcpy(out, raw, n * sizeof(float));
      break;
    }
    case WireEncoding::kF16:
    case WireEncoding::kBf16: {
      const std::uint8_t* raw = r.read_raw(n * sizeof(std::uint16_t));
      std::vector<std::uint16_t> tmp(n);
      std::memcpy(tmp.data(), raw, n * sizeof(std::uint16_t));
      if (e == WireEncoding::kF16)
        k.unpack_f16(tmp.data(), n, out);
      else
        k.unpack_bf16(tmp.data(), n, out);
      break;
    }
    case WireEncoding::kInt8: {
      const std::uint8_t* raw = r.read_raw(n);
      std::vector<std::int8_t> tmp(n);
      std::memcpy(tmp.data(), raw, n);
      k.unpack_i8(tmp.data(), n, scale, out);
      break;
    }
  }
}

// Sign-cleared bit pattern of a finite float. Non-negative finite floats
// order exactly as their u32 bit patterns (the exponent sits above the
// mantissa, subnormals below the normals), so keys order like |x|, and
// -0.0 and +0.0 share key 0 just as fabs() makes them equal.
std::uint32_t magnitude_key(float x) {
  return std::bit_cast<std::uint32_t>(x) & 0x7FFFFFFFu;
}

// The k-th largest magnitude key of `v`, and how many entries at exactly
// that key belong to the top k (the rest of the top k lie above it).
struct TopKThreshold {
  std::uint32_t key = 0;
  std::size_t ties_kept = 0;
};

// Two-pass 16-bit radix select over magnitude_key (1 <= k <= v.size(),
// every entry finite): pass 1 histograms the high halves and walks down
// from the largest to the bucket holding the k-th key; pass 2 does the
// same for the low halves inside that bucket. Linear in v.size(); the
// histograms are per-thread and left all-zero between calls (each pass
// clears the bins the previous one filled).
TopKThreshold topk_threshold(std::span<const float> v, std::size_t k) {
  thread_local std::vector<std::uint32_t> high_hist(1u << 16);
  thread_local std::vector<std::uint32_t> low_hist(1u << 16);
  std::uint32_t top = 0;
  for (const float x : v) {
    const std::uint32_t h = magnitude_key(x) >> 16;
    ++high_hist[h];
    top = std::max(top, h);
  }
  std::size_t above = 0;  // entries with a larger key than the current bin
  std::uint32_t high = top;
  while (above + high_hist[high] < k) above += high_hist[high--];

  top = 0;
  for (const float x : v) {
    const std::uint32_t key = magnitude_key(x);
    high_hist[key >> 16] = 0;
    if ((key >> 16) != high) continue;
    ++low_hist[key & 0xFFFFu];
    top = std::max(top, key & 0xFFFFu);
  }
  std::uint32_t low = top;
  while (above + low_hist[low] < k) above += low_hist[low--];
  for (const float x : v) {
    const std::uint32_t key = magnitude_key(x);
    if ((key >> 16) == high) low_hist[key & 0xFFFFu] = 0;
  }
  return {(high << 16) | low, k - above};
}

void write_dense_f32(BinaryWriter& w, std::span<const float> vals) {
  w.write_u8(static_cast<std::uint8_t>(WireEncoding::kF32));
  w.write_u8(0);
  w.write_bytes(vals.data(), vals.size() * sizeof(float));
}

void write_entry_run(BinaryWriter& w, const nn::FlatParams& p, std::size_t i,
                     const KindCodec& codec, const nn::FlatParams* reference) {
  const nn::LayerEntry& e = p.index()->entry(i);
  const std::span<const float> span = p.entry_span(i);
  const std::size_t n = span.size();
  const auto& kf = detail::codec_kernel_fns();

  WireEncoding enc = codec.encoding;
  bool sparse = codec.topk_fraction < 1.0 && n > 0;
  if (e.is_obfuscated || codec.lossless()) {
    enc = WireEncoding::kF32;
    sparse = false;
  }

  if (!sparse && enc == WireEncoding::kF32) {
    write_dense_f32(w, span);
    return;
  }

  if (sparse) {
    DINAR_CHECK(reference != nullptr,
                "sparse update codec needs the round's broadcast as reference "
                "(entry " << e.name << ")");
    DINAR_CHECK(n <= 0xFFFFFFFFu,
                "entry " << e.name << " has " << n
                         << " elements, too many for u32 sparse indices");
    const std::span<const float> ref = reference->entry_span(i);
    std::vector<float> delta(n);
    for (std::size_t j = 0; j < n; ++j) delta[j] = span[j] - ref[j];
    // Non-finite deltas make |delta| ordering meaningless and must reach
    // the server's rejection scan intact: raw f32, no selection.
    if (!kf.absmax(delta.data(), n).all_finite) {
      write_dense_f32(w, span);
      return;
    }
    std::size_t k = static_cast<std::size_t>(
        std::ceil(codec.topk_fraction * static_cast<double>(n)));
    k = std::min(n, std::max<std::size_t>(1, k));
    // Largest |delta| first, ties to the lower index — a total order, so
    // the kept set is deterministic. Keep every delta above the k-th
    // largest magnitude, then the lowest-index ties at it, in one
    // ascending scan (so the indices come out sorted).
    const TopKThreshold cut = topk_threshold(delta, k);
    std::vector<std::uint32_t> idx(k);
    std::vector<float> vals(k);
    std::size_t kept = 0;
    std::size_t ties = cut.ties_kept;
    for (std::size_t j = 0; j < n; ++j) {
      const std::uint32_t key = magnitude_key(delta[j]);
      if (key < cut.key || (key == cut.key && ties == 0)) continue;
      if (key == cut.key) --ties;
      idx[kept] = static_cast<std::uint32_t>(j);
      vals[kept] = delta[j];
      ++kept;
    }
    float scale = 1.0f;
    if (enc == WireEncoding::kInt8)
      scale = int8_scale(kf.absmax(vals.data(), k).max_abs);
    w.write_u8(static_cast<std::uint8_t>(enc));
    w.write_u8(kRunFlagSparse);
    if (enc == WireEncoding::kInt8) w.write_f32(scale);
    w.write_u64(k);
    w.write_bytes(idx.data(), k * sizeof(std::uint32_t));
    write_coded_values(w, enc, vals.data(), k, 1.0f / scale);
    return;
  }

  if (enc == WireEncoding::kInt8) {
    const detail::SpanAbsMax am = kf.absmax(span.data(), n);
    // A non-finite span has no meaningful scale; ship it raw so NaN/Inf
    // reach the decoder bit-exactly (IEEE-754 propagation, PR 5 policy).
    if (!am.all_finite) {
      write_dense_f32(w, span);
      return;
    }
    const float scale = int8_scale(am.max_abs);
    w.write_u8(static_cast<std::uint8_t>(enc));
    w.write_u8(0);
    w.write_f32(scale);
    write_coded_values(w, enc, span.data(), n, 1.0f / scale);
    return;
  }

  // f16/bf16 carry NaN and +-Inf natively — no fallback needed.
  w.write_u8(static_cast<std::uint8_t>(enc));
  w.write_u8(0);
  write_coded_values(w, enc, span.data(), n, 1.0f);
}

void validate_kind_codec(const char* kind, const KindCodec& c,
                         bool allow_sparse) {
  DINAR_CHECK(static_cast<std::uint8_t>(c.encoding) <= kMaxEncodingValue,
              kind << " codec has unknown encoding value "
                   << static_cast<int>(c.encoding));
  DINAR_CHECK(c.topk_fraction > 0.0 && c.topk_fraction <= 1.0,
              kind << " codec topk_fraction " << c.topk_fraction
                   << " outside (0, 1]");
  DINAR_CHECK(allow_sparse || c.topk_fraction >= 1.0,
              kind << " codec cannot be sparse: clients have no reference "
                      "snapshot to reconstruct a broadcast against");
}

}  // namespace

const char* wire_encoding_name(WireEncoding e) {
  switch (e) {
    case WireEncoding::kF32:
      return "f32";
    case WireEncoding::kF16:
      return "f16";
    case WireEncoding::kBf16:
      return "bf16";
    case WireEncoding::kInt8:
      return "int8";
  }
  return "unknown";
}

void validate_codec_config(const UpdateCodecConfig& config) {
  validate_kind_codec("broadcast", config.broadcast, /*allow_sparse=*/false);
  validate_kind_codec("update", config.update, /*allow_sparse=*/true);
}

void write_flat_params_v3(BinaryWriter& w, const nn::FlatParams& p,
                          const KindCodec& codec,
                          const nn::FlatParams* reference) {
  DINAR_CHECK(p.index() != nullptr, "cannot serialize empty params as v3");
  if (reference != nullptr)
    DINAR_CHECK(p.same_layout(*reference),
                "v3 reference layout does not match the payload");
  const std::size_t before = w.size();
  nn::write_layer_index(w, *p.index());
  for (std::size_t i = 0; i < p.index()->num_entries(); ++i)
    write_entry_run(w, p, i, codec, reference);
  MemoryTracker::instance().record_copy(w.size() - before);
}

nn::FlatParams read_flat_params_v3(BinaryReader& r, std::uint64_t decoded_bytes,
                                   const nn::FlatParams* reference) {
  auto index = nn::read_layer_index(r);
  const std::int64_t total = index->total_numel();
  // The header's declared decoded size was bounded by the frame/message
  // layers BEFORE this call; tying the index to it here means a tampered
  // shape header cannot make this allocation exceed that bound. Divide
  // rather than multiply: total * 4 wraps for totals of 2^62 and up.
  DINAR_CHECK(total >= 0 && decoded_bytes % sizeof(float) == 0 &&
                  static_cast<std::uint64_t>(total) ==
                      decoded_bytes / sizeof(float),
              "v3 params declare " << decoded_bytes
                                   << " decoded bytes but the index holds "
                                   << total << " floats");
  std::vector<float> values(static_cast<std::size_t>(total));
  bool reference_checked = false;
  for (std::size_t i = 0; i < index->num_entries(); ++i) {
    const nn::LayerEntry& e = index->entry(i);
    DINAR_CHECK(e.numel >= 0 && e.offset >= 0 && e.offset + e.numel <= total,
                "v3 entry " << i << " spans [" << e.offset << ", "
                            << e.offset + e.numel << ") outside the " << total
                            << "-float arena");
    const std::size_t n = static_cast<std::size_t>(e.numel);
    float* out = values.data() + e.offset;
    const std::uint8_t enc_raw = r.read_u8();
    DINAR_CHECK(enc_raw <= kMaxEncodingValue,
                "v3 entry " << i << " has unknown encoding "
                            << static_cast<int>(enc_raw));
    const auto enc = static_cast<WireEncoding>(enc_raw);
    const std::uint8_t flags = r.read_u8();
    DINAR_CHECK(flags <= kRunFlagSparse, "v3 entry " << i
                                                     << " has unknown run flags "
                                                     << static_cast<int>(flags));
    float scale = 1.0f;
    if (enc == WireEncoding::kInt8) scale = r.read_f32();
    if ((flags & kRunFlagSparse) != 0) {
      DINAR_CHECK(reference != nullptr,
                  "v3 entry " << i
                              << " is sparse but no reference model is "
                                 "available to reconstruct against");
      if (!reference_checked) {
        DINAR_CHECK(reference->index() != nullptr &&
                        index->same_layout(*reference->index()),
                    "v3 sparse payload layout does not match the reference");
        reference_checked = true;
      }
      // read_length bounds k by the remaining bytes per (index + value)
      // pair before anything is allocated.
      const std::uint64_t k = r.read_length(sizeof(std::uint32_t) +
                                            value_bytes(enc));
      DINAR_CHECK(k <= n, "v3 entry " << i << " keeps " << k << " of " << n
                                      << " coordinates");
      const std::uint8_t* raw_idx = r.read_raw(k * sizeof(std::uint32_t));
      std::vector<std::uint32_t> idx(static_cast<std::size_t>(k));
      std::memcpy(idx.data(), raw_idx, k * sizeof(std::uint32_t));
      std::uint32_t prev = 0;
      for (std::size_t j = 0; j < idx.size(); ++j) {
        DINAR_CHECK(idx[j] < n && (j == 0 || idx[j] > prev),
                    "v3 entry " << i << " sparse index " << idx[j]
                                << " at position " << j
                                << " is out of range or not ascending");
        prev = idx[j];
      }
      std::vector<float> vals(static_cast<std::size_t>(k));
      read_coded_values(r, enc, vals.size(), scale, vals.data());
      const std::span<const float> ref = reference->entry_span(i);
      std::memcpy(out, ref.data(), n * sizeof(float));
      for (std::size_t j = 0; j < idx.size(); ++j)
        out[idx[j]] = ref[idx[j]] + vals[j];
    } else {
      read_coded_values(r, enc, n, scale, out);
    }
  }
  MemoryTracker::instance().record_copy(values.size() * sizeof(float));
  return nn::FlatParams(std::move(index), std::move(values));
}

std::uint64_t flat_params_v2_bytes(const nn::FlatParams& p) {
  std::uint64_t bytes = 8;  // entry count
  if (p.index() != nullptr) {
    for (const nn::LayerEntry& e : p.index()->entries())
      bytes += 8 + e.name.size()  // name
               + 4                 // layer id
               + 1                 // flags
               + 8 + e.shape.size() * 8;  // shape
  }
  return bytes + 8 + static_cast<std::uint64_t>(p.numel()) * sizeof(float);
}

}  // namespace dinar::fl
