// Oracle suite for the wire-codec pack/unpack kernels (DESIGN.md §14).
//
// The contract under test:
//  - the single-element converters implement IEEE RNE with exact,
//    documented bit patterns (subnormals, ties, overflow-to-Inf, NaN
//    quieting, signed zero);
//  - every f16/bf16 bit pattern round-trips f32 -> pack exactly (NaN
//    payloads quieted, never laundered into numbers);
//  - the AVX2 tier produces BYTE-IDENTICAL encoded output to the scalar
//    oracle on every span length (vector body + tail) and every special
//    value — the property that makes encoded frames ISA-independent;
//  - int8 quantization: RNE, clamp to +-127, NaN -> 0 (encoder-guarded),
//    exact decode q * scale;
//  - codec_span_absmax flags non-finite spans (the encoder's lossless
//    fallback trigger) and ignores non-finite values in the max.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "tensor/codec_kernels.h"
#include "tensor/cpu_features.h"
#include "util/error.h"

namespace dinar {
namespace {

using detail::CodecKernelFns;
using detail::codec_kernel_fns;
using detail::f16_bits_to_f32_bits;
using detail::f32_bits_to_bf16_bits;
using detail::f32_bits_to_f16_bits;

std::vector<CodecKernel> available_kernels() {
  std::vector<CodecKernel> kernels{CodecKernel::kScalar};
  if (codec_kernel_available(CodecKernel::kAvx2))
    kernels.push_back(CodecKernel::kAvx2);
  return kernels;
}

std::uint32_t bits_of(float f) {
  std::uint32_t b;
  std::memcpy(&b, &f, 4);
  return b;
}

float float_of(std::uint32_t b) {
  float f;
  std::memcpy(&f, &b, 4);
  return f;
}

std::uint16_t f16_of(float f) { return f32_bits_to_f16_bits(bits_of(f)); }

// Byte-for-byte equality of two float buffers. memcmp must never see the
// null data() of an empty vector, so n = 0 compares sizes only.
bool same_bytes(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

// Deterministic value mix: mostly-normal magnitudes spanning the f16
// range plus out-of-range, subnormal-in-f16, and non-finite specials.
std::vector<float> make_span(std::size_t n, std::uint64_t seed,
                             bool with_specials) {
  std::vector<float> v(n);
  std::uint64_t s = seed * 0x9E3779B97F4A7C15ULL + 1;
  for (std::size_t i = 0; i < n; ++i) {
    s = s * 6364136223846793005ULL + 1442695040888963407ULL;
    const std::uint32_t u = static_cast<std::uint32_t>(s >> 33);
    // Magnitudes from 1e-9 (f16 underflow) to ~1e5 (f16 overflow).
    const int exp = static_cast<int>(u % 15) - 9;
    const float mag = static_cast<float>((u >> 8) % 10000 + 1) *
                      std::pow(10.0f, static_cast<float>(exp)) * 1e-3f;
    v[i] = (u & 1) ? -mag : mag;
  }
  if (with_specials && n >= 8) {
    v[0] = 0.0f;
    v[1] = -0.0f;
    v[2] = std::numeric_limits<float>::infinity();
    v[3] = -std::numeric_limits<float>::infinity();
    v[4] = std::numeric_limits<float>::quiet_NaN();
    v[5] = float_of(0x7F800001);  // signaling NaN
    v[6] = std::numeric_limits<float>::denorm_min();
    v[7] = 65520.0f;  // rounds to f16 Inf
  }
  return v;
}

// ----------------------------------------------------- single-element f16 --

TEST(CodecKernelTest, F16KnownBitPatterns) {
  EXPECT_EQ(f16_of(0.0f), 0x0000);
  EXPECT_EQ(f16_of(-0.0f), 0x8000);
  EXPECT_EQ(f16_of(1.0f), 0x3C00);
  EXPECT_EQ(f16_of(-2.0f), 0xC000);
  EXPECT_EQ(f16_of(0.5f), 0x3800);
  EXPECT_EQ(f16_of(65504.0f), 0x7BFF);  // largest finite f16
  EXPECT_EQ(f16_of(std::numeric_limits<float>::infinity()), 0x7C00);
  EXPECT_EQ(f16_of(-std::numeric_limits<float>::infinity()), 0xFC00);
  // Above the largest finite f16 midpoint: overflow to Inf, keeping sign.
  EXPECT_EQ(f16_of(65520.0f), 0x7C00);
  EXPECT_EQ(f16_of(-65520.0f), 0xFC00);
  // Smallest positive f16 subnormal is 2^-24.
  EXPECT_EQ(f16_of(0x1p-24f), 0x0001);
  // Below half the smallest subnormal: signed zero.
  EXPECT_EQ(f16_of(0x1p-26f), 0x0000);
  EXPECT_EQ(f16_of(-0x1p-26f), 0x8000);
  // Exactly half the smallest subnormal: RNE ties to even (zero).
  EXPECT_EQ(f16_of(0x1p-25f), 0x0000);
  // RNE tie between 1.0 (0x3C00) and nextafter: 1 + 2^-11 ties to even.
  EXPECT_EQ(f16_of(1.0f + 0x1p-11f), 0x3C00);
  // 1 + 3*2^-11 ties between 0x3C01 and 0x3C02: even wins.
  EXPECT_EQ(f16_of(1.0f + 3 * 0x1p-11f), 0x3C02);
  // NaN stays NaN (quieted).
  const std::uint16_t qnan = f16_of(std::numeric_limits<float>::quiet_NaN());
  EXPECT_EQ(qnan & 0x7E00, 0x7E00);
  const std::uint16_t snan = f32_bits_to_f16_bits(0x7F800001);
  EXPECT_GT(snan & 0x03FF, 0);  // still a NaN, not Inf
  EXPECT_EQ(snan & 0x7C00, 0x7C00);
}

TEST(CodecKernelTest, F16EveryPatternRoundTripsThroughF32) {
  for (std::uint32_t h = 0; h < 0x10000; ++h) {
    const std::uint16_t in = static_cast<std::uint16_t>(h);
    const std::uint32_t f = f16_bits_to_f32_bits(in);
    const std::uint16_t back = f32_bits_to_f16_bits(f);
    const bool is_nan = (in & 0x7C00) == 0x7C00 && (in & 0x03FF) != 0;
    if (!is_nan) {
      EXPECT_EQ(back, in) << "f16 pattern 0x" << std::hex << h;
    } else {
      // NaNs are quieted; sign and low payload survive.
      EXPECT_EQ(back & 0xFE00, (in & 0x8000) | 0x7E00) << std::hex << h;
      EXPECT_EQ(back & 0x01FF, in & 0x01FF) << std::hex << h;
    }
  }
}

TEST(CodecKernelTest, Bf16KnownBitPatternsAndRoundTrip) {
  EXPECT_EQ(f32_bits_to_bf16_bits(bits_of(1.0f)), 0x3F80);
  EXPECT_EQ(f32_bits_to_bf16_bits(bits_of(-0.0f)), 0x8000);
  EXPECT_EQ(f32_bits_to_bf16_bits(bits_of(std::numeric_limits<float>::infinity())),
            0x7F80);
  // RNE on the dropped 16 bits: 0x3F800000 | 0x8000 is a tie -> even (low
  // bit of the kept half stays 0); one ULP above the tie rounds up.
  EXPECT_EQ(f32_bits_to_bf16_bits(0x3F808000), 0x3F80);
  EXPECT_EQ(f32_bits_to_bf16_bits(0x3F808001), 0x3F81);
  EXPECT_EQ(f32_bits_to_bf16_bits(0x3F818000), 0x3F82);  // tie, odd -> up
  // NaN quieting: bit 6 forced on, payload kept.
  EXPECT_EQ(f32_bits_to_bf16_bits(0x7F800001), 0x7FC0 & 0xFFC0);
  // Every bf16 pattern round-trips (NaNs quieted).
  for (std::uint32_t h = 0; h < 0x10000; ++h) {
    const std::uint32_t f = h << 16;
    const std::uint16_t back = f32_bits_to_bf16_bits(f);
    const bool is_nan = (h & 0x7F80) == 0x7F80 && (h & 0x007F) != 0;
    if (!is_nan) {
      EXPECT_EQ(back, h) << "bf16 pattern 0x" << std::hex << h;
    } else {
      EXPECT_EQ(back, (h | 0x0040)) << "bf16 NaN 0x" << std::hex << h;
    }
  }
}

// ------------------------------------------------------------ span absmax --

TEST(CodecKernelTest, AbsMaxIgnoresNonFiniteAndFlagsThem) {
  for (const CodecKernel k : available_kernels()) {
    const CodecKernelFns& fns = codec_kernel_fns(k);

    const detail::SpanAbsMax empty = fns.absmax(nullptr, 0);
    EXPECT_EQ(empty.max_abs, 0.0f);
    EXPECT_TRUE(empty.all_finite);

    std::vector<float> clean{1.0f, -3.5f, 0.25f, -0.0f, 2.0f};
    const detail::SpanAbsMax c = fns.absmax(clean.data(), clean.size());
    EXPECT_EQ(c.max_abs, 3.5f);
    EXPECT_TRUE(c.all_finite);

    std::vector<float> dirty{1.0f, std::numeric_limits<float>::quiet_NaN(),
                             -7.0f, std::numeric_limits<float>::infinity(),
                             2.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    const detail::SpanAbsMax d = fns.absmax(dirty.data(), dirty.size());
    EXPECT_EQ(d.max_abs, 7.0f);
    EXPECT_FALSE(d.all_finite);

    std::vector<float> all_bad{std::numeric_limits<float>::quiet_NaN(),
                               -std::numeric_limits<float>::infinity()};
    const detail::SpanAbsMax b = fns.absmax(all_bad.data(), all_bad.size());
    EXPECT_EQ(b.max_abs, 0.0f);
    EXPECT_FALSE(b.all_finite);
  }
}

// ----------------------------------------------------------- int8 numerics --

TEST(CodecKernelTest, Int8QuantizesRneClampsAndZeroesNaN) {
  for (const CodecKernel k : available_kernels()) {
    const CodecKernelFns& fns = codec_kernel_fns(k);
    const std::vector<float> in{0.0f,  1.0f,   -1.0f,  0.5f,  1.5f,  2.5f,
                                300.0f, -300.0f, std::numeric_limits<float>::quiet_NaN()};
    std::vector<std::int8_t> q(in.size());
    fns.pack_i8(in.data(), in.size(), /*inv_scale=*/1.0f, q.data());
    // RNE: 0.5 -> 0 (tie to even), 1.5 -> 2, 2.5 -> 2.
    const std::vector<std::int8_t> expect{0, 1, -1, 0, 2, 2, 127, -127, 0};
    EXPECT_EQ(q, expect) << "tier " << codec_kernel_name(k);

    std::vector<float> back(in.size());
    fns.unpack_i8(q.data(), q.size(), /*scale=*/0.25f, back.data());
    for (std::size_t i = 0; i < q.size(); ++i)
      EXPECT_EQ(back[i], static_cast<float>(q[i]) * 0.25f);
  }
}

// ------------------------------------------------- cross-tier byte identity --

TEST(CodecKernelTest, TiersProduceByteIdenticalOutput) {
  if (!codec_kernel_available(CodecKernel::kAvx2))
    GTEST_SKIP() << "AVX2 codec tier not available on this build/host";
  const CodecKernelFns& scalar = codec_kernel_fns(CodecKernel::kScalar);
  const CodecKernelFns& avx2 = codec_kernel_fns(CodecKernel::kAvx2);

  // Lengths straddle the 8-lane vector body and every tail remainder.
  for (const std::size_t n : {0u, 1u, 3u, 7u, 8u, 9u, 15u, 16u, 17u, 33u, 100u}) {
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
      const std::vector<float> in = make_span(n, seed, /*with_specials=*/seed % 2);

      std::vector<std::uint16_t> h_s(n), h_v(n);
      scalar.pack_f16(in.data(), n, h_s.data());
      avx2.pack_f16(in.data(), n, h_v.data());
      EXPECT_EQ(h_s, h_v) << "pack_f16 n=" << n << " seed=" << seed;

      std::vector<float> f_s(n), f_v(n);
      scalar.unpack_f16(h_s.data(), n, f_s.data());
      avx2.unpack_f16(h_s.data(), n, f_v.data());
      EXPECT_TRUE(same_bytes(f_s, f_v))
          << "unpack_f16 n=" << n << " seed=" << seed;

      scalar.pack_bf16(in.data(), n, h_s.data());
      avx2.pack_bf16(in.data(), n, h_v.data());
      EXPECT_EQ(h_s, h_v) << "pack_bf16 n=" << n << " seed=" << seed;

      scalar.unpack_bf16(h_s.data(), n, f_s.data());
      avx2.unpack_bf16(h_s.data(), n, f_v.data());
      EXPECT_TRUE(same_bytes(f_s, f_v))
          << "unpack_bf16 n=" << n << " seed=" << seed;

      std::vector<std::int8_t> q_s(n), q_v(n);
      scalar.pack_i8(in.data(), n, 12.5f, q_s.data());
      avx2.pack_i8(in.data(), n, 12.5f, q_v.data());
      EXPECT_EQ(q_s, q_v) << "pack_i8 n=" << n << " seed=" << seed;

      scalar.unpack_i8(q_s.data(), n, 0.08f, f_s.data());
      avx2.unpack_i8(q_s.data(), n, 0.08f, f_v.data());
      EXPECT_TRUE(same_bytes(f_s, f_v))
          << "unpack_i8 n=" << n << " seed=" << seed;

      const detail::SpanAbsMax am_s = scalar.absmax(in.data(), n);
      const detail::SpanAbsMax am_v = avx2.absmax(in.data(), n);
      EXPECT_EQ(bits_of(am_s.max_abs), bits_of(am_v.max_abs))
          << "absmax n=" << n << " seed=" << seed;
      EXPECT_EQ(am_s.all_finite, am_v.all_finite) << "n=" << n << " seed=" << seed;
    }
  }

  // Exhaustive f16/bf16 decode agreement over every 16-bit pattern.
  std::vector<std::uint16_t> all(0x10000);
  for (std::uint32_t h = 0; h < 0x10000; ++h) all[h] = static_cast<std::uint16_t>(h);
  std::vector<float> d_s(all.size()), d_v(all.size());
  scalar.unpack_f16(all.data(), all.size(), d_s.data());
  avx2.unpack_f16(all.data(), all.size(), d_v.data());
  EXPECT_TRUE(same_bytes(d_s, d_v));
  scalar.unpack_bf16(all.data(), all.size(), d_s.data());
  avx2.unpack_bf16(all.data(), all.size(), d_v.data());
  EXPECT_TRUE(same_bytes(d_s, d_v));

  // And exhaustive f16 encode agreement over every decoded f16 value.
  std::vector<std::uint16_t> e_s(all.size()), e_v(all.size());
  scalar.unpack_f16(all.data(), all.size(), d_s.data());
  scalar.pack_f16(d_s.data(), d_s.size(), e_s.data());
  avx2.pack_f16(d_s.data(), d_s.size(), e_v.data());
  EXPECT_EQ(e_s, e_v);
}

// ---------------------------------------------------------------- dispatch --

TEST(CodecKernelTest, DispatchRegistryAndPins) {
  EXPECT_STREQ(codec_kernel_name(CodecKernel::kScalar), "scalar");
  EXPECT_STREQ(codec_kernel_name(CodecKernel::kAvx2), "avx2");
  EXPECT_TRUE(codec_kernel_available(CodecKernel::kScalar));

  // The resolved tier must be available, and a DINAR_CODEC_KERNEL pin
  // (read once at process start — the scalar ctest leg sets it) must win.
  const CodecKernel active = active_codec_kernel();
  EXPECT_TRUE(codec_kernel_available(active));
  const char* pin = std::getenv("DINAR_CODEC_KERNEL");
  if (pin != nullptr && *pin != '\0') {
    EXPECT_STREQ(codec_kernel_name(active), pin);
  } else if (codec_kernel_available(CodecKernel::kAvx2)) {
    EXPECT_EQ(active, CodecKernel::kAvx2);
  }

  // The explicit-tier table accessor mirrors availability.
  EXPECT_EQ(codec_kernel_fns(CodecKernel::kScalar).pack_f16,
            &detail::codec_pack_f16_scalar);
  if (!codec_kernel_available(CodecKernel::kAvx2)) {
    EXPECT_THROW(codec_kernel_fns(CodecKernel::kAvx2), Error);
  }
}

}  // namespace
}  // namespace dinar
