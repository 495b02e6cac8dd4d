// PCLMULQDQ tier of store::crc32 (see store/io.h).
//
// Folding after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009), in the
// bit-reflected domain of 0xEDB88320. Four 128-bit accumulators fold
// 64 bytes per step with k1/k2 (x^(4*128+32) and x^(4*128-32) mod P, bit
// reflected and shifted left by one), then fold into one accumulator and
// on 16 bytes at a time with k3/k4 (x^(128+32) and x^(128-32) mod P,
// likewise). Each fold keeps the accumulator congruent, modulo P, to
// every byte consumed so far at the same end position. The 16 bytes left
// are therefore a message whose CRC from a zero register equals the
// register over everything consumed: the byte table finishes them, and
// the tail, with no Barrett reduction.
//
// Compiled with -mpclmul (src/store/CMakeLists.txt); callers reach it
// through crc32_kernel(), which checks the host's PCLMULQDQ bit.
#include "store/io.h"

#if DINAR_CRC_HAVE_PCLMUL

#include <immintrin.h>

namespace dinar::store::detail {
namespace {

inline __m128i load(const std::uint8_t* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

// acc * x^(stride) mod P, xored with the next block: k.lo multiplies the
// low half of acc, k.hi the high half.
inline __m128i fold(__m128i acc, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

}  // namespace

std::uint32_t crc32_update_pclmul(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  if (n < 64) return crc32_update_slice8(c, p, n);
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);

  // The register enters as the first four message bytes xored with it.
  __m128i x0 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  n -= 64;
  for (; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k1k2, load(p));
    x1 = fold(x1, k1k2, load(p + 16));
    x2 = fold(x2, k1k2, load(p + 32));
    x3 = fold(x3, k1k2, load(p + 48));
  }
  x0 = fold(x0, k3k4, x1);
  x0 = fold(x0, k3k4, x2);
  x0 = fold(x0, k3k4, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k3k4, load(p));

  alignas(16) std::uint8_t folded[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(folded), x0);
  return crc32_update_slice8(crc32_update_slice8(0, folded, 16), p, n);
}

}  // namespace dinar::store::detail

#endif  // DINAR_CRC_HAVE_PCLMUL
