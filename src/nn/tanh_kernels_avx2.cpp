// AVX2 tier of the tanh kernels.
//
// Branch-free: every lane computes each branch of the scalar reference
// (tanh_kernels_scalar.cpp) with the same float operations in the same
// order, and the result is selected per lane by |x| and by expm1's
// reduction index k. Where two branches share an operation on different
// operands (the final division of tanh, say), the operands are selected
// first and the operation runs once; each lane still sees the exact
// operation the reference performs. The k = -1 reduction runs through the
// general one: t = -1 makes t * ln2_hi and t * ln2_lo exact negations, so
// hi and lo come out bit-identical.
//
// Compiled with -mavx2 -ffp-contract=off and deliberately without -mfma
// (src/nn/CMakeLists.txt); callers reach it through tanh_kernel(), which
// checks the host's AVX2 bit.
#include "nn/tanh_kernels.h"

#if DINAR_TANH_HAVE_AVX2

#include <immintrin.h>

#include <cstring>

namespace dinar::nn::detail {
namespace {

inline __m256 as_ps(__m256i v) { return _mm256_castsi256_ps(v); }
inline __m256i as_si(__m256 v) { return _mm256_castps_si256(v); }
inline __m256i splat(std::int32_t v) { return _mm256_set1_epi32(v); }
inline __m256 splat(float v) { return _mm256_set1_ps(v); }
// Lane masks of signed 32-bit compares (every operand here is >= 0 or a
// small k, so signed order is the intended order).
inline __m256i gt(__m256i a, std::int32_t b) { return _mm256_cmpgt_epi32(a, splat(b)); }
inline __m256i lt(__m256i a, std::int32_t b) { return _mm256_cmpgt_epi32(splat(b), a); }
// Per lane: mask ? b : a.
inline __m256 select(__m256i mask, __m256 a, __m256 b) {
  return _mm256_blendv_ps(a, b, as_ps(mask));
}
inline __m256 add_to_exponent(__m256 y, __m256i k_shifted) {
  return as_ps(_mm256_add_epi32(as_si(y), k_shifted));
}

// expm1 over the arguments tanh passes (see tanh_kernels_scalar.cpp);
// lanes outside that domain return garbage that the caller discards.
inline __m256 expm1_of_tanh_argument(__m256 u) {
  const __m256 one = splat(1.0f);
  const __m256 half = splat(0.5f);
  const __m256i hx = _mm256_and_si256(as_si(u), splat(0x7fffffff));

  // Reduction index: 0 for |u| <= 0.5 ln2, -1 below 1.5 ln2, else
  // trunc(u / ln2 +- 0.5) with the sign of u.
  const __m256 rounding = _mm256_blendv_ps(half, splat(-0.5f), u);
  __m256i k = _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(splat(1.4426950216e+00f), u),
                                                rounding));
  const __m256i reduced = gt(hx, 0x3eb17218);
  k = _mm256_blendv_epi8(k, splat(-1), lt(hx, 0x3F851592));
  k = _mm256_and_si256(k, reduced);

  const __m256 t_k = _mm256_cvtepi32_ps(k);
  const __m256 hi = _mm256_sub_ps(u, _mm256_mul_ps(t_k, splat(6.9313812256e-01f)));
  const __m256 lo = _mm256_mul_ps(t_k, splat(9.0580006145e-06f));
  const __m256 hi_lo = _mm256_sub_ps(hi, lo);
  const __m256 c = _mm256_sub_ps(_mm256_sub_ps(hi, hi_lo), lo);
  const __m256 x = select(reduced, u, hi_lo);

  // The primary-range approximation.
  const __m256 hfx = _mm256_mul_ps(half, x);
  const __m256 hxs = _mm256_mul_ps(x, hfx);
  __m256 r1 = _mm256_mul_ps(hxs, splat(-2.0109921195e-07f));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(splat(4.0082177293e-06f), r1));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(splat(-7.9365076090e-05f), r1));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(splat(1.5873016091e-03f), r1));
  r1 = _mm256_mul_ps(hxs, _mm256_add_ps(splat(-3.3333335072e-02f), r1));
  r1 = _mm256_add_ps(one, r1);
  const __m256 t = _mm256_sub_ps(splat(3.0f), _mm256_mul_ps(r1, hfx));
  const __m256 e = _mm256_mul_ps(
      hxs, _mm256_div_ps(_mm256_sub_ps(r1, t), _mm256_sub_ps(splat(6.0f), _mm256_mul_ps(x, t))));

  // k == 0.
  const __m256 y_k0 = _mm256_sub_ps(x, _mm256_sub_ps(_mm256_mul_ps(x, e), hxs));
  // k != 0: fold the reduction's rounding error c into e.
  __m256 e2 = _mm256_sub_ps(_mm256_mul_ps(x, _mm256_sub_ps(e, c)), c);
  e2 = _mm256_sub_ps(e2, hxs);
  const __m256 e2_minus_x = _mm256_sub_ps(e2, x);
  // k == -1.
  const __m256 y_km1 = _mm256_sub_ps(_mm256_mul_ps(half, _mm256_sub_ps(x, e2)), half);
  const __m256i k_shifted = _mm256_slli_epi32(k, 23);
  // k <= -2 or k > 56.
  const __m256 y_wide =
      _mm256_sub_ps(add_to_exponent(_mm256_sub_ps(one, e2_minus_x), k_shifted), one);
  // 0 < k < 23: t = 1 - 2^-k.
  const __m256 t_low =
      as_ps(_mm256_sub_epi32(splat(0x3f800000), _mm256_srlv_epi32(splat(0x1000000), k)));
  const __m256 y_low = add_to_exponent(_mm256_sub_ps(t_low, e2_minus_x), k_shifted);
  // 23 <= k <= 56: t = 2^-k.
  const __m256 t_high = as_ps(_mm256_slli_epi32(_mm256_sub_epi32(splat(0x7f), k), 23));
  const __m256 y_high = add_to_exponent(
      _mm256_add_ps(_mm256_sub_ps(x, _mm256_add_ps(e2, t_high)), one), k_shifted);

  __m256 y = y_wide;
  y = select(_mm256_and_si256(gt(k, 22), lt(k, 57)), y, y_high);
  y = select(_mm256_and_si256(gt(k, 0), lt(k, 23)), y, y_low);
  y = select(_mm256_cmpeq_epi32(k, splat(-1)), y, y_km1);
  y = select(_mm256_cmpeq_epi32(k, _mm256_setzero_si256()), y, y_k0);
  return select(lt(hx, 0x33000000), y, u);  // |u| < 2^-25: expm1(u) rounds to u
}

inline __m256 tanh8(__m256 x) {
  const __m256 one = splat(1.0f);
  const __m256 two = splat(2.0f);
  const __m256i sign = splat(static_cast<std::int32_t>(0x80000000u));
  const __m256i jx = as_si(x);
  const __m256i ix = _mm256_andnot_si256(sign, jx);
  const __m256i big = gt(ix, 0x3f7fffff);       // |x| >= 1
  const __m256i non_finite = gt(ix, 0x7f7fffff);  // Inf or NaN

  // 2|x| for |x| >= 1, else -2|x| (negation commutes with the exact
  // doubling); t = expm1 of it.
  const __m256 two_ax = _mm256_mul_ps(two, as_ps(ix));
  const __m256 u = select(big, as_ps(_mm256_xor_si256(as_si(two_ax), sign)), two_ax);
  const __m256 t = expm1_of_tanh_argument(u);

  // One division serves all three quotients of the reference:
  // 2 / (t + 2) for |x| >= 1, -t / (t + 2) below, 1 / x for Inf and NaN.
  __m256 num = select(big, as_ps(_mm256_xor_si256(as_si(t), sign)), two);
  __m256 den = _mm256_add_ps(t, two);
  num = select(non_finite, num, one);
  den = select(non_finite, den, x);
  const __m256 q = _mm256_div_ps(num, den);

  __m256 z = select(big, q, _mm256_sub_ps(one, q));
  z = select(gt(ix, 0x41afffff), z, one);  // |x| >= 22
  z = as_ps(_mm256_xor_si256(as_si(z), _mm256_and_si256(jx, sign)));
  // |x| < 2^-55: x * (1 + x).
  z = select(lt(ix, 0x24000000), z, _mm256_mul_ps(x, _mm256_add_ps(one, x)));
  // Inf and NaN: 1/x + 1, or 1/x - 1 when the sign bit is set.
  const __m256 q_nf = _mm256_blendv_ps(_mm256_add_ps(q, one), _mm256_sub_ps(q, one), x);
  return select(non_finite, z, q_nf);
}

}  // namespace

void tanh_avx2(float* v, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) _mm256_storeu_ps(v + i, tanh8(_mm256_loadu_ps(v + i)));
  if (i == n) return;
  // The tail runs through the same vector code, padded with zeros.
  alignas(32) float tail[8] = {};
  std::memcpy(tail, v + i, (n - i) * sizeof(float));
  _mm256_store_ps(tail, tanh8(_mm256_load_ps(tail)));
  std::memcpy(v + i, tail, (n - i) * sizeof(float));
}

}  // namespace dinar::nn::detail

#endif  // DINAR_TANH_HAVE_AVX2
