// Scalar tier of the tanh kernels: the reference (see tanh_kernels.h).
//
// A port of fdlibm's s_tanhf.c and s_expm1f.c, operation for operation.
// expm1 keeps only the branches tanh can reach: tanh calls it with
// u = 2|x| in [2, 44) or u = -2|x| in (-2, -2^-54], so expm1's overflow,
// Inf/NaN and u < -27 ln2 filters and its k = +1 reduction never run and
// are left out. Compiled with -ffp-contract=off (src/nn/CMakeLists.txt).
#include "nn/tanh_kernels.h"

#include <bit>
#include <cmath>

#include "tensor/cpu_features.h"

namespace dinar::nn::detail {
namespace {

constexpr float kLn2Hi = 6.9313812256e-01f;   // 0x3f317180
constexpr float kLn2Lo = 9.0580006145e-06f;   // 0x3717f7d1
constexpr float kInvLn2 = 1.4426950216e+00f;  // 0x3fb8aa3b
// Scaled coefficients of the rational approximation of expm1.
constexpr float kQ1 = -3.3333335072e-02f;  // 0xbd088889
constexpr float kQ2 = 1.5873016091e-03f;   // 0x3ad00d01
constexpr float kQ3 = -7.9365076090e-05f;  // 0xb8a670cd
constexpr float kQ4 = 4.0082177293e-06f;   // 0x36867e54
constexpr float kQ5 = -2.0109921195e-07f;  // 0xb457edbb

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

// Multiplies y by 2^k by adding k to its exponent field.
float add_to_exponent(float y, std::int32_t k) {
  return from_bits(bits(y) + (static_cast<std::uint32_t>(k) << 23));
}

float expm1_of_tanh_argument(float x) {
  const std::uint32_t hx = bits(x) & 0x7fffffffu;
  const bool negative = (bits(x) >> 31) != 0;
  std::int32_t k = 0;
  float c = 0.0f;
  if (hx > 0x3eb17218u) {  // |x| > 0.5 ln2: reduce x = k ln2 + (hi - lo)
    float hi = 0.0f;
    float lo = 0.0f;
    if (hx < 0x3F851592u) {  // |x| < 1.5 ln2, and so x < 0
      hi = x + kLn2Hi;
      lo = -kLn2Lo;
      k = -1;
    } else {
      k = static_cast<std::int32_t>(kInvLn2 * x + (negative ? -0.5f : 0.5f));
      const float t = static_cast<float>(k);
      hi = x - t * kLn2Hi;  // t * kLn2Hi is exact here
      lo = t * kLn2Lo;
    }
    x = hi - lo;
    c = (hi - x) - lo;
  } else if (hx < 0x33000000u) {  // |x| < 2^-25: expm1(x) rounds to x
    return x;
  }

  // x is now in the primary range.
  const float hfx = 0.5f * x;
  const float hxs = x * hfx;
  const float r1 = 1.0f + hxs * (kQ1 + hxs * (kQ2 + hxs * (kQ3 + hxs * (kQ4 + hxs * kQ5))));
  float t = 3.0f - r1 * hfx;
  float e = hxs * ((r1 - t) / (6.0f - x * t));
  if (k == 0) return x - (x * e - hxs);
  e = x * (e - c) - c;
  e -= hxs;
  if (k == -1) return 0.5f * (x - e) - 0.5f;
  if (k <= -2 || k > 56) return add_to_exponent(1.0f - (e - x), k) - 1.0f;
  if (k < 23) {
    t = from_bits(0x3f800000u - (0x1000000u >> k));  // 1 - 2^-k
    return add_to_exponent(t - (e - x), k);
  }
  t = from_bits(static_cast<std::uint32_t>(0x7f - k) << 23);  // 2^-k
  float y = x - (e + t);
  y += 1.0f;
  return add_to_exponent(y, k);
}

float tanh_one(float x) {
  const std::uint32_t jx = bits(x);
  const std::uint32_t ix = jx & 0x7fffffffu;
  const bool negative = (jx >> 31) != 0;
  if (ix >= 0x7f800000u)  // tanh(+-Inf) = +-1; a NaN comes back quieted
    return negative ? 1.0f / x - 1.0f : 1.0f / x + 1.0f;
  float z = 1.0f;  // |x| >= 22: fdlibm's 1 - tiny, which rounds to 1
  if (ix < 0x41b00000u) {
    if (ix < 0x24000000u) return x * (1.0f + x);  // |x| < 2^-55, +-0 included
    if (ix >= 0x3f800000u) {                      // |x| >= 1
      const float t = expm1_of_tanh_argument(2.0f * std::fabs(x));
      z = 1.0f - 2.0f / (t + 2.0f);
    } else {
      const float t = expm1_of_tanh_argument(-2.0f * std::fabs(x));
      z = -t / (t + 2.0f);
    }
  }
  return negative ? -z : z;
}

}  // namespace

void tanh_scalar(float* v, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) v[i] = tanh_one(v[i]);
}

TanhFn tanh_kernel(TanhKernel kernel) {
  switch (kernel) {
    case TanhKernel::kScalar:
      return tanh_scalar;
    case TanhKernel::kAvx2:
#if DINAR_TANH_HAVE_AVX2
      return cpu_features().avx2 ? tanh_avx2 : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

TanhFn tanh_kernel() {
  static const TanhFn fn = tanh_kernel(TanhKernel::kAvx2) != nullptr
                               ? tanh_kernel(TanhKernel::kAvx2)
                               : tanh_scalar;
  return fn;
}

}  // namespace dinar::nn::detail
