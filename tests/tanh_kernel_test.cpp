// Tanh kernel tiers (nn/tanh_kernels.h): the scalar tier against golden
// bits, and the AVX2 tier against the scalar tier, bit for bit.
//
// No test here compares with std::tanh: the scalar tier is the reference,
// and the host's libm is free to change its tanhf (glibc 2.41 did).
// tools/tanh_exhaustive makes that comparison on all 2^32 inputs.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "nn/tanh_kernels.h"

namespace dinar {
namespace {

using nn::detail::TanhFn;
using nn::detail::TanhKernel;
using nn::detail::tanh_kernel;

std::uint32_t bits(float f) { return std::bit_cast<std::uint32_t>(f); }
float from_bits(std::uint32_t b) { return std::bit_cast<float>(b); }

std::vector<float> run(TanhFn fn, std::vector<float> v) {
  fn(v.data(), v.size());
  return v;
}

// Every 4099th bit pattern of the 2^32: each exponent and sign, NaN and
// subnormal ranges included, with varied mantissas.
std::vector<float> strided_sample() {
  std::vector<float> v;
  for (std::uint64_t b = 0; b < (std::uint64_t{1} << 32); b += 4099)
    v.push_back(from_bits(static_cast<std::uint32_t>(b)));
  return v;
}

TanhFn avx2_or_null() { return tanh_kernel(TanhKernel::kAvx2); }

// Expects the AVX2 tier to return the scalar tier's bits on `in`.
void expect_tiers_agree(const std::vector<float>& in, const char* what) {
  const std::vector<float> s = run(tanh_kernel(TanhKernel::kScalar), in);
  const std::vector<float> v = run(avx2_or_null(), in);
  int reported = 0;
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (bits(s[i]) == bits(v[i])) continue;
    ADD_FAILURE() << what << ": x=0x" << std::hex << bits(in[i]) << " scalar 0x" << bits(s[i])
                  << " avx2 0x" << bits(v[i]);
    if (++reported == 8) return;
  }
}

// The inputs within 2 ulps of `b` and of its negation.
void push_neighbourhood(std::vector<float>& v, std::uint32_t b) {
  for (std::uint32_t sign : {0u, 0x80000000u})
    for (std::int64_t d = -2; d <= 2; ++d)
      v.push_back(from_bits(sign | static_cast<std::uint32_t>(b + d)));
}

// The reduction index the reference's expm1 computes for the argument
// tanh passes it at x > 0 (2x for x >= 1, else -2x).
int reduction_index(float x) {
  const float u = x >= 1.0f ? 2.0f * x : -2.0f * x;
  return static_cast<int>(1.4426950216f * u + (u < 0.0f ? -0.5f : 0.5f));
}

// The reference's output bits at the edges of each of its branches, and a
// 64-bit FNV-1a over its outputs on the strided sample. These values are
// glibc 2.36's tanhf, which the scalar tier reproduces; a change here
// changes every Fcnn6 model hash.
TEST(TanhKernelTest, ScalarTierReproducesGoldenBits) {
  const std::pair<std::uint32_t, std::uint32_t> golden[] = {
      {0x00000000u, 0x00000000u}, {0x80000000u, 0x80000000u},  // +-0
      {0x00000001u, 0x00000001u}, {0x807fffffu, 0x807fffffu},  // subnormals
      {0x23ffffffu, 0x23ffffffu}, {0x24000000u, 0x24000000u},  // |x| = 2^-55
      {0x327fffffu, 0x327fffffu}, {0x32800000u, 0x32800000u},  // expm1 of < 2^-25
      {0x3e000000u, 0x3dfeaccau}, {0x3e317219u, 0x3e2fb0cdu},  // k = 0, -1
      {0x3f051591u, 0x3ef486f8u}, {0x3f3a0000u, 0x3f1ef718u},  // k = -1, -2
      {0x3f7fffffu, 0x3f42f7d5u}, {0x3f800000u, 0x3f42f7d6u},  // k = -3, |x| = 1
      {0xbf800000u, 0xbf42f7d6u}, {0x40000000u, 0x3f76ca83u},  // |x| = 1, k = 6
      {0x40f00000u, 0x3f7ffff6u}, {0x41100000u, 0x3f7fffffu},  // k = 22, 26
      {0x419ccccdu, 0x3f800000u}, {0x41afffffu, 0x3f800000u},  // k = 57, 63
      {0xc1b00000u, 0xbf800000u}, {0x7f800000u, 0x3f800000u},  // |x| = 22, +Inf
      {0xff800000u, 0xbf800000u}, {0x7fc00000u, 0x7fc00000u},  // -Inf, quiet NaN
      {0xffa00001u, 0xffe00001u},                              // signalling NaN
  };
  std::vector<float> in;
  for (const auto& [x, y] : golden) in.push_back(from_bits(x));
  const std::vector<float> out = run(tanh_kernel(TanhKernel::kScalar), in);
  for (std::size_t i = 0; i < in.size(); ++i)
    EXPECT_EQ(bits(out[i]), golden[i].second) << "x=0x" << std::hex << golden[i].first;

  std::uint64_t h = 0xcbf29ce484222325u;
  for (float y : run(tanh_kernel(TanhKernel::kScalar), strided_sample())) {
    h ^= bits(y);
    h *= 0x100000001b3u;
  }
  EXPECT_EQ(h, 0x9ac048e45dab0e6eu) << std::hex << h;
}

TEST(TanhKernelTest, ScalarTierIsOddAndBounded) {
  const std::vector<float> in = strided_sample();
  const std::vector<float> out = run(tanh_kernel(TanhKernel::kScalar), in);
  std::vector<float> negated = in;
  for (float& x : negated) x = from_bits(bits(x) ^ 0x80000000u);
  const std::vector<float> out_neg = run(tanh_kernel(TanhKernel::kScalar), negated);
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != in[i]) {
      EXPECT_NE(out[i], out[i]) << "NaN in, NaN out: 0x" << std::hex << bits(in[i]);
      continue;
    }
    ASSERT_EQ(bits(out_neg[i]), bits(out[i]) ^ 0x80000000u) << std::hex << bits(in[i]);
    ASSERT_LE(out[i] < 0.0f ? -out[i] : out[i], 1.0f) << std::hex << bits(in[i]);
  }
}

TEST(TanhKernelTest, Avx2MatchesScalarOnStridedSample) {
  if (avx2_or_null() == nullptr) GTEST_SKIP() << "AVX2 tanh tier not available on this build/host";
  expect_tiers_agree(strided_sample(), "strided");
}

TEST(TanhKernelTest, Avx2MatchesScalarOnSpecialValues) {
  if (avx2_or_null() == nullptr) GTEST_SKIP() << "AVX2 tanh tier not available on this build/host";
  std::vector<float> in;
  for (std::uint32_t sign : {0u, 0x80000000u}) {
    for (std::uint32_t b : {0x00000000u, 0x7f800000u,    // 0, Inf
                            0x7fc00000u, 0x7fc00001u,    // quiet NaNs
                            0x7fffffffu, 0x7f800001u,    // signalling NaNs
                            0x7fa5a5a5u, 0x00000001u,    // subnormals
                            0x00000002u, 0x00400000u,
                            0x007fffffu, 0x00800000u,    // smallest normal
                            0x7f7fffffu})                // largest finite
      in.push_back(from_bits(sign | b));
  }
  expect_tiers_agree(in, "special");
}

TEST(TanhKernelTest, Avx2MatchesScalarAtBranchBoundaries) {
  if (avx2_or_null() == nullptr) GTEST_SKIP() << "AVX2 tanh tier not available on this build/host";
  std::vector<float> in;
  // tanh's own branches: |x| = 2^-55, 1, 22 and Inf.
  for (std::uint32_t b : {0x24000000u, 0x3f800000u, 0x41b00000u, 0x7f800000u})
    push_neighbourhood(in, b);
  // expm1's branches, for its argument u = 2|x|: |u| = 2^-25, 0.5 ln2,
  // 1.5 ln2 and 27 ln2, reached at half those |x| (exponent field - 1).
  for (std::uint32_t u : {0x33000000u, 0x3eb17218u, 0x3F851592u, 0x4195b844u})
    push_neighbourhood(in, u - 0x00800000u);
  // Every step of the reduction index k, the k = 23 and k = 56 edges of
  // the exponent-adjust branches among them.
  int k_prev = reduction_index(0.5f);
  int steps = 0;
  for (std::uint32_t b = bits(0.5f) + 1; b < 0x41b00000u; ++b) {
    const int k = reduction_index(from_bits(b));
    if (k == k_prev) continue;
    push_neighbourhood(in, b);
    k_prev = k;
    ++steps;
  }
  // k = -2 and -3 below |x| = 1, then 3 at |x| = 1 and 4 .. 63 above.
  EXPECT_EQ(steps, 63);
  expect_tiers_agree(in, "boundary");
}

TEST(TanhKernelTest, Avx2MatchesScalarAtEveryTailLength) {
  if (avx2_or_null() == nullptr) GTEST_SKIP() << "AVX2 tanh tier not available on this build/host";
  constexpr float kGuard = 1234.5f;
  for (std::size_t n = 0; n <= 17; ++n) {
    std::vector<float> in(n + 8, kGuard);
    for (std::size_t i = 0; i < n; ++i) in[i] = -4.0f + 0.61f * static_cast<float>(i);
    std::vector<float> s = in, v = in;
    tanh_kernel(TanhKernel::kScalar)(s.data(), n);
    avx2_or_null()(v.data(), n);
    for (std::size_t i = 0; i < in.size(); ++i)
      EXPECT_EQ(bits(v[i]), bits(s[i])) << "n=" << n << " i=" << i;
    for (std::size_t i = n; i < in.size(); ++i) EXPECT_EQ(v[i], kGuard) << "n=" << n;
  }
}

}  // namespace
}  // namespace dinar
