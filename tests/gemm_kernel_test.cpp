// Randomized oracle suite for the dispatched gemm microkernels.
//
// The contract under test (DESIGN.md §9):
//  - every kernel tier matches a double-accumulated naive reference within
//    a relative tolerance, on shapes deliberately not multiples of the 8x8
//    register block (edge/remainder tiles included);
//  - SIMD tiers agree with the scalar oracle within a tight tolerance
//    (same accumulation order, FMA rounding only);
//  - for a fixed kernel, results are bit-identical across 1/2/4 threads;
//  - IEEE-754 propagation: 0 x NaN / 0 x Inf must poison the output in
//    every tier (no skip-zero shortcuts);
//  - degenerate shapes (k = 0, 1x1) take the overflow-free path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "tensor/cpu_features.h"
#include "tensor/tensor.h"
#include "util/error.h"
#include "util/execution_context.h"

namespace dinar {
namespace {

std::vector<GemmKernel> available_kernels() {
  std::vector<GemmKernel> kernels{GemmKernel::kScalar};
  if (gemm_kernel_available(GemmKernel::kAvx2))
    kernels.push_back(GemmKernel::kAvx2);
  return kernels;
}

constexpr Trans kCombos[4][2] = {{Trans::kN, Trans::kN},
                                 {Trans::kT, Trans::kN},
                                 {Trans::kN, Trans::kT},
                                 {Trans::kT, Trans::kT}};

// Stored operand shapes for a logical m x k times k x n product.
Tensor make_operand_a(Trans t, std::int64_t m, std::int64_t k, Rng& rng) {
  return Tensor::gaussian(t == Trans::kN ? Shape{m, k} : Shape{k, m}, rng);
}
Tensor make_operand_b(Trans t, std::int64_t k, std::int64_t n, Rng& rng) {
  return Tensor::gaussian(t == Trans::kN ? Shape{k, n} : Shape{n, k}, rng);
}

float op_a(const Tensor& a, Trans t, std::int64_t i, std::int64_t kk) {
  return t == Trans::kN ? a.at(i, kk) : a.at(kk, i);
}
float op_b(const Tensor& b, Trans t, std::int64_t kk, std::int64_t j) {
  return t == Trans::kN ? b.at(kk, j) : b.at(j, kk);
}

// Naive double-accumulated reference — deliberately nothing like the
// packed-panel kernels under test.
Tensor reference_gemm(Trans ta, Trans tb, const Tensor& a, const Tensor& b,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  Tensor out({m, n});
  for (std::int64_t i = 0; i < m; ++i)
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk)
        acc += static_cast<double>(op_a(a, ta, i, kk)) *
               static_cast<double>(op_b(b, tb, kk, j));
      out.at(i, j) = static_cast<float>(acc);
    }
  return out;
}

void expect_close(const Tensor& got, const Tensor& want, double rel_tol,
                  const std::string& what) {
  ASSERT_TRUE(got.same_shape(want)) << what;
  for (std::int64_t i = 0; i < got.numel(); ++i) {
    const double w = want.at(i);
    EXPECT_NEAR(got.at(i), w, rel_tol * (1.0 + std::fabs(w))) << what << " at " << i;
  }
}

void expect_bits_equal(const Tensor& x, const Tensor& y, const std::string& what) {
  ASSERT_TRUE(x.same_shape(y)) << what;
  EXPECT_EQ(std::memcmp(x.data(), y.data(),
                        static_cast<std::size_t>(x.numel()) * sizeof(float)),
            0)
      << what;
}

// Shapes chosen to exercise full tiles, remainder rows, remainder columns,
// k not a multiple of anything, and tiny extents.
const std::vector<std::tuple<int, int, int>>& oracle_shapes() {
  static const std::vector<std::tuple<int, int, int>> shapes = {
      {1, 1, 1},   {3, 5, 2},    {8, 8, 8},    {7, 9, 8},   {8, 16, 7},
      {13, 7, 11}, {16, 24, 32}, {37, 29, 41}, {5, 64, 3},  {64, 1, 64},
      {9, 17, 33}, {2, 100, 2},  {23, 23, 23}, {1, 8, 9},   {12, 6, 20},
  };
  return shapes;
}

TEST(GemmKernelTest, ScalarKernelAlwaysAvailable) {
  EXPECT_TRUE(gemm_kernel_available(GemmKernel::kScalar));
  EXPECT_TRUE(gemm_kernel_available(active_gemm_kernel()));
}

TEST(GemmKernelTest, EveryKernelMatchesDoubleOracleAllTransCombos) {
  std::uint64_t seed = 1000;
  for (const auto& [m, k, n] : oracle_shapes()) {
    for (const auto& combo : kCombos) {
      Rng rng(seed++);
      const Tensor a = make_operand_a(combo[0], m, k, rng);
      const Tensor b = make_operand_b(combo[1], k, n, rng);
      const Tensor want = reference_gemm(combo[0], combo[1], a, b, m, k, n);
      for (const GemmKernel kernel : available_kernels()) {
        const Tensor got = gemm(combo[0], combo[1], a, b, nullptr, kernel);
        expect_close(got, want, 1e-4,
                     std::string(gemm_kernel_name(kernel)) + " " +
                         std::to_string(m) + "x" + std::to_string(k) + "x" +
                         std::to_string(n));
      }
    }
  }
}

TEST(GemmKernelTest, SimdAgreesWithScalarOracleWithinTolerance) {
  if (!gemm_kernel_available(GemmKernel::kAvx2))
    GTEST_SKIP() << "AVX2 kernel not available in this build/host";
  std::uint64_t seed = 2000;
  for (const auto& [m, k, n] : oracle_shapes()) {
    for (const auto& combo : kCombos) {
      Rng rng(seed++);
      const Tensor a = make_operand_a(combo[0], m, k, rng);
      const Tensor b = make_operand_b(combo[1], k, n, rng);
      const Tensor scalar = gemm(combo[0], combo[1], a, b, nullptr, GemmKernel::kScalar);
      const Tensor simd = gemm(combo[0], combo[1], a, b, nullptr, GemmKernel::kAvx2);
      // Same per-element accumulation order; only FMA rounding differs.
      expect_close(simd, scalar, 1e-5, "avx2 vs scalar");
    }
  }
}

TEST(GemmKernelTest, BitIdenticalAcrossThreadCountsPerKernel) {
  Rng rng(77);
  // 37/29/41: none a multiple of 8, so remainder tiles sit at chunk
  // boundaries under every thread count.
  const std::int64_t m = 37, k = 29, n = 41;
  for (const GemmKernel kernel : available_kernels()) {
    for (const auto& combo : kCombos) {
      const Tensor a = make_operand_a(combo[0], m, k, rng);
      const Tensor b = make_operand_b(combo[1], k, n, rng);
      const Tensor seq = gemm(combo[0], combo[1], a, b, nullptr, kernel);
      for (const unsigned threads : {1u, 2u, 4u}) {
        ExecConfig cfg;
        cfg.threads = threads;
        cfg.grain = 1;  // force multi-chunk dispatch even at this size
        ExecutionContext exec(cfg);
        const Tensor par = gemm(combo[0], combo[1], a, b, &exec, kernel);
        expect_bits_equal(par, seq,
                          std::string(gemm_kernel_name(kernel)) + " @ " +
                              std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(GemmKernelTest, GemmIntoSplitKAccumulateIsBitIdentical) {
  // gemm_into on sub-matrices: k split into three consecutive accumulating
  // calls must reproduce one whole-k call bit for bit, writing only the
  // m x n window of a wider C (ldc > n).
  Rng rng(91);
  const std::int64_t m = 13, k = 29, n = 11, ldc = n + 5;
  const std::int64_t splits[] = {0, 5, 17, k};
  for (const GemmKernel kernel : available_kernels()) {
    for (const auto& combo : kCombos) {
      const Tensor a = make_operand_a(combo[0], m, k, rng);
      const Tensor b = make_operand_b(combo[1], k, n, rng);
      const Tensor whole = gemm(combo[0], combo[1], a, b, nullptr, kernel);
      std::vector<float> c(static_cast<std::size_t>(m * ldc), -7.0f);
      for (std::int64_t i = 0; i < m; ++i)
        std::fill(c.begin() + i * ldc, c.begin() + i * ldc + n, 0.0f);
      for (int s = 0; s < 3; ++s) {
        const std::int64_t k0 = splits[s], kn = splits[s + 1] - k0;
        const float* pa = combo[0] == Trans::kN ? a.data() + k0 : a.data() + k0 * m;
        const float* pb = combo[1] == Trans::kN ? b.data() + k0 * n : b.data() + k0;
        gemm_into(combo[0], combo[1], m, n, kn, pa, a.dim(1), pb, b.dim(1), c.data(),
                  ldc, /*accumulate=*/true, nullptr, kernel);
      }
      for (std::int64_t i = 0; i < m; ++i) {
        EXPECT_EQ(std::memcmp(c.data() + i * ldc, whole.data() + i * n,
                              static_cast<std::size_t>(n) * sizeof(float)),
                  0)
            << gemm_kernel_name(kernel) << " row " << i;
        for (std::int64_t j = n; j < ldc; ++j) EXPECT_EQ(c[i * ldc + j], -7.0f);
      }
    }
  }
}

TEST(GemmKernelTest, ZeroTimesNanAndInfPropagateInEveryKernel) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  // Row of a is all zeros; B carries NaN/Inf in the reduction — IEEE-754
  // says the products are NaN, so the whole output row must be NaN.
  Tensor a({2, 3}, {0, 0, 0, 1, 1, 1});
  Tensor b({3, 2}, {nan, inf, 1, 1, 2, 2});
  for (const GemmKernel kernel : available_kernels()) {
    const Tensor out = gemm(Trans::kN, Trans::kN, a, b, nullptr, kernel);
    EXPECT_TRUE(std::isnan(out.at(0, 0))) << gemm_kernel_name(kernel);
    EXPECT_TRUE(std::isnan(out.at(0, 1))) << gemm_kernel_name(kernel);
    // The finite row accumulates NaN + Inf contributions and must not be
    // silently "repaired" either.
    EXPECT_TRUE(std::isnan(out.at(1, 0))) << gemm_kernel_name(kernel);
  }
}

TEST(GemmKernelTest, DegenerateShapesPerKernel) {
  for (const GemmKernel kernel : available_kernels()) {
    // k = 0: empty reduction — a [2, 0] x [0, 3] product is defined and
    // all-zero; must not divide by zero or overflow in the grain math.
    const Tensor z = gemm(Trans::kN, Trans::kN, Tensor({2, 0}), Tensor({0, 3}),
                          nullptr, kernel);
    ASSERT_EQ(z.shape(), (Shape{2, 3}));
    for (float v : z.values()) EXPECT_EQ(v, 0.0f);

    // Empty output extents.
    EXPECT_EQ(gemm(Trans::kN, Trans::kN, Tensor({0, 4}), Tensor({4, 3}),
                   nullptr, kernel)
                  .numel(),
              0);
    EXPECT_EQ(gemm(Trans::kN, Trans::kN, Tensor({3, 4}), Tensor({4, 0}),
                   nullptr, kernel)
                  .numel(),
              0);

    // 1x1x1 — the smallest possible remainder tile everywhere.
    const Tensor one = gemm(Trans::kN, Trans::kN, Tensor({1, 1}, {3.0f}),
                            Tensor({1, 1}, {4.0f}), nullptr, kernel);
    EXPECT_EQ(one.at(0, 0), 12.0f);
  }
}

TEST(GemmKernelTest, ParallelDegenerateShapesDoNotHang) {
  ExecConfig cfg;
  cfg.threads = 2;
  cfg.grain = 1;
  ExecutionContext exec(cfg);
  const Tensor z =
      gemm(Trans::kN, Trans::kN, Tensor({64, 0}), Tensor({0, 64}), &exec);
  ASSERT_EQ(z.shape(), (Shape{64, 64}));
  for (float v : z.values()) EXPECT_EQ(v, 0.0f);
}

TEST(GemmKernelTest, KernelNamesRoundTrip) {
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kScalar), "scalar");
  EXPECT_STREQ(gemm_kernel_name(GemmKernel::kAvx2), "avx2");
}

}  // namespace
}  // namespace dinar
