// Scalar tier of the packed-panel gemm microkernel — the testing oracle.
//
// Structurally identical to the SIMD tiers (same packing, same 8x8 tile,
// same ascending-kk accumulation with one accumulator per element); the
// inner arithmetic is plain float multiply-add, which the compiler may
// vectorize along the column axis but cannot reorder across kk (no
// -ffast-math), so per-element results are reproducible everywhere.
#include <algorithm>

#include "tensor/gemm_kernels.h"

namespace dinar::detail {

void gemm_block_scalar(std::int64_t rows, std::int64_t n, std::int64_t k,
                       const float* apack, const float* bpack, float* c,
                       std::int64_t ldc, bool accumulate) {
  for (std::int64_t j0 = 0, bj = 0; j0 < n; j0 += kGemmNR, ++bj) {
    const float* panel = bpack + bj * k * kGemmNR;
    const std::int64_t cols = std::min<std::int64_t>(kGemmNR, n - j0);
    // Full MR x NR tile, padded lanes included; IEEE-754 semantics are
    // preserved (no skip-zero shortcuts), so 0 x NaN / 0 x Inf propagate
    // exactly as in the SIMD tiers.
    float acc[kGemmMR][kGemmNR] = {};
    if (accumulate) {
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t j = 0; j < cols; ++j) acc[r][j] = c[r * ldc + j0 + j];
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* av = apack + kk * kGemmMR;
      const float* bv = panel + kk * kGemmNR;
      for (std::int64_t r = 0; r < kGemmMR; ++r) {
        const float a = av[r];
        for (std::int64_t j = 0; j < kGemmNR; ++j) acc[r][j] += a * bv[j];
      }
    }
    for (std::int64_t r = 0; r < rows; ++r) {
      float* crow = c + r * ldc + j0;
      for (std::int64_t j = 0; j < cols; ++j) crow[j] = acc[r][j];
    }
  }
}

}  // namespace dinar::detail
