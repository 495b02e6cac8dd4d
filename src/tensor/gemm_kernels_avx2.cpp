// AVX2 + FMA tier of the packed-panel gemm microkernel.
//
// This TU is compiled with -mavx2 -mfma (see src/tensor/CMakeLists.txt);
// nothing outside it may be inlined into AVX2 code paths, and callers must
// consult gemm_kernel_available(GemmKernel::kAvx2) first so the binary
// still runs on pre-AVX2 hosts.
//
// Layout per B panel: 8 ymm accumulators, one per A row; each kk step
// loads one 8-wide B group and issues 8 broadcast-FMA updates. Accumulation
// is ascending-kk with a single accumulator per element — the same order as
// the scalar oracle, differing only by FMA rounding.
#include "tensor/gemm_kernels.h"

#if DINAR_GEMM_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>

namespace dinar::detail {

void gemm_block_avx2(std::int64_t rows, std::int64_t n, std::int64_t k,
                     const float* apack, const float* bpack, float* c,
                     std::int64_t ldc, bool accumulate) {
  static_assert(kGemmMR == 8 && kGemmNR == 8,
                "AVX2 microkernel is written for an 8x8 register block");
  for (std::int64_t j0 = 0, bj = 0; j0 < n; j0 += kGemmNR, ++bj) {
    const float* panel = bpack + bj * k * kGemmNR;
    const std::int64_t cols = std::min<std::int64_t>(kGemmNR, n - j0);
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    __m256 acc2 = _mm256_setzero_ps();
    __m256 acc3 = _mm256_setzero_ps();
    __m256 acc4 = _mm256_setzero_ps();
    __m256 acc5 = _mm256_setzero_ps();
    __m256 acc6 = _mm256_setzero_ps();
    __m256 acc7 = _mm256_setzero_ps();
    if (accumulate) {
      // Seed the real lanes from C through a zeroed tile; padded lanes
      // start at +0.0f exactly as without accumulation.
      alignas(32) float seed[kGemmMR][kGemmNR] = {};
      for (std::int64_t r = 0; r < rows; ++r)
        for (std::int64_t j = 0; j < cols; ++j) seed[r][j] = c[r * ldc + j0 + j];
      acc0 = _mm256_load_ps(seed[0]);
      acc1 = _mm256_load_ps(seed[1]);
      acc2 = _mm256_load_ps(seed[2]);
      acc3 = _mm256_load_ps(seed[3]);
      acc4 = _mm256_load_ps(seed[4]);
      acc5 = _mm256_load_ps(seed[5]);
      acc6 = _mm256_load_ps(seed[6]);
      acc7 = _mm256_load_ps(seed[7]);
    }
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_loadu_ps(panel + kk * kGemmNR);
      const float* av = apack + kk * kGemmMR;
      acc0 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 0), bv, acc0);
      acc1 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 1), bv, acc1);
      acc2 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 2), bv, acc2);
      acc3 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 3), bv, acc3);
      acc4 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 4), bv, acc4);
      acc5 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 5), bv, acc5);
      acc6 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 6), bv, acc6);
      acc7 = _mm256_fmadd_ps(_mm256_broadcast_ss(av + 7), bv, acc7);
    }
    if (cols == kGemmNR) {
      float* crow = c + j0;
      if (rows > 0) _mm256_storeu_ps(crow + 0 * ldc, acc0);
      if (rows > 1) _mm256_storeu_ps(crow + 1 * ldc, acc1);
      if (rows > 2) _mm256_storeu_ps(crow + 2 * ldc, acc2);
      if (rows > 3) _mm256_storeu_ps(crow + 3 * ldc, acc3);
      if (rows > 4) _mm256_storeu_ps(crow + 4 * ldc, acc4);
      if (rows > 5) _mm256_storeu_ps(crow + 5 * ldc, acc5);
      if (rows > 6) _mm256_storeu_ps(crow + 6 * ldc, acc6);
      if (rows > 7) _mm256_storeu_ps(crow + 7 * ldc, acc7);
    } else {
      // Edge panel: spill the tile and copy only the real columns. The
      // store path never changes values, so edge elements match full-panel
      // arithmetic exactly.
      alignas(32) float tile[kGemmMR][kGemmNR];
      _mm256_store_ps(tile[0], acc0);
      _mm256_store_ps(tile[1], acc1);
      _mm256_store_ps(tile[2], acc2);
      _mm256_store_ps(tile[3], acc3);
      _mm256_store_ps(tile[4], acc4);
      _mm256_store_ps(tile[5], acc5);
      _mm256_store_ps(tile[6], acc6);
      _mm256_store_ps(tile[7], acc7);
      for (std::int64_t r = 0; r < rows; ++r) {
        float* crow = c + r * ldc + j0;
        for (std::int64_t j = 0; j < cols; ++j) crow[j] = tile[r][j];
      }
    }
  }
}

}  // namespace dinar::detail

#endif  // DINAR_GEMM_HAVE_AVX2
