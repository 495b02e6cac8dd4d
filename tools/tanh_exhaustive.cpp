// Exhaustive check of the tanh kernels (nn/tanh_kernels.h) over all 2^32
// float bit patterns, NaN payloads included, on 4 threads.
//
//   ./tools/tanh_exhaustive
//
// Compares the AVX2 tier with the scalar tier and both with the host's
// std::tanh, bit for bit. A disagreement between the tiers is a bug and
// exits 1. A mismatch against std::tanh is only reported: the scalar tier
// is the reference, and libm's tanhf is a different algorithm from glibc
// 2.41 on. A count of 0 against libm shows the tiers reproduce the host's
// tanhf on every input, so a model built with them hashes as one built
// with std::tanh did. Without an AVX2 tier (DINAR_SIMD=OFF, or a host
// without AVX2) only the scalar tier is checked against libm.
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <thread>
#include <vector>

#include "nn/tanh_kernels.h"

namespace {

using dinar::nn::detail::TanhFn;
using dinar::nn::detail::TanhKernel;
using dinar::nn::detail::tanh_kernel;

constexpr int kThreads = 4;
constexpr std::uint64_t kChunk = 1 << 16;
constexpr std::uint64_t kInputs = std::uint64_t{1} << 32;
constexpr int kReportLimit = 8;

struct Counts {
  std::atomic<std::uint64_t> tier_disagreements{0};
  std::atomic<std::uint64_t> libm_mismatches{0};
  std::atomic<int> reported{0};
};

void report(Counts& counts, const char* what, std::uint32_t in, float a, float b) {
  if (counts.reported.fetch_add(1) >= kReportLimit) return;
  std::printf("  %s: x=0x%08x  0x%08x vs 0x%08x\n", what, in, std::bit_cast<std::uint32_t>(a),
              std::bit_cast<std::uint32_t>(b));
}

void check_range(std::uint64_t begin, std::uint64_t end, TanhFn avx2, Counts& counts) {
  std::vector<float> in(kChunk), scalar(kChunk), vec(kChunk);
  const TanhFn reference = tanh_kernel(TanhKernel::kScalar);
  for (std::uint64_t base = begin; base < end; base += kChunk) {
    for (std::uint64_t i = 0; i < kChunk; ++i)
      in[i] = std::bit_cast<float>(static_cast<std::uint32_t>(base + i));
    scalar = in;
    reference(scalar.data(), kChunk);
    if (avx2 != nullptr) {
      vec = in;
      avx2(vec.data(), kChunk);
    }
    for (std::uint64_t i = 0; i < kChunk; ++i) {
      const std::uint32_t bits = static_cast<std::uint32_t>(base + i);
      const std::uint32_t s = std::bit_cast<std::uint32_t>(scalar[i]);
      if (avx2 != nullptr && std::bit_cast<std::uint32_t>(vec[i]) != s) {
        counts.tier_disagreements.fetch_add(1);
        report(counts, "avx2 vs scalar", bits, vec[i], scalar[i]);
      }
      const float libm = std::tanh(in[i]);
      if (std::bit_cast<std::uint32_t>(libm) != s) {
        counts.libm_mismatches.fetch_add(1);
        report(counts, "scalar vs std::tanh", bits, scalar[i], libm);
      }
    }
  }
}

}  // namespace

int main() {
  const TanhFn avx2 = tanh_kernel(TanhKernel::kAvx2);
  std::printf("tanh_exhaustive: all 2^32 inputs on %d threads; avx2 tier %s\n", kThreads,
              avx2 != nullptr ? "checked" : "not available (scalar tier only)");
  Counts counts;
  std::vector<std::thread> threads;
  const std::uint64_t per_thread = kInputs / kThreads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back(check_range, per_thread * t, per_thread * (t + 1), avx2,
                         std::ref(counts));
  for (std::thread& t : threads) t.join();
  const std::uint64_t tiers = counts.tier_disagreements.load();
  std::printf("tier disagreements: %llu\n", static_cast<unsigned long long>(tiers));
  std::printf("mismatches against std::tanh: %llu\n",
              static_cast<unsigned long long>(counts.libm_mismatches.load()));
  return tiers == 0 ? 0 : 1;
}
