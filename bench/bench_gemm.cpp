// Gemm microkernel sweep: sizes x kernels x threads -> BENCH_GEMM.json.
//
// Engineering companion to the dense/conv hot path (every client training
// step, MIA shadow model and sensitivity scan lowers onto gemm). Measures
// each dispatchable kernel tier at several problem sizes — including
// shapes that are not multiples of the 8x8 register block — and reports
// GFLOP/s plus the SIMD-over-scalar speedup.
//
// `--smoke` is the CI gate: it fails unless the widest SIMD kernel beats
// the scalar oracle by >= 2x on the 256x256x256 single-thread case, judged
// on the median speedup of 5 paired scalar/SIMD timings. A full run
// enforces the stronger >= 4x acceptance bar the same way. On hosts (or
// builds) without a SIMD kernel the gate is skipped: there is nothing to
// compare.
#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "harness/experiment.h"
#include "tensor/cpu_features.h"
#include "tensor/tensor.h"
#include "util/execution_context.h"
#include "util/rng.h"
#include "util/timer.h"

namespace dinar::bench {
namespace {

struct Measurement {
  double seconds = 0.0;  // best-of-reps per call
  double gflops = 0.0;
  float checksum = 0.0f;  // defeats dead-code elimination
};

Measurement time_gemm(std::int64_t m, std::int64_t k, std::int64_t n,
                      GemmKernel kernel, const ExecutionContext* exec, int reps) {
  Rng rng(static_cast<std::uint64_t>(m * 1000003 + k * 1009 + n));
  const Tensor a = Tensor::gaussian({m, k}, rng);
  const Tensor b = Tensor::gaussian({k, n}, rng);

  Measurement out;
  Tensor warm = gemm(Trans::kN, Trans::kN, a, b, exec, kernel);
  out.checksum += warm.at(0);
  out.seconds = 1e30;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    const Tensor c = gemm(Trans::kN, Trans::kN, a, b, exec, kernel);
    const double secs = timer.elapsed_seconds();
    out.checksum += c.at(c.numel() - 1);
    if (secs < out.seconds) out.seconds = secs;
  }
  const double flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
                       static_cast<double>(n);
  out.gflops = flops / out.seconds / 1e9;
  return out;
}

int run(int argc, char** argv) {
  const bool smoke = parse_flag(argc, argv, "--smoke");
  print_header("Gemm microkernel sweep — kernels x sizes x threads",
               "dense/conv hot path substrate (no paper analogue)");

  std::vector<GemmKernel> kernels{GemmKernel::kScalar};
  if (gemm_kernel_available(GemmKernel::kAvx2))
    kernels.push_back(GemmKernel::kAvx2);
  std::printf("dispatch: active kernel is '%s' (DINAR_GEMM_KERNEL overrides)\n\n",
              gemm_kernel_name(active_gemm_kernel()));

  // (m, k, n): powers of two for the headline numbers plus off-block
  // shapes so remainder tiles are always measured too.
  std::vector<std::tuple<int, int, int>> sizes;
  if (smoke)
    sizes = {{96, 96, 96}, {100, 100, 100}, {256, 256, 256}};
  else
    sizes = {{64, 64, 64},    {100, 100, 100}, {128, 128, 128},
             {200, 120, 88},  {256, 256, 256}, {384, 384, 384},
             {512, 512, 512}, {768, 256, 333}};
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1} : std::vector<unsigned>{1, 2, 4};
  const int reps = smoke ? 3 : 7;

  BenchJson json("gemm");
  print_table_header("size/kernel", {"threads", "ms/call", "GFLOP/s",
                                     "vs scalar"}, 16);

  const double gate = smoke ? 2.0 : 4.0;
  bool gate_ok = true;
  bool gate_checked = false;
  float sink = 0.0f;

  for (const auto& [m, k, n] : sizes) {
    const std::string size_label = std::to_string(m) + "x" + std::to_string(k) +
                                   "x" + std::to_string(n);
    for (const unsigned threads : thread_counts) {
      ExecConfig cfg;
      cfg.threads = threads;
      ExecutionContext exec(cfg);
      const ExecutionContext* ep = threads > 1 ? &exec : nullptr;

      double scalar_seconds = 0.0;
      for (const GemmKernel kernel : kernels) {
        const Measurement mm = time_gemm(m, k, n, kernel, ep, reps);
        sink += mm.checksum;
        if (kernel == GemmKernel::kScalar) scalar_seconds = mm.seconds;
        const double speedup =
            kernel == GemmKernel::kScalar ? 1.0 : scalar_seconds / mm.seconds;
        print_table_row(size_label + "/" + gemm_kernel_name(kernel),
                        {static_cast<double>(threads), mm.seconds * 1e3,
                         mm.gflops, speedup},
                        16, 2);
        json.begin_row()
            .field("m", static_cast<std::int64_t>(m))
            .field("k", static_cast<std::int64_t>(k))
            .field("n", static_cast<std::int64_t>(n))
            .field("kernel", std::string(gemm_kernel_name(kernel)))
            .field("threads", static_cast<std::int64_t>(threads))
            .field("seconds_per_call", mm.seconds)
            .field("gflops", mm.gflops)
            .field("speedup_vs_scalar", speedup);
        // The acceptance bar lives on the 256^3 single-thread case, on the
        // median of kGateTimedRuns paired timings rather than the row's
        // single sample.
        if (kernel != GemmKernel::kScalar && threads == 1 && m == 256 &&
            k == 256 && n == 256) {
          gate_checked = true;
          std::vector<double> speedups;
          for (int run = 0; run < kGateTimedRuns; ++run) {
            const Measurement scalar = time_gemm(m, k, n, GemmKernel::kScalar, ep, reps);
            const Measurement simd = time_gemm(m, k, n, kernel, ep, reps);
            sink += scalar.checksum + simd.checksum;
            speedups.push_back(scalar.seconds / simd.seconds);
          }
          const double gate_speedup = median(speedups);
          std::printf("  256^3 single-thread %s speedup over scalar: %.2fx, "
                      "median of %d runs (gate >= %.1fx)\n",
                      gemm_kernel_name(kernel), gate_speedup, kGateTimedRuns, gate);
          if (gate_speedup < gate) gate_ok = false;
        }
      }
    }
  }
  json.write();
  std::printf("(checksum %g)\n", static_cast<double>(sink));

  if (kernels.size() == 1) {
    std::printf("no SIMD kernel available (DINAR_SIMD=OFF build or pre-AVX2 "
                "host); speedup gate skipped\n");
    return 0;
  }
  if (!gate_checked || !gate_ok) {
    std::fprintf(stderr,
                 "FAIL: SIMD gemm kernel did not reach the %.1fx single-thread "
                 "speedup gate on 256x256x256\n",
                 gate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace dinar::bench

int main(int argc, char** argv) { return dinar::bench::run(argc, argv); }
