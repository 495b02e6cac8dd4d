// Element-wise tanh kernels for nn::Tanh.
//
// Both tiers are ports of the fdlibm single-precision tanhf and the
// __expm1f it calls, the algorithm glibc's flt-32 libm shipped up to 2.40.
// They perform the same float operations in the same order as that code,
// so they reproduce its results bit for bit (tools/tanh_exhaustive checks
// all 2^32 inputs against the tiers and against the host's std::tanh).
// The Fcnn6 models' outputs, and with them every final-model hash of the
// tabular workloads, therefore depend on this file and not on the host's
// libm.
//
// Numerics contract shared by every tier:
//
//   - the scalar tier is the reference; every other tier returns the
//     identical bits for every input, NaN payloads included;
//   - both TUs are compiled with -ffp-contract=off and the AVX2 TU without
//     -mfma: a single contracted multiply-add rounds once where the
//     reference rounds twice, and the bit match is lost.
//
// Dispatch follows the gemm and codec seam (tensor/cpu_features.h), with
// no pin: Tanh::forward runs the widest tier that is both compiled in
// (DINAR_SIMD=ON on x86-64, DINAR_TANH_HAVE_AVX2) and supported by the
// host. Tests and tools reach each tier by name through tanh_kernel(tier).
#pragma once

#include <cstddef>
#include <cstdint>

namespace dinar::nn::detail {

// Replaces each of the n floats at v with its tanh.
using TanhFn = void (*)(float* v, std::size_t n);

// Kernel tiers, narrowest first.
enum class TanhKernel : std::uint8_t { kScalar, kAvx2 };

// Scalar tier, always compiled.
void tanh_scalar(float* v, std::size_t n);

#if DINAR_TANH_HAVE_AVX2
// Compiled with -mavx2 in its own TU; call only through tanh_kernel().
void tanh_avx2(float* v, std::size_t n);
#endif

// The tier's kernel, or nullptr when it is not compiled in or the host
// cannot run it.
TanhFn tanh_kernel(TanhKernel kernel);

// The widest available tier, resolved once per process.
TanhFn tanh_kernel();

}  // namespace dinar::nn::detail
