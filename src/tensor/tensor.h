// Dense row-major float32 tensor.
//
// This is the numeric substrate under dinar::nn. Design goals, in order:
// correctness, determinism, then speed — the gemm hot path runs a
// runtime-dispatched SIMD microkernel (tensor/cpu_features.h), but only
// under a numerics contract the scalar oracle can always re-check.
// Storage is a contiguous std::vector<float>; shapes are explicit
// and checked on every op. All allocations are reported to MemoryTracker
// so the cost experiments can observe per-defense memory footprints.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "tensor/cpu_features.h"
#include "util/rng.h"

namespace dinar {

class ExecutionContext;  // util/execution_context.h

using Shape = std::vector<std::int64_t>;

std::string shape_to_string(const Shape& shape);
std::int64_t shape_numel(const Shape& shape);

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape);  // zero-initialized
  Tensor(Shape shape, std::vector<float> values);

  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor zeros(Shape shape);
  static Tensor full(Shape shape, float value);
  // U(lo, hi) entries.
  static Tensor uniform(Shape shape, Rng& rng, float lo = -1.0f, float hi = 1.0f);
  // N(0, stddev) entries.
  static Tensor gaussian(Shape shape, Rng& rng, float stddev = 1.0f);
  // Kaiming-uniform fan-in initialization (what our Dense/Conv layers use).
  static Tensor kaiming(Shape shape, std::int64_t fan_in, Rng& rng);

  const Shape& shape() const { return shape_; }
  std::int64_t dim(std::size_t i) const;
  std::size_t rank() const { return shape_.size(); }
  std::int64_t numel() const { return numel_; }
  bool empty() const { return numel_ == 0; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> values() { return {data_.data(), data_.size()}; }
  std::span<const float> values() const { return {data_.data(), data_.size()}; }

  float& at(std::int64_t i) { return data_[static_cast<std::size_t>(i)]; }
  float at(std::int64_t i) const { return data_[static_cast<std::size_t>(i)]; }
  // 2-D accessor: row-major [rows, cols].
  float& at(std::int64_t r, std::int64_t c);
  float at(std::int64_t r, std::int64_t c) const;

  // Returns a tensor with the same data and a new shape (same numel). The
  // rvalue overload moves the data instead of copying it.
  Tensor reshaped(Shape new_shape) const&;
  Tensor reshaped(Shape new_shape) &&;

  void fill(float value);
  void zero() { fill(0.0f); }

  // In-place arithmetic; shapes must match exactly.
  Tensor& operator+=(const Tensor& other);
  Tensor& operator-=(const Tensor& other);
  Tensor& operator*=(float scalar);
  // Fused a*x + this (axpy); shape-checked.
  void add_scaled(const Tensor& x, float a);
  // Elementwise product accumulate: this += x ⊙ y.
  void add_product(const Tensor& x, const Tensor& y);

  double sum() const;
  double squared_l2_norm() const;
  double l2_norm() const;
  float max_abs() const;

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  void track_alloc();
  void track_release();

  Shape shape_;
  std::int64_t numel_ = 0;
  std::vector<float> data_;
};

// out = a + b (shape-checked).
Tensor add(const Tensor& a, const Tensor& b);
// out = a - b.
Tensor sub(const Tensor& a, const Tensor& b);
// out = a * s.
Tensor scale(const Tensor& a, float s);

// Operand orientation for gemm: kN uses the tensor as stored, kT uses its
// transpose (without materializing it).
enum class Trans : std::uint8_t { kN, kT };

// General matrix multiply: op(a) op(b) -> [m, n], where op is identity
// (kN) or transpose (kT). This is the single compute entry point that
// replaced the matmul / matmul_tn / matmul_nt trio. Both operands are
// packed into register-block panels and multiplied by an 8x8 microkernel
// selected at runtime (tensor/cpu_features.h): AVX2+FMA where the build
// and host allow it, a structurally identical scalar oracle everywhere
// else; `DINAR_GEMM_KERNEL=scalar|avx2` pins the choice process-wide.
// When `exec` is non-null the output is parallelized over whole 8-row
// blocks via ExecutionContext::parallel_for. Every output element is
// accumulated by exactly one block in ascending k-order, so for a given
// kernel results are bit-identical for every thread count (and to
// `exec == nullptr`); scalar and SIMD kernels agree within a small
// relative tolerance (FMA rounding only — see DESIGN.md §9).
Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec = nullptr);

// Same, with an explicit kernel tier (tests and benches A/B the tiers
// in-process; gemm_kernel_available(kernel) must hold).
Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec, GemmKernel kernel);

// The raw-span core both Tensor overloads wrap: c = op(a) op(b) for a
// logical [m, k] x [k, n] product over row-major storage, where lda, ldb
// and ldc are the stored row lengths of a, b and c, so callers can
// multiply sub-matrices in place. Allocation-free after the per-thread
// packing arenas have grown. With `accumulate`, each element's
// accumulator starts from its current value in c instead of zero: a
// reduction split along k into consecutive calls then runs the same
// ascending-k chain, bit for bit, as one call over the whole of k.
// Same kernel, parallelism and determinism rules as gemm() above.
void gemm_into(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate,
               const ExecutionContext* exec, GemmKernel kernel);

// -- packed operands ---------------------------------------------------------
// gemm_into is two steps: pack op(a) and op(b) into register-block panels,
// then run the microkernel over the packed operands. A caller that can
// write the packed layout straight from its own storage (the convolution
// lowering packs patch panels from a zero-bordered input plane, with no
// patch matrix in between) runs the steps itself:
//
//   packed A: ceil(m / kGemmMR) row-blocks of k * kGemmMR floats; group kk
//             of block bi holds op(a)[bi*kGemmMR + r][kk] for r < kGemmMR.
//   packed B: ceil(n / kGemmNR) panels of k * kGemmNR floats; group kk of
//             panel bj holds op(b)[kk][bj*kGemmNR + j] for j < kGemmNR.
//
// Lanes past m or past n feed only outputs that are never stored, so their
// contents cannot reach c (the pack functions below write zeros there).
inline constexpr std::int64_t kGemmMR = 8;  // rows per packed A block
inline constexpr std::int64_t kGemmNR = 8;  // columns per packed B panel

// Floats a packed [m, k] A or [k, n] B occupies.
std::int64_t gemm_packed_a_floats(std::int64_t m, std::int64_t k);
std::int64_t gemm_packed_b_floats(std::int64_t k, std::int64_t n);

// Pack op(a) ([m, k]) or op(b) ([k, n]) from row-major storage with stored
// row length lda / ldb.
void gemm_pack_a(Trans trans_a, std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda, float* apack);
void gemm_pack_b(Trans trans_b, std::int64_t k, std::int64_t n, const float* b,
                 std::int64_t ldb, float* bpack);

// c = A B for packed operands, on the calling thread, with gemm_into's
// `accumulate` and numerics: every element is one ascending-k chain, so a
// packed call and gemm_into over the same values give the same bits.
void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, const float* apack,
                 const float* bpack, float* c, std::int64_t ldc, bool accumulate,
                 GemmKernel kernel);

// -- span kernels ------------------------------------------------------------
// Elementwise math over raw float ranges. These are the inner loops of the
// FlatParams parameter space (nn/flat_params.h): whole-model snapshots live
// in one contiguous arena and every consumer — FedAvg, robust aggregation,
// DP noise, SA masks — streams these spans instead of walking tensor lists.
// All of them are length-checked and accumulate in ascending index order,
// so chunked parallel callers that partition the range get bit-identical
// results to a single sequential pass.

// a += b.
void span_add(std::span<float> a, std::span<const float> b);
// a *= s.
void span_scale(std::span<float> a, float s);
// a += s * x (float axpy, the FedAvg accumulation primitive).
void span_axpy(std::span<float> a, std::span<const float> x, float s);
// sum of squared entries, double-accumulated in ascending order.
double span_squared_l2(std::span<const float> a);

}  // namespace dinar
