#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>

#include "tensor/gemm_kernels.h"
#include "util/error.h"
#include "util/execution_context.h"
#include "util/memory_tracker.h"

namespace dinar {

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (std::int64_t d : shape) {
    DINAR_CHECK(d >= 0, "negative dimension in shape " << shape_to_string(shape));
    // Deserialized shapes are attacker-controlled; a checked multiply keeps
    // a corrupted shape from tripping signed-overflow UB.
    DINAR_CHECK(d == 0 || n <= std::numeric_limits<std::int64_t>::max() / d,
                "shape " << shape_to_string(shape) << " overflows element count");
    n *= d;
  }
  return n;
}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)),
      data_(static_cast<std::size_t>(numel_), 0.0f) {
  track_alloc();
}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), numel_(shape_numel(shape_)), data_(std::move(values)) {
  DINAR_CHECK(static_cast<std::int64_t>(data_.size()) == numel_,
              "value count " << data_.size() << " does not match shape "
                             << shape_to_string(shape_));
  track_alloc();
}

Tensor::Tensor(const Tensor& other)
    : shape_(other.shape_), numel_(other.numel_), data_(other.data_) {
  track_alloc();
  MemoryTracker::instance().record_copy(data_.size() * sizeof(float));
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  track_release();
  shape_ = other.shape_;
  numel_ = other.numel_;
  data_ = other.data_;
  track_alloc();
  MemoryTracker::instance().record_copy(data_.size() * sizeof(float));
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)), numel_(other.numel_),
      data_(std::move(other.data_)) {
  other.numel_ = 0;
  other.shape_.clear();
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  track_release();
  shape_ = std::move(other.shape_);
  numel_ = other.numel_;
  data_ = std::move(other.data_);
  other.numel_ = 0;
  other.shape_.clear();
  return *this;
}

Tensor::~Tensor() { track_release(); }

void Tensor::track_alloc() {
  if (!data_.empty()) MemoryTracker::instance().allocate(data_.size() * sizeof(float));
}

void Tensor::track_release() {
  if (!data_.empty()) MemoryTracker::instance().release(data_.size() * sizeof(float));
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::uniform(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

Tensor Tensor::gaussian(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (float& v : t.data_) v = static_cast<float>(rng.gaussian(0.0, stddev));
  return t;
}

Tensor Tensor::kaiming(Shape shape, std::int64_t fan_in, Rng& rng) {
  DINAR_CHECK(fan_in > 0, "kaiming init requires positive fan_in");
  const float bound = std::sqrt(1.0f / static_cast<float>(fan_in));
  return uniform(std::move(shape), rng, -bound, bound);
}

std::int64_t Tensor::dim(std::size_t i) const {
  DINAR_CHECK(i < shape_.size(), "dim " << i << " out of rank " << shape_.size());
  return shape_[i];
}

float& Tensor::at(std::int64_t r, std::int64_t c) {
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

float Tensor::at(std::int64_t r, std::int64_t c) const {
  return data_[static_cast<std::size_t>(r * shape_[1] + c)];
}

Tensor Tensor::reshaped(Shape new_shape) const& {
  DINAR_CHECK(shape_numel(new_shape) == numel_,
              "reshape " << shape_to_string(shape_) << " -> "
                         << shape_to_string(new_shape) << " changes numel");
  return Tensor(std::move(new_shape), data_);
}

Tensor Tensor::reshaped(Shape new_shape) && {
  DINAR_CHECK(shape_numel(new_shape) == numel_,
              "reshape " << shape_to_string(shape_) << " -> "
                         << shape_to_string(new_shape) << " changes numel");
  shape_ = std::move(new_shape);
  return std::move(*this);
}

void Tensor::fill(float value) { std::fill(data_.begin(), data_.end(), value); }

Tensor& Tensor::operator+=(const Tensor& other) {
  DINAR_CHECK(same_shape(other), "+= shape mismatch " << shape_to_string(shape_)
                                                      << " vs "
                                                      << shape_to_string(other.shape_));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::operator-=(const Tensor& other) {
  DINAR_CHECK(same_shape(other), "-= shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::operator*=(float scalar) {
  for (float& v : data_) v *= scalar;
  return *this;
}

void Tensor::add_scaled(const Tensor& x, float a) {
  DINAR_CHECK(same_shape(x), "add_scaled shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += a * x.data_[i];
}

void Tensor::add_product(const Tensor& x, const Tensor& y) {
  DINAR_CHECK(same_shape(x) && same_shape(y), "add_product shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += x.data_[i] * y.data_[i];
}

double Tensor::sum() const {
  return std::accumulate(data_.begin(), data_.end(), 0.0);
}

double Tensor::squared_l2_norm() const {
  double s = 0.0;
  for (float v : data_) s += static_cast<double>(v) * v;
  return s;
}

double Tensor::l2_norm() const { return std::sqrt(squared_l2_norm()); }

float Tensor::max_abs() const {
  float m = 0.0f;
  for (float v : data_) m = std::max(m, std::fabs(v));
  return m;
}

Tensor add(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out += b;
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  Tensor out = a;
  out -= b;
  return out;
}

Tensor scale(const Tensor& a, float s) {
  Tensor out = a;
  out *= s;
  return out;
}

namespace {

static_assert(kGemmMR == detail::kGemmMR && kGemmNR == detail::kGemmNR,
              "the public packed layout must be the microkernels' register block");

// Per-thread packing scratch, reused across gemm calls so the hot loop is
// allocation-free after warm-up. `bpack` holds the shared packed op(b)
// (written by the calling thread / packing chunks, read by everyone);
// `apack` holds one row-block of op(a) and is touched only by the thread
// executing that block. The vectors only ever grow.
struct GemmScratch {
  std::vector<float> bpack;
  std::vector<float> apack;
};

GemmScratch& gemm_scratch() {
  thread_local GemmScratch scratch;
  return scratch;
}

float* grown(std::vector<float>& v, std::size_t need) {
  if (v.size() < need) v.resize(need);
  return v.data();
}

// k*n without signed-overflow UB on degenerate or adversarial shapes:
// saturates instead of wrapping, and maps empty dimensions to 1 so grain
// math never divides by zero.
std::int64_t saturating_per_row_work(std::int64_t k, std::int64_t n) {
  const std::int64_t kk = std::max<std::int64_t>(1, k);
  const std::int64_t nn = std::max<std::int64_t>(1, n);
  if (kk > std::numeric_limits<std::int64_t>::max() / nn)
    return std::numeric_limits<std::int64_t>::max();
  return kk * nn;
}

// Row-blocks per parallel chunk, sized so a chunk is worth a pool
// dispatch. Kernel-aware: the SIMD tiers retire roughly 8x the flops per
// cycle of the scalar oracle, so they need proportionally more work per
// chunk before splitting pays — the old flat 32768-flops heuristic
// over-split the fast kernel into dispatch-bound confetti.
std::size_t gemm_block_grain(GemmKernel kernel, std::int64_t k, std::int64_t n) {
  const std::int64_t target_madds =
      kernel == GemmKernel::kScalar ? 32768 : 262144;
  const std::int64_t per_row = saturating_per_row_work(k, n);
  const std::int64_t rows = std::max<std::int64_t>(1, target_madds / per_row);
  return static_cast<std::size_t>((rows + kGemmMR - 1) / kGemmMR);
}

// B panels per packing chunk (each panel writes k * kGemmNR floats).
std::size_t pack_panel_grain(std::int64_t k) {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, 2048 / std::max<std::int64_t>(1, k)));
}

// Packs row-block bi of op(a) (element (i, kk) at a[i*row_stride +
// kk*k_stride]) into k groups of kGemmMR floats, rows past m zeroed.
void pack_a_block(const float* a, std::int64_t row_stride, std::int64_t k_stride,
                  std::int64_t m, std::int64_t k, std::int64_t bi, float* apack) {
  const std::int64_t i0 = bi * kGemmMR;
  const std::int64_t rows = std::min<std::int64_t>(kGemmMR, m - i0);
  if (k_stride == 1) {
    // op(a) rows are contiguous: stream each row, strided writes into the
    // L1-resident pack buffer.
    for (std::int64_t r = 0; r < kGemmMR; ++r) {
      if (r < rows) {
        const float* arow = a + (i0 + r) * row_stride;
        for (std::int64_t kk = 0; kk < k; ++kk) apack[kk * kGemmMR + r] = arow[kk];
      } else {
        for (std::int64_t kk = 0; kk < k; ++kk) apack[kk * kGemmMR + r] = 0.0f;
      }
    }
    return;
  }
  // Transposed operand: each kk step reads kGemmMR contiguous floats.
  for (std::int64_t kk = 0; kk < k; ++kk) {
    float* dst = apack + kk * kGemmMR;
    const float* src = a + i0 * row_stride + kk * k_stride;
    std::int64_t r = 0;
    for (; r < rows; ++r) dst[r] = src[r * row_stride];
    for (; r < kGemmMR; ++r) dst[r] = 0.0f;
  }
}

// Packs panels [p0, p1) of op(b) (element (kk, j) at b[kk*k_stride +
// j*col_stride]): per panel, k groups of kGemmNR floats, columns past n
// zeroed.
void pack_b_panels(const float* b, std::int64_t k_stride, std::int64_t col_stride,
                   std::int64_t n, std::int64_t k, std::int64_t p0, std::int64_t p1,
                   float* bpack) {
  for (std::int64_t bj = p0; bj < p1; ++bj) {
    const std::int64_t j0 = bj * kGemmNR;
    const std::int64_t cols = std::min<std::int64_t>(kGemmNR, n - j0);
    float* panel = bpack + bj * k * kGemmNR;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      float* dst = panel + kk * kGemmNR;
      const float* src = b + kk * k_stride + j0 * col_stride;
      std::int64_t j = 0;
      for (; j < cols; ++j) dst[j] = src[j * col_stride];
      for (; j < kGemmNR; ++j) dst[j] = 0.0f;
    }
  }
}

// c = 0 (or left alone when accumulating) for an empty reduction axis.
void zero_unless_accumulating(std::int64_t m, std::int64_t n, float* c, std::int64_t ldc,
                              bool accumulate) {
  if (!accumulate)
    for (std::int64_t i = 0; i < m; ++i) std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
}

detail::GemmBlockFn gemm_block_fn(GemmKernel kernel) {
  switch (kernel) {
    case GemmKernel::kScalar:
      return detail::gemm_block_scalar;
    case GemmKernel::kAvx2:
#if DINAR_GEMM_HAVE_AVX2
      return detail::gemm_block_avx2;
#else
      break;
#endif
  }
  return detail::gemm_block_scalar;
}

}  // namespace

Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec) {
  return gemm(trans_a, trans_b, a, b, exec, active_gemm_kernel());
}

Tensor gemm(Trans trans_a, Trans trans_b, const Tensor& a, const Tensor& b,
            const ExecutionContext* exec, GemmKernel kernel) {
  DINAR_CHECK(a.rank() == 2 && b.rank() == 2, "gemm requires rank-2 tensors");
  const std::int64_t m = trans_a == Trans::kN ? a.dim(0) : a.dim(1);
  const std::int64_t k = trans_a == Trans::kN ? a.dim(1) : a.dim(0);
  const std::int64_t n = trans_b == Trans::kN ? b.dim(1) : b.dim(0);
  const std::int64_t kb = trans_b == Trans::kN ? b.dim(0) : b.dim(1);
  DINAR_CHECK(kb == k, "gemm inner dimension mismatch: "
                           << (trans_a == Trans::kT ? "T " : "") << shape_to_string(a.shape())
                           << " x " << (trans_b == Trans::kT ? "T " : "")
                           << shape_to_string(b.shape()));
  Tensor out({m, n});
  gemm_into(trans_a, trans_b, m, n, k, a.data(), a.dim(1), b.data(), b.dim(1),
            out.data(), n, /*accumulate=*/false, exec, kernel);
  return out;
}

void gemm_into(Trans trans_a, Trans trans_b, std::int64_t m, std::int64_t n,
               std::int64_t k, const float* a, std::int64_t lda, const float* b,
               std::int64_t ldb, float* c, std::int64_t ldc, bool accumulate,
               const ExecutionContext* exec, GemmKernel kernel) {
  DINAR_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm_into: negative extent");
  // Degenerate shapes: an empty output has nothing to write, and an empty
  // reduction axis leaves every accumulator at its seed (zero, or c's own
  // value when accumulating). The packing math below assumes every extent
  // is positive.
  if (m == 0 || n == 0) return;
  if (k == 0) {
    zero_unless_accumulating(m, n, c, ldc, accumulate);
    return;
  }
  DINAR_CHECK(gemm_kernel_available(kernel),
              "gemm kernel '" << gemm_kernel_name(kernel)
                              << "' is not available in this build/host");
  const detail::GemmBlockFn block_fn = gemm_block_fn(kernel);

  // Element (i, kk) of the logical [m, k] operand op(a), and (kk, j) of the
  // logical [k, n] operand op(b), expressed as strides into the stored data
  // so all four Trans combinations share the packing code.
  const std::int64_t a_row_stride = trans_a == Trans::kN ? lda : 1;
  const std::int64_t a_k_stride = trans_a == Trans::kN ? 1 : lda;
  const std::int64_t b_k_stride = trans_b == Trans::kN ? ldb : 1;
  const std::int64_t b_col_stride = trans_b == Trans::kN ? 1 : ldb;

  const std::int64_t mblocks = (m + kGemmMR - 1) / kGemmMR;
  const std::int64_t npanels = (n + kGemmNR - 1) / kGemmNR;

  // Pack op(b) once into the calling thread's arena. Panels are disjoint,
  // so packing parallelizes with deterministic contents.
  float* bpack = grown(gemm_scratch().bpack,
                       static_cast<std::size_t>(gemm_packed_b_floats(k, n)));
  const auto pack_b = [&](std::int64_t p0, std::int64_t p1) {
    pack_b_panels(b, b_k_stride, b_col_stride, n, k, p0, p1, bpack);
  };
  if (exec != nullptr)
    exec->parallel_for(npanels, pack_b, pack_panel_grain(k));
  else
    pack_b(0, npanels);

  // Compute parallelizes over whole row-blocks (never raw rows): a chunk
  // boundary can only fall between blocks, so which rows share a
  // microkernel call — and therefore every element's operation sequence —
  // is independent of the thread count. Each executing thread packs the
  // current A row-block into its own scratch arena right before use.
  const auto row_blocks = [&](std::int64_t blk0, std::int64_t blk1) {
    float* apack =
        grown(gemm_scratch().apack, static_cast<std::size_t>(k * kGemmMR));
    for (std::int64_t bi = blk0; bi < blk1; ++bi) {
      pack_a_block(a, a_row_stride, a_k_stride, m, k, bi, apack);
      const std::int64_t i0 = bi * kGemmMR;
      block_fn(std::min<std::int64_t>(kGemmMR, m - i0), n, k, apack, bpack, c + i0 * ldc,
               ldc, accumulate);
    }
  };
  if (exec != nullptr)
    exec->parallel_for(mblocks, row_blocks, gemm_block_grain(kernel, k, n));
  else
    row_blocks(0, mblocks);
}

std::int64_t gemm_packed_a_floats(std::int64_t m, std::int64_t k) {
  return (m + kGemmMR - 1) / kGemmMR * kGemmMR * k;
}

std::int64_t gemm_packed_b_floats(std::int64_t k, std::int64_t n) {
  return (n + kGemmNR - 1) / kGemmNR * kGemmNR * k;
}

void gemm_pack_a(Trans trans_a, std::int64_t m, std::int64_t k, const float* a,
                 std::int64_t lda, float* apack) {
  DINAR_CHECK(m >= 0 && k >= 0, "gemm_pack_a: negative extent");
  const std::int64_t row_stride = trans_a == Trans::kN ? lda : 1;
  const std::int64_t k_stride = trans_a == Trans::kN ? 1 : lda;
  for (std::int64_t bi = 0; bi < (m + kGemmMR - 1) / kGemmMR; ++bi)
    pack_a_block(a, row_stride, k_stride, m, k, bi, apack + bi * k * kGemmMR);
}

void gemm_pack_b(Trans trans_b, std::int64_t k, std::int64_t n, const float* b,
                 std::int64_t ldb, float* bpack) {
  DINAR_CHECK(k >= 0 && n >= 0, "gemm_pack_b: negative extent");
  const std::int64_t k_stride = trans_b == Trans::kN ? ldb : 1;
  const std::int64_t col_stride = trans_b == Trans::kN ? 1 : ldb;
  pack_b_panels(b, k_stride, col_stride, n, k, 0, (n + kGemmNR - 1) / kGemmNR, bpack);
}

void gemm_packed(std::int64_t m, std::int64_t n, std::int64_t k, const float* apack,
                 const float* bpack, float* c, std::int64_t ldc, bool accumulate,
                 GemmKernel kernel) {
  DINAR_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm_packed: negative extent");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    zero_unless_accumulating(m, n, c, ldc, accumulate);
    return;
  }
  DINAR_CHECK(gemm_kernel_available(kernel),
              "gemm kernel '" << gemm_kernel_name(kernel)
                              << "' is not available in this build/host");
  const detail::GemmBlockFn block_fn = gemm_block_fn(kernel);
  for (std::int64_t i0 = 0; i0 < m; i0 += kGemmMR)
    block_fn(std::min<std::int64_t>(kGemmMR, m - i0), n, k, apack + i0 * k, bpack,
             c + i0 * ldc, ldc, accumulate);
}

void span_add(std::span<float> a, std::span<const float> b) {
  DINAR_CHECK(a.size() == b.size(),
              "span_add length mismatch: " << a.size() << " vs " << b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

void span_scale(std::span<float> a, float s) {
  for (float& v : a) v *= s;
}

void span_axpy(std::span<float> a, std::span<const float> x, float s) {
  DINAR_CHECK(a.size() == x.size(),
              "span_axpy length mismatch: " << a.size() << " vs " << x.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * x[i];
}

double span_squared_l2(std::span<const float> a) {
  double acc = 0.0;
  for (float v : a) acc += static_cast<double>(v) * static_cast<double>(v);
  return acc;
}

}  // namespace dinar
