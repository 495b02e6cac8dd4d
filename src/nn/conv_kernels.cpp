#include "nn/conv_kernels.h"

#include <algorithm>
#include <functional>
#include <vector>

#include "util/error.h"
#include "util/execution_context.h"

namespace dinar::nn {
namespace {

// Items per parallel chunk for a given per-item workload.
std::size_t grain_for(std::int64_t per_item_work) {
  return static_cast<std::size_t>(
      std::max<std::int64_t>(1, 16384 / std::max<std::int64_t>(1, per_item_work)));
}

void run_range(std::int64_t n, const ExecutionContext* exec, std::size_t grain,
               const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (exec != nullptr)
    exec->parallel_for(n, fn, grain);
  else
    fn(0, n);
}

// One image's [CK, P] tile, per thread: the eval forward's patch matrix and
// the input-gradient tile. Only ever grows.
float* thread_tile(std::size_t floats) {
  thread_local std::vector<float> tile;
  if (tile.size() < floats) tile.resize(floats);
  return tile.data();
}

// [lo, hi) of the output positions o whose input index o*stride + tap - pad
// lies inside [0, extent), clamped to [0, out).
struct Span {
  std::int64_t lo, hi;
};

Span valid_outputs(std::int64_t tap, std::int64_t pad, std::int64_t stride,
                   std::int64_t extent, std::int64_t out) {
  const std::int64_t first = pad - tap;             // need o*stride >= first
  const std::int64_t last = extent - 1 + pad - tap;  // need o*stride <= last
  std::int64_t lo = first <= 0 ? 0 : (first + stride - 1) / stride;
  std::int64_t hi = last < 0 ? 0 : last / stride + 1;
  lo = std::min(lo, out);
  hi = std::clamp(hi, lo, out);
  return {lo, hi};
}

// cols[CK, P] for one image x[C, H, W]: row q = (c, ky, kx), column
// (oy, ox) = x[c][oy*s + ky - ph][ox*s + kx - pw], zero outside the input.
void im2col_image(const ConvShape& s, const float* x, float* cols) {
  const std::int64_t p = s.positions();
  for (std::int64_t c = 0; c < s.in_ch; ++c) {
    const float* xc = x + c * s.h * s.w;
    for (std::int64_t ky = 0; ky < s.kernel_h; ++ky) {
      const Span ys = valid_outputs(ky, s.padding_h, s.stride, s.h, s.oh);
      for (std::int64_t kx = 0; kx < s.kernel_w; ++kx) {
        const Span xs = valid_outputs(kx, s.padding_w, s.stride, s.w, s.ow);
        float* row = cols + ((c * s.kernel_h + ky) * s.kernel_w + kx) * p;
        std::fill(row, row + ys.lo * s.ow, 0.0f);
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          float* dst = row + oy * s.ow;
          std::fill(dst, dst + xs.lo, 0.0f);
          if (xs.hi > xs.lo) {
            const float* src = xc + (oy * s.stride + ky - s.padding_h) * s.w +
                               xs.lo * s.stride + kx - s.padding_w;
            if (s.stride == 1) {
              std::copy(src, src + (xs.hi - xs.lo), dst + xs.lo);
            } else {
              for (std::int64_t ox = xs.lo; ox < xs.hi; ++ox)
                dst[ox] = src[(ox - xs.lo) * s.stride];
            }
          }
          std::fill(dst + xs.hi, dst + s.ow, 0.0f);
        }
        std::fill(row + ys.hi * s.ow, row + p, 0.0f);
      }
    }
  }
}

// Adds one image's input-gradient tile t[CK, P] into dx[C, H, W]. Taps run
// with ky and kx descending: a dx element is hit by at most one output
// position per tap, and descending taps mean its contributions arrive in
// ascending (oy, ox) order, the order bit-identity requires (see header).
void col2im_image(const ConvShape& s, const float* tile, float* dx) {
  const std::int64_t p = s.positions();
  for (std::int64_t c = 0; c < s.in_ch; ++c) {
    float* dxc = dx + c * s.h * s.w;
    for (std::int64_t ky = s.kernel_h - 1; ky >= 0; --ky) {
      const Span ys = valid_outputs(ky, s.padding_h, s.stride, s.h, s.oh);
      for (std::int64_t kx = s.kernel_w - 1; kx >= 0; --kx) {
        const Span xs = valid_outputs(kx, s.padding_w, s.stride, s.w, s.ow);
        if (xs.hi == xs.lo) continue;
        const float* row = tile + ((c * s.kernel_h + ky) * s.kernel_w + kx) * p;
        for (std::int64_t oy = ys.lo; oy < ys.hi; ++oy) {
          const float* src = row + oy * s.ow + xs.lo;
          float* dst = dxc + (oy * s.stride + ky - s.padding_h) * s.w +
                       xs.lo * s.stride + kx - s.padding_w;
          // No skip-zero shortcut: adding an exact 0.0f must still happen
          // so signed zeros and NaN/Inf already in dx behave as in a
          // branch-free SIMD add.
          if (s.stride == 1) {
            for (std::int64_t i = 0; i < xs.hi - xs.lo; ++i) dst[i] += src[i];
          } else {
            for (std::int64_t i = 0; i < xs.hi - xs.lo; ++i) dst[i * s.stride] += src[i];
          }
        }
      }
    }
  }
}

void check_shape(const ConvShape& s) {
  DINAR_CHECK(s.batch >= 0 && s.in_ch >= 1 && s.out_ch >= 1 && s.h >= 1 && s.w >= 1 &&
                  s.kernel_h >= 1 && s.kernel_w >= 1 && s.stride >= 1 &&
                  s.padding_h >= 0 && s.padding_w >= 0 && s.oh >= 1 && s.ow >= 1,
              "invalid convolution geometry");
}

}  // namespace

float* retained_patches(Tensor& buffer, const ConvShape& s) {
  const std::int64_t need = s.batch * s.patch() * s.positions();
  if (buffer.numel() < need) buffer = Tensor({need});
  return buffer.data();
}

void conv_forward(const ConvShape& s, const float* x, const float* weight,
                  const float* bias, float* cols, float* y,
                  const ExecutionContext* exec) {
  check_shape(s);
  const std::int64_t ck = s.patch(), p = s.positions();
  const GemmKernel kernel = active_gemm_kernel();
  run_range(s.batch, exec, grain_for(s.out_ch * ck * p),
            [&](std::int64_t n0, std::int64_t n1) {
              float* tile =
                  cols != nullptr ? nullptr : thread_tile(static_cast<std::size_t>(ck * p));
              for (std::int64_t n = n0; n < n1; ++n) {
                float* cn = cols != nullptr ? cols + n * ck * p : tile;
                im2col_image(s, x + n * s.in_ch * s.h * s.w, cn);
                float* yn = y + n * s.out_ch * p;
                gemm_into(Trans::kN, Trans::kN, s.out_ch, p, ck, weight, ck, cn, p, yn, p,
                          /*accumulate=*/false, nullptr, kernel);
                for (std::int64_t oc = 0; oc < s.out_ch; ++oc) {
                  float* yrow = yn + oc * p;
                  const float b = bias[oc];
                  for (std::int64_t i = 0; i < p; ++i) yrow[i] += b;
                }
              }
            });
}

void conv_backward(const ConvShape& s, const float* cols, const float* weight,
                   const float* grad_out, float* grad_weight, float* grad_bias,
                   float* dx, const ExecutionContext* exec) {
  check_shape(s);
  const std::int64_t ck = s.patch(), p = s.positions(), oc = s.out_ch;
  const GemmKernel kernel = active_gemm_kernel();

  // db: each channel sums its rows in ascending (n, oy, ox) order.
  run_range(oc, exec, grain_for(s.batch * p), [&](std::int64_t c0, std::int64_t c1) {
    for (std::int64_t ch = c0; ch < c1; ++ch) {
      float acc = grad_bias[ch];
      for (std::int64_t n = 0; n < s.batch; ++n) {
        const float* g = grad_out + (n * oc + ch) * p;
        for (std::int64_t i = 0; i < p; ++i) acc += g[i];
      }
      grad_bias[ch] = acc;
    }
  });

  // dW: one [OC, CK] chain over every image, resumed image by image; tasks
  // own disjoint column ranges of it, in whole 8-wide gemm panels.
  constexpr std::int64_t kPanel = 8;
  std::vector<float> dw(static_cast<std::size_t>(oc * ck), 0.0f);
  const std::int64_t panels = (ck + kPanel - 1) / kPanel;
  run_range(panels, exec, grain_for(oc * kPanel * s.batch * p),
            [&](std::int64_t b0, std::int64_t b1) {
              const std::int64_t j0 = b0 * kPanel, j1 = std::min(ck, b1 * kPanel);
              for (std::int64_t n = 0; n < s.batch; ++n) {
                gemm_into(Trans::kN, Trans::kT, oc, j1 - j0, p, grad_out + n * oc * p, p,
                          cols + (n * ck + j0) * p, p, dw.data() + j0, ck,
                          /*accumulate=*/true, nullptr, kernel);
              }
            });
  for (std::int64_t i = 0; i < oc * ck; ++i) grad_weight[i] += dw[static_cast<std::size_t>(i)];
  if (dx == nullptr) return;

  // dx: per image, t = W^T g_n, added into dx_n while it is still cached.
  run_range(s.batch, exec, grain_for(oc * ck * p), [&](std::int64_t n0, std::int64_t n1) {
    float* tile = thread_tile(static_cast<std::size_t>(ck * p));
    for (std::int64_t n = n0; n < n1; ++n) {
      gemm_into(Trans::kT, Trans::kN, ck, p, oc, weight, ck, grad_out + n * oc * p, p,
                tile, p, /*accumulate=*/false, nullptr, kernel);
      col2im_image(s, tile, dx + n * s.in_ch * s.h * s.w);
    }
  });
}

}  // namespace dinar::nn
