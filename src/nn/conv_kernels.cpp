#include "nn/conv_kernels.h"

#include <algorithm>
#include <cstring>
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

// One image's input plane with its zero border: (H + 2*PH) x (W + 2*PW)
// floats, per thread. Only ever grows; every user zeroes what it reads.
float* thread_plane(std::size_t floats) {
  thread_local std::vector<float> plane;
  if (plane.size() < floats) plane.resize(floats);
  return plane.data();
}

std::int64_t padded_h(const ConvShape& s) { return s.h + 2 * s.padding_h; }
std::int64_t padded_w(const ConvShape& s) { return s.w + 2 * s.padding_w; }

// dst[0, n) = src[0, n) for non-overlapping rows, in 16-byte moves with
// one overlapping move for the tail. A plain copy loop compiles to a
// memmove call per row, which costs more than the few floats it moves.
void copy_row(const float* src, float* dst, std::int64_t n) {
  constexpr std::int64_t kLane = 4;
  if (n < kLane) {
    for (std::int64_t i = 0; i < n; ++i) dst[i] = src[i];
    return;
  }
  for (std::int64_t i = 0; i < n - kLane; i += kLane)
    std::memcpy(dst + i, src + i, kLane * sizeof(float));
  std::memcpy(dst + n - kLane, src + n - kLane, kLane * sizeof(float));
}

// Copies a rows x n block between row strides src_ld and dst_ld.
void copy_block(const float* src, std::int64_t src_ld, float* dst, std::int64_t dst_ld,
                std::int64_t rows, std::int64_t n) {
  for (std::int64_t r = 0; r < rows; ++r) copy_row(src + r * src_ld, dst + r * dst_ld, n);
}

// cols[CK, P] for one image x[C, H, W]: row q = (c, ky, kx), column
// (oy, ox) = x[c][oy*s + ky - ph][ox*s + kx - pw], zero outside the input.
// Each plane is copied into the interior of the zero-bordered `plane`
// (padded_h x padded_w), so every row of cols is OH runs of OW floats read
// at a fixed offset, with no bounds arithmetic. The border is zeroed once
// per image: the interior copies never touch it.
void im2col_image(const ConvShape& s, const float* x, float* plane, float* cols) {
  const std::int64_t p = s.positions(), wp = padded_w(s), st = s.stride;
  float* interior = plane + s.padding_h * wp + s.padding_w;
  std::fill(plane, plane + padded_h(s) * wp, 0.0f);
  for (std::int64_t c = 0; c < s.in_ch; ++c) {
    copy_block(x + c * s.h * s.w, s.w, interior, wp, s.h, s.w);
    for (std::int64_t ky = 0; ky < s.kernel_h; ++ky) {
      for (std::int64_t kx = 0; kx < s.kernel_w; ++kx) {
        float* row = cols + ((c * s.kernel_h + ky) * s.kernel_w + kx) * p;
        const float* tap = plane + ky * wp + kx;
        if (st == 1) {
          copy_block(tap, wp, row, s.ow, s.oh, s.ow);
          continue;
        }
        for (std::int64_t oy = 0; oy < s.oh; ++oy)
          for (std::int64_t ox = 0; ox < s.ow; ++ox)
            row[oy * s.ow + ox] = tap[(oy * wp + ox) * st];
      }
    }
  }
}

// Adds one image's input-gradient tile t[CK, P] into dx[C, H, W] through
// the same padded plane: each plane is loaded with dx inside a zero border,
// every tap adds its OH runs of OW floats, and the interior is stored back;
// the border collects the padding taps' products and is dropped. Taps run
// with ky and kx descending: a dx element is hit by at most one output
// position per tap, and descending taps mean its contributions arrive in
// ascending (oy, ox) order, the order bit-identity requires (see header).
void col2im_image(const ConvShape& s, const float* tile, float* plane, float* dx) {
  const std::int64_t p = s.positions(), wp = padded_w(s), st = s.stride;
  float* interior = plane + s.padding_h * wp + s.padding_w;
  for (std::int64_t c = 0; c < s.in_ch; ++c) {
    float* dxc = dx + c * s.h * s.w;
    std::fill(plane, plane + padded_h(s) * wp, 0.0f);
    copy_block(dxc, s.w, interior, wp, s.h, s.w);
    for (std::int64_t ky = s.kernel_h - 1; ky >= 0; --ky) {
      for (std::int64_t kx = s.kernel_w - 1; kx >= 0; --kx) {
        const float* row = tile + ((c * s.kernel_h + ky) * s.kernel_w + kx) * p;
        for (std::int64_t oy = 0; oy < s.oh; ++oy) {
          const float* in = row + oy * s.ow;
          float* out = plane + (oy * st + ky) * wp + kx;
          // No skip-zero shortcut: adding an exact 0.0f must still happen
          // so signed zeros and NaN/Inf already in dx behave as in a
          // branch-free SIMD add.
          if (st == 1) {
            for (std::int64_t ox = 0; ox < s.ow; ++ox) out[ox] += in[ox];
          } else {
            for (std::int64_t ox = 0; ox < s.ow; ++ox) out[ox * st] += in[ox];
          }
        }
      }
    }
    copy_block(interior, wp, dxc, s.w, s.h, s.w);
  }
}

void check_shape(const ConvShape& s) {
  DINAR_CHECK(s.batch >= 0 && s.in_ch >= 1 && s.out_ch >= 1 && s.h >= 1 && s.w >= 1 &&
                  s.kernel_h >= 1 && s.kernel_w >= 1 && s.stride >= 1 &&
                  s.padding_h >= 0 && s.padding_w >= 0 && s.oh >= 1 && s.ow >= 1,
              "invalid convolution geometry");
  // The lowering reads every tap inside the padded plane, so the kernel
  // must fit it and OH, OW must be the floor output extents.
  const std::int64_t span_h = padded_h(s) - s.kernel_h, span_w = padded_w(s) - s.kernel_w;
  DINAR_CHECK(span_h >= 0 && span_w >= 0 && s.oh == span_h / s.stride + 1 &&
                  s.ow == span_w / s.stride + 1,
              "convolution kernel larger than its padded input, or output extent mismatch");
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
              float* plane = thread_plane(static_cast<std::size_t>(padded_h(s) * padded_w(s)));
              for (std::int64_t n = n0; n < n1; ++n) {
                float* cn = cols != nullptr ? cols + n * ck * p : tile;
                im2col_image(s, x + n * s.in_ch * s.h * s.w, plane, cn);
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
    float* plane = thread_plane(static_cast<std::size_t>(padded_h(s) * padded_w(s)));
    for (std::int64_t n = n0; n < n1; ++n) {
      gemm_into(Trans::kT, Trans::kN, ck, p, oc, weight, ck, grad_out + n * oc * p, p,
                tile, p, /*accumulate=*/false, nullptr, kernel);
      col2im_image(s, tile, plane, dx + n * s.in_ch * s.h * s.w);
    }
  });
}

}  // namespace dinar::nn
