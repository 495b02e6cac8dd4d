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

float* grown(std::vector<float>& v, std::int64_t floats) {
  if (v.size() < static_cast<std::size_t>(floats)) v.resize(static_cast<std::size_t>(floats));
  return v.data();
}

// What a call prepares on its calling thread before it fans out; its tasks
// only read these. Per thread, grow-only.
struct CallBuffers {
  std::vector<float> weights;  // packed W (forward) or W^T (input gradient)
  std::vector<float> padded;   // every image's zero-bordered planes (weight gradient)
  std::vector<float> grads;    // grad_out packed as the weight gradient's A operand
};

CallBuffers& call_buffers() {
  thread_local CallBuffers buffers;
  return buffers;
}

// What one task writes. Per thread, grow-only, and distinct from
// CallBuffers, so a caller that runs tasks of its own fan-out never writes
// what the other tasks read.
struct TaskBuffers {
  std::vector<float> planes;  // one image's zero-bordered planes
  std::vector<float> panels;  // packed B panels
  std::vector<float> tile;    // one image's gemm output
};

TaskBuffers& task_buffers() {
  thread_local TaskBuffers buffers;
  return buffers;
}

std::int64_t padded_h(const ConvShape& s) { return s.h + 2 * s.padding_h; }
std::int64_t padded_w(const ConvShape& s) { return s.w + 2 * s.padding_w; }
std::int64_t plane_floats(const ConvShape& s) { return padded_h(s) * padded_w(s); }
std::int64_t image_floats(const ConvShape& s) { return s.in_ch * plane_floats(s); }

// Offset of kernel tap q = (c, ky, kx) in one image's padded planes: the
// input under tap q at output position (oy, ox) lies at that offset plus
// (oy*wp + ox) * stride.
std::vector<std::int64_t> tap_offsets(const ConvShape& s) {
  std::vector<std::int64_t> taps;
  taps.reserve(static_cast<std::size_t>(s.patch()));
  for (std::int64_t c = 0; c < s.in_ch; ++c)
    for (std::int64_t ky = 0; ky < s.kernel_h; ++ky)
      for (std::int64_t kx = 0; kx < s.kernel_w; ++kx)
        taps.push_back(c * plane_floats(s) + ky * padded_w(s) + kx);
  return taps;
}

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

// Copies image x[C, H, W] into C planes of padded_h x padded_w floats,
// each with a zero border of PH rows and PW columns.
void pad_image(const ConvShape& s, const float* x, float* planes) {
  const std::int64_t wp = padded_w(s);
  std::fill(planes, planes + image_floats(s), 0.0f);
  for (std::int64_t c = 0; c < s.in_ch; ++c)
    copy_block(x + c * s.h * s.w, s.w,
               planes + c * plane_floats(s) + s.padding_h * wp + s.padding_w, wp, s.h, s.w);
}

// The forward gemm's B operand, cols_n[CK, ncols], packed straight from one
// image's padded planes. Column q of output row oy is q = oy*row + ox.
//   - Stride 1: row = padded_w, so column q of tap t reads planes[t + q] and
//     a panel's kGemmNR columns are one contiguous run of the plane. The
//     columns with ox >= OW are computed and dropped (see header).
//   - Otherwise: row = OW (only real positions), and each panel gathers its
//     columns through their window offsets. Lanes past ncols read the
//     planes' first element and are dropped.
void pack_image_panels(const ConvShape& s, const float* planes,
                       const std::vector<std::int64_t>& taps, std::int64_t ncols,
                       float* panels) {
  const std::int64_t ck = s.patch();
  for (std::int64_t j0 = 0; j0 < ncols; j0 += kGemmNR) {
    float* panel = panels + j0 * ck;
    if (s.stride == 1) {
      for (std::int64_t kk = 0; kk < ck; ++kk)
        std::memcpy(panel + kk * kGemmNR, planes + taps[static_cast<std::size_t>(kk)] + j0,
                    kGemmNR * sizeof(float));
      continue;
    }
    std::int64_t window[kGemmNR];
    for (std::int64_t j = 0; j < kGemmNR; ++j) {
      const std::int64_t q = j0 + j;
      window[j] = q < ncols ? (q / s.ow * padded_w(s) + q % s.ow) * s.stride : 0;
    }
    for (std::int64_t kk = 0; kk < ck; ++kk) {
      const float* src = planes + taps[static_cast<std::size_t>(kk)];
      float* dst = panel + kk * kGemmNR;
      for (std::int64_t j = 0; j < kGemmNR; ++j) dst[j] = src[window[j]];
    }
  }
}

// grad_out ([B, OC, P]) as the weight gradient's packed A operand: the
// logical [OC, B*P] matrix whose column (n, oy, ox) is image n's gradient
// at (oy, ox). Writes image n's P groups of every row-block; rows past OC
// repeat the last channel and feed only dropped rows. Each group is written
// whole, so the stores are contiguous.
void pack_image_grads(const ConvShape& s, const float* grad_out, std::int64_t n,
                      float* gpack) {
  const std::int64_t oc = s.out_ch, p = s.positions(), k = s.batch * p;
  for (std::int64_t rb = 0; rb * kGemmMR < oc; ++rb) {
    const float* rows[kGemmMR];
    for (std::int64_t r = 0; r < kGemmMR; ++r)
      rows[r] = grad_out + (n * oc + std::min(rb * kGemmMR + r, oc - 1)) * p;
    float* dst = gpack + rb * k * kGemmMR + n * p * kGemmMR;
    for (std::int64_t i = 0; i < p; ++i)
      for (std::int64_t r = 0; r < kGemmMR; ++r) dst[i * kGemmMR + r] = rows[r][i];
  }
}

// The weight gradient's B panel for taps [q0, q0 + width), packed straight
// from the batch's padded planes: group (n, oy, ox) holds those taps'
// inputs under output position (oy, ox) of image n; lanes past `width`
// repeat the panel's first tap and feed only dropped columns. Each group is
// written whole, so the stores are contiguous.
void pack_tap_panel(const ConvShape& s, const float* padded,
                    const std::vector<std::int64_t>& taps, std::int64_t q0,
                    std::int64_t width, float* panel) {
  const std::int64_t p = s.positions(), wp = padded_w(s), st = s.stride;
  std::int64_t offset[kGemmNR];
  for (std::int64_t j = 0; j < kGemmNR; ++j)
    offset[j] = taps[static_cast<std::size_t>(q0 + (j < width ? j : 0))];
  for (std::int64_t n = 0; n < s.batch; ++n) {
    const float* src = padded + n * image_floats(s);
    for (std::int64_t oy = 0; oy < s.oh; ++oy) {
      const float* row = src + oy * st * wp;
      float* out = panel + (n * p + oy * s.ow) * kGemmNR;
      for (std::int64_t ox = 0; ox < s.ow; ++ox)
        for (std::int64_t j = 0; j < kGemmNR; ++j)
          out[ox * kGemmNR + j] = row[offset[j] + ox * st];
    }
  }
}

// Writes one image's input gradient dx[C, H, W] from its tile t[CK, P]
// through a padded plane: per channel the plane starts at +0.0f, every tap
// adds its OH runs of OW floats, and the interior is stored to dx; the
// border collects the padding taps' products and is dropped. Taps run with
// ky and kx descending: a dx element is hit by at most one output position
// per tap, and descending taps mean its contributions arrive in ascending
// (oy, ox) order, the order bit-identity requires (see header).
void col2im_image(const ConvShape& s, const float* tile, float* plane, float* dx) {
  const std::int64_t p = s.positions(), wp = padded_w(s), st = s.stride;
  const float* interior = plane + s.padding_h * wp + s.padding_w;
  for (std::int64_t c = 0; c < s.in_ch; ++c) {
    std::fill(plane, plane + plane_floats(s), 0.0f);
    for (std::int64_t ky = s.kernel_h - 1; ky >= 0; --ky) {
      for (std::int64_t kx = s.kernel_w - 1; kx >= 0; --kx) {
        const float* row = tile + ((c * s.kernel_h + ky) * s.kernel_w + kx) * p;
        for (std::int64_t oy = 0; oy < s.oh; ++oy) {
          const float* in = row + oy * s.ow;
          float* out = plane + (oy * st + ky) * wp + kx;
          // No skip-zero shortcut: adding an exact 0.0f must still happen
          // so signed zeros and NaN/Inf behave as in a branch-free SIMD add.
          if (st == 1) {
            for (std::int64_t ox = 0; ox < s.ow; ++ox) out[ox] += in[ox];
          } else {
            for (std::int64_t ox = 0; ox < s.ow; ++ox) out[ox * st] += in[ox];
          }
        }
      }
    }
    copy_block(interior, wp, dx + c * s.h * s.w, s.w, s.h, s.w);
  }
}

// db: each channel sums its gradient over ascending (n, oy, ox), starting
// from its current value. Eight channels run side by side, each chain in
// its own accumulator, so their adds overlap instead of each waiting on the
// one before; the order within every chain is unchanged.
void bias_gradient(const ConvShape& s, const float* grad_out, float* grad_bias,
                   const ExecutionContext* exec) {
  constexpr std::int64_t kLanes = 8;
  const std::int64_t oc = s.out_ch, p = s.positions();
  run_range((oc + kLanes - 1) / kLanes, exec, grain_for(kLanes * s.batch * p),
            [&](std::int64_t g0, std::int64_t g1) {
              for (std::int64_t g = g0; g < g1; ++g) {
                const std::int64_t ch0 = g * kLanes;
                if (oc - ch0 < kLanes) {
                  for (std::int64_t ch = ch0; ch < oc; ++ch) {
                    float acc = grad_bias[ch];
                    for (std::int64_t n = 0; n < s.batch; ++n) {
                      const float* gn = grad_out + (n * oc + ch) * p;
                      for (std::int64_t i = 0; i < p; ++i) acc += gn[i];
                    }
                    grad_bias[ch] = acc;
                  }
                  continue;
                }
                float acc[kLanes];
                for (std::int64_t j = 0; j < kLanes; ++j) acc[j] = grad_bias[ch0 + j];
                for (std::int64_t n = 0; n < s.batch; ++n) {
                  const float* gn = grad_out + (n * oc + ch0) * p;
                  for (std::int64_t i = 0; i < p; ++i)
                    for (std::int64_t j = 0; j < kLanes; ++j) acc[j] += gn[j * p + i];
                }
                for (std::int64_t j = 0; j < kLanes; ++j) grad_bias[ch0 + j] = acc[j];
              }
            });
}

// dW[OC, CK] += grad_out x cols^T as one gemm whose reduction axis is every
// (n, oy, ox) of the batch, in that order. The batch is padded once and
// grad_out packed once, then tasks own disjoint 8-tap panels of dW: each
// packs its panel from the padded planes and runs the whole chain.
void weight_gradient(const ConvShape& s, const float* x, const float* grad_out,
                     float* grad_weight, const ExecutionContext* exec, GemmKernel kernel) {
  const std::int64_t ck = s.patch(), p = s.positions(), oc = s.out_ch;
  const std::int64_t k = s.batch * p;
  const std::vector<std::int64_t> taps = tap_offsets(s);
  CallBuffers& call = call_buffers();
  float* padded = grown(call.padded, s.batch * image_floats(s));
  float* gpack = grown(call.grads, gemm_packed_a_floats(oc, k));
  run_range(s.batch, exec, grain_for(image_floats(s) + oc * p),
            [&](std::int64_t n0, std::int64_t n1) {
              for (std::int64_t n = n0; n < n1; ++n) {
                pad_image(s, x + n * s.in_ch * s.h * s.w, padded + n * image_floats(s));
                pack_image_grads(s, grad_out, n, gpack);
              }
            });

  std::vector<float> dw(static_cast<std::size_t>(oc * ck), 0.0f);
  run_range((ck + kGemmNR - 1) / kGemmNR, exec, grain_for(oc * kGemmNR * k),
            [&](std::int64_t b0, std::int64_t b1) {
              float* panel = grown(task_buffers().panels, k * kGemmNR);
              for (std::int64_t bj = b0; bj < b1; ++bj) {
                const std::int64_t q0 = bj * kGemmNR;
                const std::int64_t width = std::min(kGemmNR, ck - q0);
                pack_tap_panel(s, padded, taps, q0, width, panel);
                gemm_packed(oc, width, k, gpack, panel, dw.data() + q0, ck,
                            /*accumulate=*/false, kernel);
              }
            });
  for (std::int64_t i = 0; i < oc * ck; ++i) grad_weight[i] += dw[static_cast<std::size_t>(i)];
}

// dx: per image, t = W^T g_n, written into dx_n while it is still cached.
void input_gradient(const ConvShape& s, const float* weight, const float* grad_out,
                    float* dx, const ExecutionContext* exec, GemmKernel kernel) {
  const std::int64_t ck = s.patch(), p = s.positions(), oc = s.out_ch;
  float* wt = grown(call_buffers().weights, gemm_packed_a_floats(ck, oc));
  gemm_pack_a(Trans::kT, ck, oc, weight, ck, wt);
  run_range(s.batch, exec, grain_for(oc * ck * p), [&](std::int64_t n0, std::int64_t n1) {
    TaskBuffers& task = task_buffers();
    float* panels = grown(task.panels, gemm_packed_b_floats(oc, p));
    float* tile = grown(task.tile, ck * p);
    float* plane = grown(task.planes, plane_floats(s));
    for (std::int64_t n = n0; n < n1; ++n) {
      gemm_pack_b(Trans::kN, oc, p, grad_out + n * oc * p, p, panels);
      gemm_packed(ck, p, oc, wt, panels, tile, p, /*accumulate=*/false, kernel);
      col2im_image(s, tile, plane, dx + n * s.in_ch * s.h * s.w);
    }
  });
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

void conv_forward(const ConvShape& s, const float* x, const float* weight,
                  const float* bias, float* y, const ExecutionContext* exec) {
  check_shape(s);
  const std::int64_t ck = s.patch(), p = s.positions(), oc = s.out_ch;
  const GemmKernel kernel = active_gemm_kernel();
  const std::vector<std::int64_t> taps = tap_offsets(s);
  float* w = grown(call_buffers().weights, gemm_packed_a_floats(oc, ck));
  gemm_pack_a(Trans::kN, oc, ck, weight, ck, w);
  // Column stride between output rows, and the column count (see
  // pack_image_panels).
  const std::int64_t row = s.stride == 1 ? padded_w(s) : s.ow;
  const std::int64_t ncols = (s.oh - 1) * row + s.ow;
  run_range(s.batch, exec, grain_for(oc * ck * p), [&](std::int64_t n0, std::int64_t n1) {
    TaskBuffers& task = task_buffers();
    // Stride-1 panels read up to kGemmNR - 1 floats past the last plane;
    // they only feed dropped columns, and are zeroed here.
    float* planes = grown(task.planes, image_floats(s) + kGemmNR);
    std::fill(planes + image_floats(s), planes + image_floats(s) + kGemmNR, 0.0f);
    float* panels = grown(task.panels, gemm_packed_b_floats(ck, ncols));
    float* out = grown(task.tile, oc * ncols);
    for (std::int64_t n = n0; n < n1; ++n) {
      pad_image(s, x + n * s.in_ch * s.h * s.w, planes);
      pack_image_panels(s, planes, taps, ncols, panels);
      gemm_packed(oc, ncols, ck, w, panels, out, ncols, /*accumulate=*/false, kernel);
      float* yn = y + n * oc * p;
      for (std::int64_t ch = 0; ch < oc; ++ch) {
        const float b = bias[ch];
        for (std::int64_t oy = 0; oy < s.oh; ++oy) {
          const float* src = out + ch * ncols + oy * row;
          float* dst = yn + ch * p + oy * s.ow;
          for (std::int64_t ox = 0; ox < s.ow; ++ox) dst[ox] = src[ox] + b;
        }
      }
    }
  });
}

void conv_backward(const ConvShape& s, const float* x, const float* weight,
                   const float* grad_out, float* grad_weight, float* grad_bias,
                   float* dx, const ExecutionContext* exec) {
  check_shape(s);
  const GemmKernel kernel = active_gemm_kernel();
  bias_gradient(s, grad_out, grad_bias, exec);
  weight_gradient(s, x, grad_out, grad_weight, exec, kernel);
  if (dx != nullptr) input_gradient(s, weight, grad_out, dx, exec, kernel);
}

}  // namespace dinar::nn
