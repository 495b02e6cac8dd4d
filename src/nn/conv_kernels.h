// Cache-resident convolution lowering shared by Conv2d and Conv1d.
//
// A convolution is lowered image by image onto the raw-span gemm core
// (tensor/tensor.h, gemm_into). For image n with P = OH*OW output
// positions and a patch of CK = C*KH*KW inputs, the patch matrix is stored
// channel-major, cols_n[CK, P]: row q = (c, ky, kx) holds the input under
// kernel tap q for every output position. Each input plane is read through
// a per-thread copy with a zero border of PH rows and PW columns, so every
// row of cols is OH fixed-length runs of OW floats (contiguous for stride
// 1) with no bounds arithmetic, and padding reads the border's zeros. Per
// image:
//
//   forward   y_n[OC, P]   = W[OC, CK] x cols_n, then + bias in place
//   weights   dW[OC, CK]  += g_n[OC, P] x cols_n^T   (k = P, resumed)
//   input     t[CK, P]     = W^T x g_n, then col2im-added into dx_n
//
// g_n is grad_out's image n exactly as stored, and y_n is written straight
// into the [B, OC, OH, OW] output, so there is no gather or scatter pass.
//
// Buffers. Training keeps every image's cols_n in the layer's retained
// patch buffer ([B, CK, P], reused from step to step) for the weight
// gradient; an eval forward uses one cols_n-sized per-thread tile instead.
// The padded plane is per-thread, grows only, and is zeroed by each image
// that reads it, so a call never sees a border left by a call of another
// geometry. The input-gradient tile t is per-thread and per-image, so it is
// scattered into dx while still in L1/L2. The weight gradient accumulates
// in a [OC, CK] scratch before the single += into the layer's gradient.
//
// Bit-identity with the former [B*OH*OW, CK] lowering (kept in
// tests/conv_oracle_test.cpp as the oracle). Every output element keeps
// its IEEE operation sequence:
//   - forward and input-gradient elements are one gemm chain over the same
//     operands in the same ascending order; only the operand roles swap,
//     and a*b (or fma(a, b, acc)) is exactly commutative in a and b;
//   - dW elements chain over r = (n, oy, ox) in ascending order: each
//     image's gemm resumes the accumulator the previous image stored, and a
//     float accumulator survives the round trip through memory exactly;
//   - col2im visits kernel taps with ky and kx descending, so every dx
//     element receives its contributions in ascending (oy, ox) order, the
//     order of the former row-by-row scatter, starting from +0.0f. It adds
//     through the same padded plane, loaded with dx inside a zero border
//     and stored back; the padding taps' sums land in the border and are
//     dropped, as the former kernel skipped them;
//   - cols holds the same input bits, and +0.0f for every padding tap, as
//     the former per-row zero fill wrote;
//   - db sums each channel over ascending (n, oy, ox) into grad_bias;
//   - bias is added once to the finished dot product, as before.
// Padding taps are explicit zeros in cols (the products still happen) and
// discarded border adds in col2im, and no loop branches on a value, so NaN
// and Inf propagate exactly as in the former kernels.
//
// With an ExecutionContext, forward and the input gradient parallelize
// over whole images and the weight gradient over disjoint column ranges of
// dW (each element's chain stays in one task), so results are
// bit-identical for every thread count.
#pragma once

#include <cstdint>

#include "tensor/tensor.h"

namespace dinar::nn {

// Geometry of one convolution call over a [batch, in_ch, h, w] input. Conv1d
// is the h = 1, kernel_h = 1, padding_h = 0 case.
struct ConvShape {
  std::int64_t batch = 0, in_ch = 0, h = 0, w = 0;
  std::int64_t out_ch = 0;
  std::int64_t kernel_h = 0, kernel_w = 0, stride = 1;
  std::int64_t padding_h = 0, padding_w = 0;
  std::int64_t oh = 0, ow = 0;

  std::int64_t patch() const { return in_ch * kernel_h * kernel_w; }  // CK
  std::int64_t positions() const { return oh * ow; }                 // P
};

// The training forward's patch storage: grows `buffer` (never shrinks, so a
// short last batch reuses it without a fill) to hold s.batch patch
// matrices and returns its data.
float* retained_patches(Tensor& buffer, const ConvShape& s);

// y[B, OC, OH, OW] = conv(x) + bias, with weight read as [OC, CK]. When
// `cols` is non-null it receives every image's patch matrix
// ([B, CK, OH*OW], for conv_backward); otherwise a per-thread tile is used.
void conv_forward(const ConvShape& s, const float* x, const float* weight,
                  const float* bias, float* cols, float* y,
                  const ExecutionContext* exec);

// Given the patch matrices of the matching training forward, accumulates
// the weight and bias gradients (+=) and adds the input gradient into dx
// ([B, C, H, W], zero on entry). A null dx skips the input gradient.
void conv_backward(const ConvShape& s, const float* cols, const float* weight,
                   const float* grad_out, float* grad_weight, float* grad_bias,
                   float* dx, const ExecutionContext* exec);

}  // namespace dinar::nn
