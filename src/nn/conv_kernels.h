// Implicit-GEMM convolution shared by Conv2d and Conv1d.
//
// A convolution is lowered image by image onto the packed-operand gemm
// (tensor/tensor.h, gemm_packed). For image n with P = OH*OW output
// positions and a patch of CK = C*KH*KW inputs, the patch matrix
// cols_n[CK, P] has row q = (c, ky, kx) holding the input under kernel tap
// q at every output position. It is never stored: each image's C planes
// are copied once into a per-thread buffer with a zero border of PH rows
// and PW columns, and the gemm's packed panels are written straight from
// those planes, so padding reads the border's zeros. Per image:
//
//   forward   y_n[OC, P]   = W[OC, CK] x cols_n, then + bias
//   weights   dW[OC, CK]  += g[OC, B*P] x cols^T   (one chain over the batch)
//   input     t[CK, P]     = W^T x g_n, then col2im-written into dx_n
//
// g_n is grad_out's image n exactly as stored.
//
// Packing. The forward's B panels come from the image's planes: with
// stride 1 the gemm runs over columns q = oy*(W + 2*PW) + ox, so a panel's
// kGemmNR columns under one tap are one contiguous run of a plane and pack
// as a single copy. The OW..W+2*PW-1 columns of each output row are
// computed and dropped (166 columns for 144 positions at 12x12 with
// padding 1, 46 for 36 at 6x6); the edge panel is padded to the SIMD width
// like every gemm panel. Other strides
// gather real positions only. The weight gradient pads the whole batch
// once, packs grad_out once as the A operand of the logical [OC, B*P]
// matrix, and each task packs the cols^T panel of its 8 taps from the
// padded planes. W (and W^T) are packed once per call.
//
// Buffers. A layer keeps its training input (moved in, not copied) and
// nothing else; backward re-reads it. Packed weights, the padded batch and
// the packed gradient belong to the calling thread; planes, panels and
// gemm tiles to each task's thread. All are per-thread and only grow, and
// every user writes what it reads, so a call never sees a border or a panel
// left by a call of another geometry.
//
// Bit-identity with the former [B*OH*OW, CK] lowering (kept in
// tests/conv_oracle_test.cpp as the oracle). Every output element keeps
// its IEEE operation sequence:
//   - forward and input-gradient elements are one gemm chain over the same
//     operands in ascending k; only the operand roles swap, and a*b (or
//     fma(a, b, acc)) is exactly commutative in a and b. A dropped column
//     is its own chain and never meets a kept one;
//   - dW elements chain over r = (n, oy, ox) in ascending order, from +0.0f,
//     in one gemm call over the batch, exactly the chain of the former
//     image-by-image resumed calls; the sum is then added to grad_weight;
//   - col2im visits kernel taps with ky and kx descending, so every dx
//     element receives its contributions in ascending (oy, ox) order, the
//     order of the former row-by-row scatter, starting from +0.0f. The
//     padding taps' sums land in the plane's border and are dropped, as the
//     former kernel skipped them;
//   - packed panels hold the same input bits, and +0.0f for every padding
//     tap, as the former per-row zero fill wrote;
//   - db sums each channel over ascending (n, oy, ox) into grad_bias;
//   - bias is added once to the finished dot product, as before.
// Padding taps are explicit zeros in the panels (the products still
// happen) and discarded border adds in col2im, and no loop branches on a
// value, so NaN and Inf propagate exactly as in the former kernels.
//
// With an ExecutionContext, forward and the input gradient parallelize
// over whole images, the weight gradient over disjoint 8-tap panels of dW
// and the bias gradient over groups of 8 channels (each element's chain
// stays in one task), so results are bit-identical for every thread count.
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

// y[B, OC, OH, OW] = conv(x) + bias, with weight read as [OC, CK].
void conv_forward(const ConvShape& s, const float* x, const float* weight,
                  const float* bias, float* y, const ExecutionContext* exec);

// Given the forward's input x, accumulates the weight and bias gradients
// (+=) and writes the input gradient into dx ([B, C, H, W]). A null dx
// skips the input gradient.
void conv_backward(const ConvShape& s, const float* x, const float* weight,
                   const float* grad_out, float* grad_weight, float* grad_bias,
                   float* dx, const ExecutionContext* exec);

}  // namespace dinar::nn
