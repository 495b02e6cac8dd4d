// Bit-for-bit oracle for the convolution lowering (nn/conv_kernels.h).
//
// The reference below is the earlier lowering, kept only here: the whole
// [B*OH*OW, C*KH*KW] patch matrix (im2col), one gemm against the weights,
// a scatter of the [B*OH*OW, OC] rows into the activation layout; in
// backward a gather of grad_out into rows, dW = g^T x cols, db by
// ascending rows, and dcols = g x W scattered back row by row (col2im).
// Conv2d, Conv1d and ResidualBlock must reproduce its forward output, dW,
// db and dx bit for bit, for every thread count. Both sides call the
// process's dispatched gemm tier; the scalar-pinned ctest leg re-runs this
// suite with DINAR_GEMM_KERNEL=scalar.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "nn/activations.h"
#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/residual.h"
#include "util/execution_context.h"

namespace dinar::nn {
namespace {

// ------------------------------------------------------------ reference --

struct Geometry {
  std::int64_t kh, kw, stride, ph, pw, oh, ow;
};

// [B, C, H, W] -> [B*OH*OW, C*KH*KW], row r = (b, oy, ox), columns (c, ky, kx).
Tensor ref_im2col(const Tensor& x, const Geometry& g) {
  const std::int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t ck = c * g.kh * g.kw;
  Tensor cols({b * g.oh * g.ow, ck});
  float* out = cols.data();
  for (std::int64_t r = 0; r < b * g.oh * g.ow; ++r) {
    const std::int64_t n = r / (g.oh * g.ow);
    const std::int64_t oy = (r / g.ow) % g.oh;
    const std::int64_t ox = r % g.ow;
    for (std::int64_t ic = 0; ic < c; ++ic)
      for (std::int64_t ky = 0; ky < g.kh; ++ky)
        for (std::int64_t kx = 0; kx < g.kw; ++kx) {
          const std::int64_t iy = oy * g.stride + ky - g.ph;
          const std::int64_t ix = ox * g.stride + kx - g.pw;
          const bool inside = iy >= 0 && iy < h && ix >= 0 && ix < w;
          *out++ = inside ? x.at(((n * c + ic) * h + iy) * w + ix) : 0.0f;
        }
  }
  return cols;
}

// Scatter-add of dcols rows into dx, rows in ascending (b, oy, ox) order.
void ref_col2im(const Tensor& dcols, Tensor& dx, const Geometry& g) {
  const std::int64_t b = dx.dim(0), c = dx.dim(1), h = dx.dim(2), w = dx.dim(3);
  const float* in = dcols.data();
  for (std::int64_t n = 0; n < b; ++n)
    for (std::int64_t oy = 0; oy < g.oh; ++oy)
      for (std::int64_t ox = 0; ox < g.ow; ++ox)
        for (std::int64_t ic = 0; ic < c; ++ic)
          for (std::int64_t ky = 0; ky < g.kh; ++ky)
            for (std::int64_t kx = 0; kx < g.kw; ++kx) {
              const std::int64_t iy = oy * g.stride + ky - g.ph;
              const std::int64_t ix = ox * g.stride + kx - g.pw;
              const float v = *in++;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                dx.at(((n * c + ic) * h + iy) * w + ix) += v;
            }
}

// One convolution layer computed the reference way, with the same
// forward-caches / backward-accumulates contract as nn::Layer.
class RefConv {
 public:
  RefConv(const Tensor& weight, const Tensor& bias, const Tensor& grad_weight,
          const Tensor& grad_bias, std::int64_t stride, std::int64_t ph, std::int64_t pw)
      : weight_(weight.reshaped({weight.dim(0), weight.numel() / weight.dim(0)})),
        bias_(bias), grad_weight_(grad_weight.reshaped(weight_.shape())),
        grad_bias_(grad_bias), kh_(weight.rank() == 4 ? weight.dim(2) : 1),
        kw_(weight.dim(weight.rank() - 1)), stride_(stride), ph_(ph), pw_(pw) {}

  // x is [B, C, H, W]; returns [B, OC, OH, OW].
  Tensor forward(const Tensor& x) {
    const std::int64_t oc = weight_.dim(0);
    geo_ = {kh_, kw_, stride_, ph_, pw_, (x.dim(2) + 2 * ph_ - kh_) / stride_ + 1,
            (x.dim(3) + 2 * pw_ - kw_) / stride_ + 1};
    input_shape_ = x.shape();
    cols_ = ref_im2col(x, geo_);
    const Tensor rows = gemm(Trans::kN, Trans::kT, cols_, weight_);
    const std::int64_t b = x.dim(0), p = geo_.oh * geo_.ow;
    Tensor y({b, oc, geo_.oh, geo_.ow});
    for (std::int64_t r = 0; r < b * p; ++r)
      for (std::int64_t ch = 0; ch < oc; ++ch)
        y.at((r / p * oc + ch) * p + r % p) = rows.at(r, ch) + bias_.at(ch);
    return y;
  }

  Tensor backward(const Tensor& grad_out) {
    const std::int64_t oc = weight_.dim(0), b = input_shape_[0];
    const std::int64_t p = geo_.oh * geo_.ow;
    Tensor gmat({b * p, oc});
    for (std::int64_t r = 0; r < b * p; ++r)
      for (std::int64_t ch = 0; ch < oc; ++ch)
        gmat.at(r, ch) = grad_out.at((r / p * oc + ch) * p + r % p);
    grad_weight_ += gemm(Trans::kT, Trans::kN, gmat, cols_);
    for (std::int64_t ch = 0; ch < oc; ++ch)
      for (std::int64_t r = 0; r < b * p; ++r) grad_bias_.at(ch) += gmat.at(r, ch);
    const Tensor dcols = gemm(Trans::kN, Trans::kN, gmat, weight_);
    Tensor dx(input_shape_);
    ref_col2im(dcols, dx, geo_);
    return dx;
  }

  const Tensor& grad_weight() const { return grad_weight_; }
  const Tensor& grad_bias() const { return grad_bias_; }

 private:
  Tensor weight_, bias_, grad_weight_, grad_bias_;
  std::int64_t kh_, kw_, stride_, ph_, pw_;
  Geometry geo_{};
  Shape input_shape_;
  Tensor cols_;
};

// ------------------------------------------------------------- helpers --

void expect_bits_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.numel(), want.numel()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << what;
}

// Gradients start non-zero so the layers' += accumulation is compared too.
void seed_grads(Layer& layer, std::uint64_t seed) {
  Rng rng(seed);
  for (ParamGroup& g : layer.param_groups())
    for (Tensor* t : g.grads) *t = Tensor::gaussian(t->shape(), rng, 0.1f);
}

RefConv reference_for(Layer& conv, std::int64_t stride, std::int64_t ph, std::int64_t pw) {
  ParamGroup g = conv.param_groups().at(0);
  return RefConv(*g.params[0], *g.params[1], *g.grads[0], *g.grads[1], stride, ph, pw);
}

Tensor as_4d(const Tensor& t) {
  return t.rank() == 4 ? t : t.reshaped({t.dim(0), t.dim(1), 1, t.dim(2)});
}

struct LayerRun {
  Tensor y, dx;
  std::vector<Tensor> grads;
};

LayerRun run_layer(const Layer& proto, const Tensor& x, const Tensor& grad_out,
                   const ExecutionContext* exec) {
  std::unique_ptr<Layer> layer = proto.clone();
  layer->set_execution_context(exec);
  LayerRun run;
  run.y = layer->forward(x, /*train=*/true);
  run.dx = layer->backward(grad_out);
  for (ParamGroup& g : layer->param_groups())
    for (Tensor* t : g.grads) run.grads.push_back(*t);
  return run;
}

std::vector<std::unique_ptr<ExecutionContext>> thread_contexts() {
  std::vector<std::unique_ptr<ExecutionContext>> contexts;
  for (const unsigned threads : {1u, 2u, 4u}) {
    ExecConfig cfg;
    cfg.threads = threads;
    contexts.push_back(std::make_unique<ExecutionContext>(cfg));
  }
  return contexts;
}

// Runs `conv` at 1, 2 and 4 threads and compares everything to RefConv.
void check_conv(const Layer& conv, const Tensor& x, std::int64_t stride, std::int64_t ph,
                std::int64_t pw, const std::string& what) {
  std::unique_ptr<Layer> seeded = conv.clone();
  seed_grads(*seeded, 99);
  RefConv ref = reference_for(*seeded, stride, ph, pw);
  const Tensor y_ref = ref.forward(as_4d(x));
  Rng rng(5);
  const Tensor grad_out = Tensor::gaussian(y_ref.shape(), rng);
  const Tensor dx_ref = ref.backward(grad_out);

  for (const auto& exec : thread_contexts()) {
    const std::string at = what + " @ " + std::to_string(exec->threads()) + " threads";
    const LayerRun run =
        run_layer(*seeded, x, x.rank() == 4 ? grad_out : grad_out.reshaped(
                                                             {y_ref.dim(0), y_ref.dim(1),
                                                              y_ref.dim(3)}),
                  exec.get());
    expect_bits_equal(run.y, y_ref, at + ": y");
    expect_bits_equal(run.grads.at(0), ref.grad_weight(), at + ": dW");
    expect_bits_equal(run.grads.at(1), ref.grad_bias(), at + ": db");
    expect_bits_equal(run.dx, dx_ref, at + ": dx");
  }
}

// --------------------------------------------------------------- tests --

TEST(ConvOracleTest, Conv2dGeometrySweepIsBitIdentical) {
  struct Map {
    std::int64_t h, w;
  };
  // Non-square maps; batch 1 and 3 give B*OH*OW values that are not
  // multiples of the 8-row gemm block.
  for (const Map map : {Map{7, 5}, Map{6, 9}})
    for (const std::int64_t batch : {1, 3})
      for (const std::int64_t kernel : {1, 3, 5})
        for (const std::int64_t stride : {1, 2})
          for (const std::int64_t padding : {0, 1, 2}) {
            if ((map.w + 2 * padding - kernel) < 0 || (map.h + 2 * padding - kernel) < 0)
              continue;
            Rng rng(static_cast<std::uint64_t>(kernel * 100 + stride * 10 + padding));
            const Conv2d conv(3, 5, kernel, stride, padding, rng);
            const Tensor x = Tensor::gaussian({batch, 3, map.h, map.w}, rng);
            std::string label = "k";
            label.append(std::to_string(kernel)).append(" s").append(std::to_string(stride));
            label.append(" p").append(std::to_string(padding)).append(" ");
            label.append(std::to_string(batch)).append("x").append(std::to_string(map.h));
            label.append("x").append(std::to_string(map.w));
            check_conv(conv, x, stride, padding, padding, label);
          }
}

TEST(ConvOracleTest, Conv2dVggSmallLayersAtBatch64AreBitIdentical) {
  // The four convolutions of VggSmall on 12x12x3 inputs, plus a strided
  // non-square one whose 64*OH*OW is not a multiple of 8 rows per image.
  struct Case {
    std::int64_t in, out, h, w, kernel, stride, padding;
  };
  for (const Case c : {Case{3, 8, 12, 12, 3, 1, 1}, Case{8, 8, 12, 12, 3, 1, 1},
                       Case{8, 16, 6, 6, 3, 1, 1}, Case{16, 16, 6, 6, 3, 1, 1},
                       Case{8, 12, 7, 5, 3, 2, 1}}) {
    Rng rng(static_cast<std::uint64_t>(c.in * 31 + c.out));
    const Conv2d conv(c.in, c.out, c.kernel, c.stride, c.padding, rng);
    const Tensor x = Tensor::gaussian({64, c.in, c.h, c.w}, rng);
    check_conv(conv, x, c.stride, c.padding, c.padding, conv.name());
  }
}

TEST(ConvOracleTest, Conv1dM5AudioLayersAreBitIdentical) {
  struct Case {
    std::int64_t in, out, length, kernel, stride, padding;
  };
  // M5Audio on 256-sample waveforms: k16/s4 front end, then k3 layers on
  // the pooled lengths; batch 1 and 64.
  for (const std::int64_t batch : {1, 64})
    for (const Case c : {Case{1, 8, 256, 16, 4, 0}, Case{8, 16, 15, 3, 1, 1},
                         Case{16, 32, 3, 3, 1, 1}, Case{32, 32, 3, 3, 1, 1},
                         Case{2, 3, 11, 5, 2, 2}}) {
      Rng rng(static_cast<std::uint64_t>(c.length * 7 + c.kernel));
      const Conv1d conv(c.in, c.out, c.kernel, c.stride, c.padding, rng);
      const Tensor x = Tensor::gaussian({batch, c.in, c.length}, rng);
      check_conv(conv, x, c.stride, 0, c.padding, conv.name() + " b" + std::to_string(batch));
    }
}

TEST(ConvOracleTest, ResidualBlockMatchesReferenceComposition) {
  for (const std::int64_t stride : {1, 2}) {
    Rng rng(static_cast<std::uint64_t>(40 + stride));
    ResidualBlock proto(8, 16, stride, rng);
    seed_grads(proto, 7);
    const Tensor x = Tensor::gaussian({64, 8, 12, 12}, rng);

    // Reference: the block's own composition with RefConv in place of each
    // Conv2d (groups are conv1, conv2, proj).
    std::vector<ParamGroup> groups = proto.param_groups();
    ASSERT_EQ(groups.size(), 3u);
    RefConv conv1(*groups[0].params[0], *groups[0].params[1], *groups[0].grads[0],
                  *groups[0].grads[1], stride, 1, 1);
    RefConv conv2(*groups[1].params[0], *groups[1].params[1], *groups[1].grads[0],
                  *groups[1].grads[1], 1, 1, 1);
    RefConv proj(*groups[2].params[0], *groups[2].params[1], *groups[2].grads[0],
                 *groups[2].grads[1], stride, 0, 0);
    ReLU relu_mid, relu_out;
    Tensor h = relu_mid.forward(conv1.forward(x), true);
    h = conv2.forward(h);
    h += proj.forward(x);
    const Tensor y_ref = relu_out.forward(h, true);
    Rng grng(3);
    const Tensor grad_out = Tensor::gaussian(y_ref.shape(), grng);
    const Tensor g = relu_out.backward(grad_out);
    const Tensor g_skip = proj.backward(g);
    Tensor dx_ref = conv1.backward(relu_mid.backward(conv2.backward(g)));
    dx_ref += g_skip;

    for (const auto& exec : thread_contexts()) {
      const std::string at = proto.name() + " @ " + std::to_string(exec->threads());
      const LayerRun run = run_layer(proto, x, grad_out, exec.get());
      expect_bits_equal(run.y, y_ref, at + ": y");
      expect_bits_equal(run.dx, dx_ref, at + ": dx");
      ASSERT_EQ(run.grads.size(), 6u);
      expect_bits_equal(run.grads[0], conv1.grad_weight(), at + ": conv1 dW");
      expect_bits_equal(run.grads[1], conv1.grad_bias(), at + ": conv1 db");
      expect_bits_equal(run.grads[2], conv2.grad_weight(), at + ": conv2 dW");
      expect_bits_equal(run.grads[3], conv2.grad_bias(), at + ": conv2 db");
      expect_bits_equal(run.grads[4], proj.grad_weight(), at + ": proj dW");
      expect_bits_equal(run.grads[5], proj.grad_bias(), at + ": proj db");
    }
  }
}

TEST(ConvOracleTest, EvalForwardMatchesTrainingForward) {
  // Eval uses a per-thread tile instead of the retained patch buffer, and
  // must not disturb what a pending backward reads.
  Rng rng(11);
  Conv2d conv(4, 8, 3, 1, 1, rng);
  const Tensor x = Tensor::gaussian({5, 4, 9, 7}, rng);
  const Tensor other = Tensor::gaussian({2, 4, 9, 7}, rng);
  const Tensor y_train = conv.forward(x, true);
  expect_bits_equal(conv.forward(x, false), y_train, "eval vs train forward");
  const Tensor g = Tensor::gaussian(y_train.shape(), rng);
  std::unique_ptr<Layer> twin = conv.clone();
  (void)conv.forward(other, false);
  expect_bits_equal(conv.backward(g), twin->backward(g), "backward after an eval forward");
}

TEST(ConvOracleTest, NanAndInfPropagateLikeTheReference) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Rng rng(13);
  const Conv2d proto(2, 3, 3, 1, 1, rng);
  Tensor x = Tensor::gaussian({2, 2, 6, 5}, rng);
  x.at(((0 * 2 + 0) * 6 + 2) * 5 + 2) = nan;  // image 0, interior
  x.at(((1 * 2 + 1) * 6 + 0) * 5 + 4) = inf;  // image 1, corner
  std::unique_ptr<Layer> conv = proto.clone();
  RefConv ref = reference_for(*conv, 1, 1, 1);
  const Tensor y_ref = ref.forward(x);
  Tensor grad_out = Tensor::gaussian(y_ref.shape(), rng);
  grad_out.at(7) = inf;
  grad_out.at(y_ref.numel() - 3) = nan;
  const Tensor dx_ref = ref.backward(grad_out);

  const Tensor y = conv->forward(x, true);
  const Tensor dx = conv->backward(grad_out);
  const ParamGroup g = conv->param_groups().at(0);
  // Same class (NaN / +-Inf / finite bits) at every element.
  const auto expect_same = [](const Tensor& got, const Tensor& want, const char* what) {
    ASSERT_EQ(got.numel(), want.numel());
    std::int64_t nans = 0;
    for (std::int64_t i = 0; i < got.numel(); ++i) {
      const float g = got.at(i), w = want.at(i);
      if (std::isnan(w)) {
        EXPECT_TRUE(std::isnan(g)) << what << " at " << i;
        ++nans;
      } else {
        EXPECT_EQ(std::memcmp(&g, &w, sizeof(float)), 0) << what << " at " << i;
      }
    }
    EXPECT_GT(nans, 0) << what << ": the poison did not reach the output";
  };
  expect_same(y, y_ref, "y");
  expect_same(dx, dx_ref, "dx");
  expect_same(*g.grads[0], ref.grad_weight(), "dW");
  expect_same(*g.grads[1], ref.grad_bias(), "db");
}

}  // namespace
}  // namespace dinar::nn
