// Bit-for-bit oracle for the select-based ReLU and max-pool kernels
// (nn/activations.cpp, nn/pooling.cpp).
//
// The references below are the branchy loops those kernels replaced, kept
// only here: ReLU clamps with `if (v < 0) v = 0`, its backward zeroes the
// gradient where the input is <= 0, and max-pool scans each window with
// `if (v > best)`. The one deliberate difference is max-pool's starting
// index, which is the window's first element here and in the layer (it was
// element 0 of the whole batch; see MaxPool2dTest.DegenerateWindow*).
// Outputs and routed gradients are compared with memcmp, so signed zeros,
// NaN payloads and subnormals must match bit for bit, not just compare
// equal.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/activations.h"
#include "nn/model.h"
#include "nn/pooling.h"

namespace dinar::nn {
namespace {

// ------------------------------------------------------------ reference --

Tensor ref_relu_forward(const Tensor& x) {
  Tensor y = x;
  for (float& v : y.values())
    if (v < 0.0f) v = 0.0f;
  return y;
}

Tensor ref_relu_backward(const Tensor& x, const Tensor& grad_out) {
  Tensor dx = grad_out;
  for (std::int64_t i = 0; i < dx.numel(); ++i)
    if (x.at(i) <= 0.0f) dx.at(i) = 0.0f;
  return dx;
}

struct RefPool {
  Tensor y;
  std::vector<std::int64_t> argmax;
};

RefPool ref_maxpool2d(const Tensor& x, std::int64_t window) {
  const std::int64_t b = x.dim(0), c = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::int64_t oh = h / window, ow = w / window;
  RefPool out{Tensor({b, c, oh, ow}), {}};
  for (std::int64_t plane = 0; plane < b * c; ++plane)
    for (std::int64_t i = 0; i < oh; ++i)
      for (std::int64_t j = 0; j < ow; ++j) {
        float best = -std::numeric_limits<float>::infinity();
        std::int64_t best_idx = (plane * h + i * window) * w + j * window;
        for (std::int64_t di = 0; di < window; ++di)
          for (std::int64_t dj = 0; dj < window; ++dj) {
            const std::int64_t idx = (plane * h + i * window + di) * w + j * window + dj;
            if (x.at(idx) > best) {
              best = x.at(idx);
              best_idx = idx;
            }
          }
        out.y.at((plane * oh + i) * ow + j) = best;
        out.argmax.push_back(best_idx);
      }
  return out;
}

RefPool ref_maxpool1d(const Tensor& x, std::int64_t window) {
  const std::int64_t b = x.dim(0), c = x.dim(1), l = x.dim(2);
  const std::int64_t ol = l / window;
  RefPool out{Tensor({b, c, ol}), {}};
  for (std::int64_t row = 0; row < b * c; ++row)
    for (std::int64_t i = 0; i < ol; ++i) {
      float best = -std::numeric_limits<float>::infinity();
      std::int64_t best_idx = row * l + i * window;
      for (std::int64_t d = 0; d < window; ++d) {
        const std::int64_t idx = row * l + i * window + d;
        if (x.at(idx) > best) {
          best = x.at(idx);
          best_idx = idx;
        }
      }
      out.y.at(row * ol + i) = best;
      out.argmax.push_back(best_idx);
    }
  return out;
}

// The pooling backward: each output's gradient added at its argmax.
Tensor ref_route(const Shape& in_shape, const std::vector<std::int64_t>& argmax,
                 const Tensor& grad_out) {
  Tensor dx(in_shape);
  for (std::size_t i = 0; i < argmax.size(); ++i)
    dx.at(argmax[i]) += grad_out.at(static_cast<std::int64_t>(i));
  return dx;
}

// ------------------------------------------------------------- helpers --

void expect_bits_equal(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.shape(), want.shape()) << what;
  EXPECT_EQ(std::memcmp(got.data(), want.data(),
                        static_cast<std::size_t>(got.numel()) * sizeof(float)),
            0)
      << what;
}

float quiet_nan_with_payload(std::uint32_t payload, bool negative) {
  std::uint32_t bits = 0x7fc00000u | (payload & 0x003fffffu);
  if (negative) bits |= 0x80000000u;
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// Half of the elements are special values (signed zeros, NaNs with
// payloads, infinities, subnormals, extremes); with `ties`, a further
// share repeats the previous element so pooling windows hold equal values.
Tensor awkward_tensor(Shape shape, std::uint64_t seed, bool ties) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<float> specials{
      0.0f,   -0.0f,   inf,     -inf,     quiet_nan_with_payload(1, false),
      quiet_nan_with_payload(0x1234, true), denorm, -denorm,  1e-40f,  -3e-39f,
      std::numeric_limits<float>::max(),    -std::numeric_limits<float>::max(),
      std::numeric_limits<float>::min(),    -std::numeric_limits<float>::min()};
  Rng rng(seed);
  Tensor t = Tensor::gaussian(std::move(shape), rng);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const double u = rng.uniform();
    if (u < 0.5) {
      t.at(i) = specials[rng.uniform_index(specials.size())];
    } else if (ties && u < 0.7 && i > 0) {
      t.at(i) = t.at(i - 1);
    }
  }
  return t;
}

// Distinct finite gradients, so every routed element is identifiable.
Tensor distinct_grads(const Shape& shape) {
  Tensor g(shape);
  for (std::int64_t i = 0; i < g.numel(); ++i) g.at(i) = 1.0f + 0.5f * static_cast<float>(i);
  return g;
}

std::string dims(const Shape& s) {
  std::string out;
  for (const std::int64_t d : s) out.append(out.empty() ? "" : "x").append(std::to_string(d));
  return out;
}

// --------------------------------------------------------------- tests --

TEST(ActivationPoolOracleTest, ReluMatchesBranchyReferenceBitForBit) {
  // Lengths around the 4- and 8-wide vector widths leave every remainder.
  for (const std::int64_t n : {1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 1001}) {
    const Tensor x = awkward_tensor({n}, static_cast<std::uint64_t>(n), false);
    const Tensor g = awkward_tensor({n}, static_cast<std::uint64_t>(n) + 500, false);
    const std::string at = "n=" + std::to_string(n);
    ReLU relu;
    expect_bits_equal(relu.forward(x, /*train=*/false), ref_relu_forward(x), at + " eval");
    expect_bits_equal(relu.forward(x, /*train=*/true), ref_relu_forward(x), at + " train");
    expect_bits_equal(relu.backward(g), ref_relu_backward(x, g), at + " backward");
  }
  // A 4-D activation as the conv stack produces it.
  const Tensor x = awkward_tensor({3, 5, 7, 9}, 77, false);
  const Tensor g = awkward_tensor(x.shape(), 78, false);
  ReLU relu;
  expect_bits_equal(relu.forward(x, true), ref_relu_forward(x), "3x5x7x9 forward");
  expect_bits_equal(relu.backward(g), ref_relu_backward(x, g), "3x5x7x9 backward");
}

TEST(ActivationPoolOracleTest, ReluByValueWorksInPlaceAndMatchesTheReference) {
  // A moved-in activation is clamped in its own storage, and a moved-in
  // gradient is selected in its own storage, with the branchy reference's
  // bits for signed zeros, NaNs, infinities and subnormals.
  for (const std::int64_t n : {1, 7, 8, 9, 33, 1001}) {
    const Tensor x = awkward_tensor({n}, static_cast<std::uint64_t>(n) + 900, false);
    const Tensor g = awkward_tensor({n}, static_cast<std::uint64_t>(n) + 1900, false);
    const std::string at = "n=" + std::to_string(n);
    ReLU relu;
    Tensor x_in = x;
    const float* x_storage = x_in.data();
    const Tensor y = relu.forward(std::move(x_in), /*train=*/true);
    EXPECT_EQ(y.data(), x_storage) << at;
    expect_bits_equal(y, ref_relu_forward(x), at + " forward");
    Tensor g_in = g;
    const float* g_storage = g_in.data();
    const Tensor dx = relu.backward(std::move(g_in));
    EXPECT_EQ(dx.data(), g_storage) << at;
    expect_bits_equal(dx, ref_relu_backward(x, g), at + " backward");
  }
  // Two ReLUs in a model: the second one's input is the first one's
  // moved output, and each backward selects with its own cached mask.
  Model model;
  model.add(std::make_unique<ReLU>()).add(std::make_unique<ReLU>());
  const Tensor x = awkward_tensor({4, 9, 5}, 91, false);
  const Tensor g = awkward_tensor(x.shape(), 92, false);
  const Tensor y1 = ref_relu_forward(x);
  expect_bits_equal(model.forward(x, /*train=*/true), ref_relu_forward(y1), "model forward");
  expect_bits_equal(model.backward_with_input_grad(g),
                    ref_relu_backward(x, ref_relu_backward(y1, g)), "model backward");
}

TEST(ActivationPoolOracleTest, ReluKeepsSignedZerosAndNan) {
  const float nan = quiet_nan_with_payload(7, false);
  const Tensor x({4}, {-0.0f, 0.0f, nan, -1.0f});
  ReLU relu;
  const Tensor y = relu.forward(x, true);
  EXPECT_TRUE(std::signbit(y.at(0)));  // -0.0 is not < 0: kept
  EXPECT_FALSE(std::signbit(y.at(1)));
  EXPECT_TRUE(std::isnan(y.at(2)));
  EXPECT_FALSE(std::signbit(y.at(3)));  // clamped to +0.0
  const Tensor dx = relu.backward(Tensor({4}, {2.0f, 3.0f, 4.0f, 5.0f}));
  EXPECT_EQ(dx.at(0), 0.0f);
  EXPECT_EQ(dx.at(1), 0.0f);
  EXPECT_EQ(dx.at(2), 4.0f);  // NaN is not <= 0: the gradient passes
  EXPECT_EQ(dx.at(3), 0.0f);
}

TEST(ActivationPoolOracleTest, MaxPool2dMatchesBranchyReferenceBitForBit) {
  struct Case {
    Shape shape;
    std::int64_t window;
  };
  // Odd extents leave a ragged edge the windows skip; window 1 is a copy.
  for (const Case& c : {Case{{1, 1, 2, 2}, 2}, Case{{2, 3, 7, 9}, 2}, Case{{3, 2, 12, 12}, 2},
                        Case{{2, 2, 9, 11}, 3}, Case{{1, 4, 5, 5}, 1},
                        Case{{2, 1, 8, 8}, 4}}) {
    for (const bool ties : {false, true}) {
      const Tensor x = awkward_tensor(c.shape, 31 * c.window + (ties ? 1 : 0), ties);
      const RefPool ref = ref_maxpool2d(x, c.window);
      const std::string at =
          dims(c.shape) + " w" + std::to_string(c.window) + (ties ? " ties" : "");
      MaxPool2d pool(c.window);
      expect_bits_equal(pool.forward(x, /*train=*/false), ref.y, at + " eval");
      expect_bits_equal(pool.forward(x, /*train=*/true), ref.y, at + " train");
      const Tensor g = distinct_grads(ref.y.shape());
      expect_bits_equal(pool.backward(g), ref_route(x.shape(), ref.argmax, g), at + " dx");
    }
  }
}

TEST(ActivationPoolOracleTest, MaxPool1dMatchesBranchyReferenceBitForBit) {
  struct Case {
    Shape shape;
    std::int64_t window;
  };
  for (const Case& c : {Case{{1, 1, 4}, 4}, Case{{2, 3, 13}, 2}, Case{{3, 2, 17}, 3},
                        Case{{2, 5, 64}, 4}, Case{{1, 2, 7}, 1}}) {
    for (const bool ties : {false, true}) {
      const Tensor x = awkward_tensor(c.shape, 57 * c.window + (ties ? 1 : 0), ties);
      const RefPool ref = ref_maxpool1d(x, c.window);
      const std::string at =
          dims(c.shape) + " w" + std::to_string(c.window) + (ties ? " ties" : "");
      MaxPool1d pool(c.window);
      expect_bits_equal(pool.forward(x, /*train=*/false), ref.y, at + " eval");
      expect_bits_equal(pool.forward(x, /*train=*/true), ref.y, at + " train");
      const Tensor g = distinct_grads(ref.y.shape());
      expect_bits_equal(pool.backward(g), ref_route(x.shape(), ref.argmax, g), at + " dx");
    }
  }
}

TEST(ActivationPoolOracleTest, MaxPoolTiesRouteToTheFirstElement) {
  // +0.0 and -0.0 compare equal, so the first of them wins either way round.
  const Tensor x({1, 2, 2, 2}, {3.0f, 3.0f, 3.0f, 1.0f, -0.0f, 0.0f, -1.0f, -0.0f});
  MaxPool2d pool(2);
  const Tensor y = pool.forward(x, true);
  EXPECT_TRUE(std::signbit(y.at(1)));
  const Tensor dx = pool.backward(Tensor({1, 2, 1, 1}, {5.0f, 6.0f}));
  expect_bits_equal(dx, Tensor({1, 2, 2, 2}, {5.0f, 0, 0, 0, 6.0f, 0, 0, 0}), "2d ties");

  const Tensor x1({1, 1, 6}, {2.0f, 7.0f, 7.0f, 0.0f, -0.0f, 0.0f});
  MaxPool1d pool1(3);
  (void)pool1.forward(x1, true);
  const Tensor dx1 = pool1.backward(Tensor({1, 1, 2}, {5.0f, 6.0f}));
  expect_bits_equal(dx1, Tensor({1, 1, 6}, {0, 5.0f, 0, 6.0f, 0, 0}), "1d ties");
}

}  // namespace
}  // namespace dinar::nn
