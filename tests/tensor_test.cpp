#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tensor/tensor.h"
#include "util/error.h"

namespace dinar {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.rank(), 2u);
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, ConstructFromValues) {
  Tensor t({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(1, 1), 4.0f);
  EXPECT_EQ(t.at(3), 4.0f);
}

TEST(TensorTest, ValueCountMismatchThrows) {
  EXPECT_THROW(Tensor({2, 2}, {1.0f, 2.0f}), Error);
}

TEST(TensorTest, NegativeDimensionThrows) {
  EXPECT_THROW(Tensor({-1, 4}), Error);
}

TEST(TensorTest, CopyIsDeep) {
  Tensor a({2}, {1, 2});
  Tensor b = a;
  b.at(0) = 99.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, MoveLeavesSourceEmpty) {
  Tensor a({2}, {1, 2});
  Tensor b = std::move(a);
  EXPECT_EQ(b.numel(), 2);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): asserting post-move state
}

TEST(TensorTest, FillAndZero) {
  Tensor t({3});
  t.fill(2.5f);
  for (float v : t.values()) EXPECT_EQ(v, 2.5f);
  t.zero();
  for (float v : t.values()) EXPECT_EQ(v, 0.0f);
}

TEST(TensorTest, ElementwiseArithmetic) {
  Tensor a({3}, {1, 2, 3});
  Tensor b({3}, {10, 20, 30});
  a += b;
  EXPECT_EQ(a.at(2), 33.0f);
  a -= b;
  EXPECT_EQ(a.at(2), 3.0f);
  a *= 2.0f;
  EXPECT_EQ(a.at(0), 2.0f);
}

TEST(TensorTest, ShapeMismatchThrows) {
  Tensor a({3}), b({4});
  EXPECT_THROW(a += b, Error);
  EXPECT_THROW(a -= b, Error);
  EXPECT_THROW(a.add_scaled(b, 1.0f), Error);
}

TEST(TensorTest, AddScaled) {
  Tensor a({2}, {1, 1});
  Tensor b({2}, {2, 4});
  a.add_scaled(b, 0.5f);
  EXPECT_EQ(a.at(0), 2.0f);
  EXPECT_EQ(a.at(1), 3.0f);
}

TEST(TensorTest, AddProduct) {
  Tensor a({2}, {0, 0});
  Tensor x({2}, {2, 3});
  Tensor y({2}, {4, 5});
  a.add_product(x, y);
  EXPECT_EQ(a.at(0), 8.0f);
  EXPECT_EQ(a.at(1), 15.0f);
}

TEST(TensorTest, Reductions) {
  Tensor t({4}, {1, -2, 3, -4});
  EXPECT_DOUBLE_EQ(t.sum(), -2.0);
  EXPECT_DOUBLE_EQ(t.squared_l2_norm(), 30.0);
  EXPECT_DOUBLE_EQ(t.l2_norm(), std::sqrt(30.0));
  EXPECT_EQ(t.max_abs(), 4.0f);
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = t.reshaped({3, 2});
  EXPECT_EQ(r.at(2, 1), 6.0f);
  EXPECT_THROW(t.reshaped({4, 2}), Error);
}

TEST(TensorTest, FreeFunctions) {
  Tensor a({2}, {1, 2}), b({2}, {3, 4});
  EXPECT_EQ(add(a, b).at(1), 6.0f);
  EXPECT_EQ(sub(b, a).at(0), 2.0f);
  EXPECT_EQ(scale(a, 3.0f).at(1), 6.0f);
}

TEST(TensorTest, RandomInitializersRespectBounds) {
  Rng rng(5);
  Tensor u = Tensor::uniform({1000}, rng, -0.5f, 0.5f);
  for (float v : u.values()) {
    EXPECT_GE(v, -0.5f);
    EXPECT_LT(v, 0.5f);
  }
  Tensor k = Tensor::kaiming({1000}, 16, rng);
  const float bound = std::sqrt(1.0f / 16.0f);
  for (float v : k.values()) {
    EXPECT_GE(v, -bound);
    EXPECT_LE(v, bound);
  }
}

TEST(TensorTest, GaussianInitializerMoments) {
  Rng rng(5);
  Tensor g = Tensor::gaussian({20000}, rng, 2.0f);
  double sum = 0.0, sq = 0.0;
  for (float v : g.values()) {
    sum += v;
    sq += static_cast<double>(v) * v;
  }
  const double mean = sum / 20000.0;
  EXPECT_NEAR(mean, 0.0, 0.1);
  EXPECT_NEAR(std::sqrt(sq / 20000.0 - mean * mean), 2.0, 0.1);
}

TEST(MatmulTest, HandComputed) {
  Tensor a({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = gemm(Trans::kN, Trans::kN, a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(MatmulTest, InnerDimensionMismatchThrows) {
  Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(gemm(Trans::kN, Trans::kN, a, b), Error);
}

TEST(GemmTest, DoubleTransposeHandComputed) {
  // gemm(kT, kT, a, b) = a^T b^T — the one combination the legacy trio
  // never offered.
  Tensor a({3, 2}, {1, 4, 2, 5, 3, 6});        // a^T = [[1,2,3],[4,5,6]]
  Tensor b({2, 3}, {7, 9, 11, 8, 10, 12});     // b^T = [[7,8],[9,10],[11,12]]
  Tensor c = gemm(Trans::kT, Trans::kT, a, b);
  EXPECT_EQ(c.at(0, 0), 58.0f);
  EXPECT_EQ(c.at(0, 1), 64.0f);
  EXPECT_EQ(c.at(1, 0), 139.0f);
  EXPECT_EQ(c.at(1, 1), 154.0f);
}

TEST(GemmTest, InnerDimensionMismatchThrows) {
  Tensor a({2, 3}), b({2, 2});
  EXPECT_THROW(gemm(Trans::kN, Trans::kN, a, b), Error);
  // a^T is 3x2, so a 3-row b no longer lines up.
  EXPECT_THROW(gemm(Trans::kT, Trans::kN, a, Tensor({3, 3})), Error);
}

// Regression for the removed skip-zero fast path: the scalar kernel used
// to skip `a == 0.0f` multiplicands, silently dropping the IEEE-754
// 0 x NaN = NaN and 0 x Inf = NaN products — so a diverging model looked
// healthy on the scalar path while a SIMD kernel (which has no such
// branch) reported NaN. All four Trans combinations must poison.
TEST(GemmTest, ZeroTimesNanPropagatesAllTransCombos) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  Tensor a({1, 2}, {0.0f, 0.0f});         // logical 1x2 row of zeros
  Tensor at({2, 1}, {0.0f, 0.0f});        // its stored transpose
  Tensor b({2, 1}, {nan, inf});           // logical 2x1 with NaN and Inf
  Tensor bt({1, 2}, {nan, inf});          // its stored transpose

  EXPECT_TRUE(std::isnan(gemm(Trans::kN, Trans::kN, a, b).at(0)));
  EXPECT_TRUE(std::isnan(gemm(Trans::kT, Trans::kN, at, b).at(0)));
  EXPECT_TRUE(std::isnan(gemm(Trans::kN, Trans::kT, a, bt).at(0)));
  EXPECT_TRUE(std::isnan(gemm(Trans::kT, Trans::kT, at, bt).at(0)));
}

TEST(GemmTest, NanInZeroWeightSideAlsoPropagates) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  // NaN on the A side multiplied by a zero B column: same IEEE rule,
  // opposite operand.
  Tensor a({1, 1}, {nan});
  Tensor b({1, 2}, {0.0f, 1.0f});
  const Tensor out = gemm(Trans::kN, Trans::kN, a, b);
  EXPECT_TRUE(std::isnan(out.at(0, 0)));
  EXPECT_TRUE(std::isnan(out.at(0, 1)));
}

TEST(GemmTest, EmptyReductionYieldsZeros) {
  // k = 0 is a defined product (all zeros) and must take the
  // overflow-free grain path rather than dividing by a zero extent.
  const Tensor z = gemm(Trans::kN, Trans::kN, Tensor({3, 0}), Tensor({0, 2}));
  ASSERT_EQ(z.shape(), (Shape{3, 2}));
  for (float v : z.values()) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(gemm(Trans::kN, Trans::kN, Tensor({0, 5}), Tensor({5, 4})).numel(), 0);
  EXPECT_EQ(gemm(Trans::kN, Trans::kN, Tensor({4, 5}), Tensor({5, 0})).numel(), 0);
}

// Property sweep: gemm(kT, kN, a, b) == gemm(kN, kN, a^T, b) and
// gemm(kN, kT, a, b) == gemm(kN, kN, a, b^T) over random shapes.
class MatmulVariantTest : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

Tensor transpose2d(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (std::int64_t i = 0; i < t.dim(0); ++i)
    for (std::int64_t j = 0; j < t.dim(1); ++j) out.at(j, i) = t.at(i, j);
  return out;
}

TEST_P(MatmulVariantTest, TnMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + k * 10 + n));
  Tensor a = Tensor::gaussian({k, m}, rng);
  Tensor b = Tensor::gaussian({k, n}, rng);
  Tensor got = gemm(Trans::kT, Trans::kN, a, b);
  Tensor want = gemm(Trans::kN, Trans::kN, transpose2d(a), b);
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got.at(i), want.at(i), 1e-4);
}

TEST_P(MatmulVariantTest, NtMatchesExplicitTranspose) {
  auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 100 + k * 10 + n) + 1);
  Tensor a = Tensor::gaussian({m, k}, rng);
  Tensor b = Tensor::gaussian({n, k}, rng);
  Tensor got = gemm(Trans::kN, Trans::kT, a, b);
  Tensor want = gemm(Trans::kN, Trans::kN, a, transpose2d(b));
  ASSERT_TRUE(got.same_shape(want));
  for (std::int64_t i = 0; i < got.numel(); ++i)
    EXPECT_NEAR(got.at(i), want.at(i), 1e-4);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatmulVariantTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(3, 17, 2)));

TEST(ShapeTest, NumelAndToString) {
  EXPECT_EQ(shape_numel({2, 3, 4}), 24);
  EXPECT_EQ(shape_numel({}), 1);
  EXPECT_EQ(shape_to_string({2, 3}), "[2, 3]");
}

}  // namespace
}  // namespace dinar
