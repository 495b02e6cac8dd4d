// FlatParams / LayerIndex unit tests: arena layout, span views, aliasing
// rules, the whole-arena math helpers, and the named-error negative paths
// of the flat ops and the tensor-based construction path.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "nn/flat_params.h"
#include "util/error.h"

namespace dinar::nn {
namespace {

std::vector<LayerEntry> two_layer_entries() {
  // Layer 0: a 2x3 weight and a 3-bias; layer 1: a 3-vector.
  std::vector<LayerEntry> e(3);
  e[0].name = "dense/w";
  e[0].layer_id = 0;
  e[0].shape = {2, 3};
  e[1].name = "dense/b";
  e[1].layer_id = 0;
  e[1].shape = {3};
  e[2].name = "out/w";
  e[2].layer_id = 1;
  e[2].shape = {3};
  return e;
}

TEST(LayerIndexTest, BuildComputesOffsetsAndRanges) {
  auto index = LayerIndex::build(two_layer_entries());
  ASSERT_EQ(index->num_entries(), 3u);
  EXPECT_EQ(index->num_layers(), 2u);
  EXPECT_EQ(index->total_numel(), 12);

  EXPECT_EQ(index->entry(0).offset, 0);
  EXPECT_EQ(index->entry(0).numel, 6);
  EXPECT_EQ(index->entry(1).offset, 6);
  EXPECT_EQ(index->entry(1).numel, 3);
  EXPECT_EQ(index->entry(2).offset, 9);
  EXPECT_EQ(index->entry(2).numel, 3);

  EXPECT_EQ(index->layer_entry_range(0), (std::pair<std::size_t, std::size_t>{0, 2}));
  EXPECT_EQ(index->layer_entry_range(1), (std::pair<std::size_t, std::size_t>{2, 3}));
  EXPECT_EQ(index->layer_float_range(0), (std::pair<std::int64_t, std::int64_t>{0, 9}));
  EXPECT_EQ(index->layer_float_range(1), (std::pair<std::int64_t, std::int64_t>{9, 12}));
}

TEST(LayerIndexTest, BuildRejectsNonDenseLayerIds) {
  auto bad_start = two_layer_entries();
  for (LayerEntry& e : bad_start) ++e.layer_id;  // starts at 1
  EXPECT_THROW(LayerIndex::build(bad_start), Error);

  auto gap = two_layer_entries();
  gap[2].layer_id = 3;  // 0, 0, 3 — layer ids 1 and 2 missing
  EXPECT_THROW(LayerIndex::build(gap), Error);

  auto decreasing = two_layer_entries();
  decreasing[0].layer_id = 1;  // 1, 0, 1 — not non-decreasing
  decreasing[1].layer_id = 0;
  EXPECT_THROW(LayerIndex::build(decreasing), Error);
}

TEST(LayerIndexTest, SameLayoutComparesShapesOnly) {
  auto a = LayerIndex::build(two_layer_entries());

  // Different names, layer ids, and obfuscation tags — same shapes.
  auto renamed = two_layer_entries();
  renamed[0].name = "other";
  renamed[1].layer_id = 1;  // 0, 1, 1 is still dense
  renamed[2].layer_id = 1;
  renamed[2].is_obfuscated = true;
  EXPECT_TRUE(a->same_layout(*LayerIndex::build(renamed)));

  auto reshaped = two_layer_entries();
  reshaped[2].shape = {4};
  EXPECT_FALSE(a->same_layout(*LayerIndex::build(reshaped)));

  auto fewer = two_layer_entries();
  fewer.pop_back();
  EXPECT_FALSE(a->same_layout(*LayerIndex::build(fewer)));
}

TEST(LayerIndexTest, WithObfuscatedTagsExactlyTheGivenLayers) {
  auto index = LayerIndex::build(two_layer_entries());
  auto tagged = index->with_obfuscated({1});
  EXPECT_FALSE(tagged->entry(0).is_obfuscated);
  EXPECT_FALSE(tagged->entry(1).is_obfuscated);
  EXPECT_TRUE(tagged->entry(2).is_obfuscated);
  // Re-tagging with no layers clears every flag.
  auto cleared = tagged->with_obfuscated({});
  for (std::size_t i = 0; i < cleared->num_entries(); ++i)
    EXPECT_FALSE(cleared->entry(i).is_obfuscated);
  // The original index is immutable.
  EXPECT_FALSE(index->entry(2).is_obfuscated);
}

TEST(FlatParamsTest, ZeroFilledConstructionAndSpans) {
  auto index = LayerIndex::build(two_layer_entries());
  FlatParams p(index);
  EXPECT_FALSE(p.empty());
  EXPECT_EQ(p.numel(), 12);
  for (float v : p.as_span()) EXPECT_EQ(v, 0.0f);

  // entry_span / layer_span alias the arena.
  p.entry_span(1)[0] = 7.0f;
  EXPECT_EQ(p.as_span()[6], 7.0f);
  EXPECT_EQ(p.layer_span(0).size(), 9u);
  EXPECT_EQ(p.layer_span(0)[6], 7.0f);
  EXPECT_EQ(p.layer_span(1).size(), 3u);
}

TEST(FlatParamsTest, AdoptedValuesMustMatchIndexSize) {
  auto index = LayerIndex::build(two_layer_entries());
  EXPECT_THROW(FlatParams(index, std::vector<float>(11)), Error);
  EXPECT_THROW(FlatParams(nullptr, std::vector<float>(12)), Error);
  FlatParams ok(index, std::vector<float>(12, 1.5f));
  EXPECT_EQ(ok.as_span()[11], 1.5f);
}

TEST(FlatParamsTest, CopiesAreDeepForDataShallowForLayout) {
  auto index = LayerIndex::build(two_layer_entries());
  FlatParams a(index, std::vector<float>(12, 1.0f));
  FlatParams b = a;
  b.as_span()[0] = 9.0f;
  EXPECT_EQ(a.as_span()[0], 1.0f);           // deep data copy
  EXPECT_EQ(a.index().get(), b.index().get());  // shared immutable layout
}

TEST(FlatParamsTest, ResetIndexRetagsWithoutTouchingData) {
  auto index = LayerIndex::build(two_layer_entries());
  FlatParams p(index, std::vector<float>(12, 2.0f));
  p.reset_index(index->with_obfuscated({0}));
  EXPECT_TRUE(p.index()->entry(0).is_obfuscated);
  EXPECT_EQ(p.as_span()[0], 2.0f);

  auto smaller = two_layer_entries();
  smaller[0].shape = {2, 2};  // total numel 10 != 12
  EXPECT_THROW(p.reset_index(LayerIndex::build(smaller)), Error);
}

TEST(FlatParamsTest, FromTensorsCopiesValuesInEntryOrder) {
  Rng rng(11);
  std::vector<Tensor> tensors;
  tensors.push_back(Tensor::gaussian({2, 3}, rng));
  tensors.push_back(Tensor::gaussian({3}, rng));

  FlatParams flat = FlatParams::from_tensors(tensors);
  ASSERT_EQ(flat.index()->num_entries(), 2u);
  // from_tensors(tensors) synthesizes entry i == layer i.
  EXPECT_EQ(flat.index()->entry(1).layer_id, 1u);

  for (std::size_t t = 0; t < tensors.size(); ++t) {
    const std::span<const float> got = flat.entry_span(t);
    ASSERT_EQ(got.size(), tensors[t].values().size());
    for (std::size_t j = 0; j < got.size(); ++j)
      EXPECT_EQ(got[j], tensors[t].values()[j]);
  }
}

TEST(FlatParamsTest, FromTensorsAgainstIndexShapeChecks) {
  auto index = LayerIndex::build(two_layer_entries());
  std::vector<Tensor> tensors;
  tensors.push_back(Tensor({2, 3}));
  tensors.push_back(Tensor({3}));
  tensors.push_back(Tensor({3}));
  FlatParams ok = FlatParams::from_tensors(index, tensors);
  EXPECT_EQ(ok.index().get(), index.get());  // adopts the given index

  std::vector<Tensor> wrong_shape = tensors;
  wrong_shape[1] = Tensor({4});
  try {
    FlatParams::from_tensors(index, wrong_shape);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("from_tensors"), std::string::npos);
  }

  std::vector<Tensor> wrong_count = tensors;
  wrong_count.pop_back();
  EXPECT_THROW(FlatParams::from_tensors(index, wrong_count), Error);
}

FlatParams filled(float v0) {
  auto index = LayerIndex::build(two_layer_entries());
  std::vector<float> vals(12);
  for (std::size_t i = 0; i < vals.size(); ++i)
    vals[i] = v0 + static_cast<float>(i);
  return FlatParams(index, std::move(vals));
}

TEST(FlatMathTest, AddScaleAddScaledOperateCoordinatewise) {
  FlatParams a = filled(0.0f);
  FlatParams b = filled(100.0f);

  flat_add(a, b);
  EXPECT_EQ(a.as_span()[0], 100.0f);
  EXPECT_EQ(a.as_span()[11], 122.0f);

  flat_scale(a, 0.5f);
  EXPECT_EQ(a.as_span()[0], 50.0f);

  FlatParams c = filled(0.0f);
  flat_add_scaled(c, b, 2.0f);
  EXPECT_EQ(c.as_span()[0], 200.0f);
  EXPECT_EQ(c.as_span()[11], 11.0f + 2.0f * 111.0f);
}

TEST(FlatMathTest, L2NormAndFiniteScan) {
  auto index = LayerIndex::build(two_layer_entries());
  FlatParams p(index);
  p.as_span()[0] = 3.0f;
  p.as_span()[9] = 4.0f;
  EXPECT_NEAR(flat_l2_norm(p), 5.0, 1e-12);
  EXPECT_TRUE(flat_all_finite(p));
  EXPECT_EQ(flat_first_non_finite_entry(p), 3u);  // == num_entries(): all finite

  p.entry_span(1)[2] = std::numeric_limits<float>::quiet_NaN();
  EXPECT_FALSE(flat_all_finite(p));
  EXPECT_EQ(flat_first_non_finite_entry(p), 1u);
}

TEST(FlatMathTest, LayoutMismatchThrowsNamedError) {
  FlatParams a = filled(0.0f);
  auto other_entries = two_layer_entries();
  other_entries[2].shape = {4};
  FlatParams b(LayerIndex::build(other_entries));
  EXPECT_THROW(flat_add(a, b), Error);
  EXPECT_THROW(flat_add_scaled(a, b, 1.0f), Error);
}

}  // namespace
}  // namespace dinar::nn
