#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "gradcheck.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "test_helpers.h"
#include "util/error.h"

namespace dinar::nn {
namespace {

using dinar::testing::make_tiny_mlp;

// ----------------------------------------------------------------- model --

TEST(ModelTest, ParamLayerEnumeration) {
  Rng rng(1);
  Model m = make_tiny_mlp(4, 3, rng);
  EXPECT_EQ(m.num_layers(), 5u);        // 3 dense + 2 tanh
  EXPECT_EQ(m.num_param_layers(), 3u);  // only dense layers carry params
  EXPECT_EQ(m.num_parameters(), (4 * 16 + 16) + (16 * 8 + 8) + (8 * 3 + 3));
}

TEST(ModelTest, ParametersRoundTrip) {
  Rng rng(2);
  Model m = make_tiny_mlp(4, 3, rng);
  FlatParams params = m.parameters();
  ASSERT_EQ(params.index()->num_entries(), 6u);  // weight+bias per dense layer

  // Zero the model, then restore.
  for (const ParamGroup& g : m.param_layers())
    for (Tensor* p : g.params) p->zero();
  m.set_parameters(params);
  FlatParams back = m.parameters();
  ASSERT_EQ(back.numel(), params.numel());
  for (std::int64_t j = 0; j < params.numel(); ++j)
    EXPECT_EQ(back.as_span()[static_cast<std::size_t>(j)],
              params.as_span()[static_cast<std::size_t>(j)]);
}

TEST(ModelTest, SetParametersValidatesStructure) {
  Rng rng(3);
  Model m = make_tiny_mlp(4, 3, rng);
  const FlatParams current = m.parameters();
  std::vector<Tensor> params;
  for (std::size_t i = 0; i < current.index()->num_entries(); ++i) {
    const std::span<const float> vals = current.entry_span(i);
    params.emplace_back(current.index()->entry(i).shape,
                        std::vector<float>(vals.begin(), vals.end()));
  }

  std::vector<Tensor> missing_entry = params;
  missing_entry.pop_back();
  EXPECT_THROW(m.set_parameters(FlatParams::from_tensors(missing_entry)), Error);

  std::vector<Tensor> wrong_shape = params;
  wrong_shape[0] = Tensor({2, 2});
  EXPECT_THROW(m.set_parameters(FlatParams::from_tensors(wrong_shape)), Error);
}

TEST(ModelTest, LayerParameterAccess) {
  Rng rng(4);
  Model m = make_tiny_mlp(4, 3, rng);
  FlatParams layer1 = m.layer_parameters(1);
  ASSERT_EQ(layer1.index()->num_entries(), 2u);
  EXPECT_EQ(layer1.index()->entry(0).shape, (Shape{16, 8}));

  FlatParams replacement = layer1;
  for (float& v : replacement.entry_span(0)) v = 0.25f;
  for (float& v : replacement.entry_span(1)) v = -0.5f;
  m.set_layer_parameters(1, replacement);
  FlatParams back = m.layer_parameters(1);
  EXPECT_EQ(back.entry_span(0)[0], 0.25f);
  EXPECT_EQ(back.entry_span(1)[0], -0.5f);

  // Other layers untouched.
  EXPECT_NE(m.layer_parameters(0).entry_span(0)[0], 0.25f);
  EXPECT_THROW(m.layer_parameters(9), Error);
}

TEST(ModelTest, LayerParamSpanMatchesFlatOrder) {
  Rng rng(5);
  Model m = make_tiny_mlp(4, 3, rng);
  const auto [begin, end] = m.layer_param_span(1);
  EXPECT_EQ(begin, 2u);
  EXPECT_EQ(end, 4u);
  FlatParams flat = m.parameters();
  FlatParams layer = m.layer_parameters(1);
  EXPECT_EQ(flat.index()->entry(begin).shape, layer.index()->entry(0).shape);
  EXPECT_EQ(flat.entry_span(begin)[0], layer.entry_span(0)[0]);
}

TEST(ModelTest, CopyIsDeep) {
  Rng rng(6);
  Model m = make_tiny_mlp(4, 3, rng);
  Model copy = m;
  copy.param_layers()[0].params[0]->fill(9.0f);
  EXPECT_NE(m.parameters().as_span()[0], 9.0f);
  EXPECT_EQ(copy.parameters().as_span()[0], 9.0f);
}

TEST(ModelTest, ZeroGradClearsAccumulation) {
  Rng rng(9);
  Model m = make_tiny_mlp(4, 3, rng);
  Tensor x = Tensor::gaussian({2, 4}, rng);
  Tensor y = m.forward(x, true);
  m.backward(Tensor::full(y.shape(), 1.0f));
  EXPECT_GT(nn::flat_l2_norm(m.gradients()), 0.0);
  m.zero_grad();
  EXPECT_EQ(nn::flat_l2_norm(m.gradients()), 0.0);
}

TEST(ModelTest, SkippingTheInputGradientKeepsParameterGradientsBitIdentical) {
  // Model::backward skips the first layer's dL/d(input); the parameter
  // gradients must be the same bits as the full chain's, for each kind of
  // first layer that skips work (conv2d, conv1d, dense).
  const auto check = [](Model m, const Tensor& x, const char* what) {
    Model twin = m;
    const Tensor y = m.forward(x, true);
    twin.forward(x, true);
    Rng rng(11);
    const Tensor g = Tensor::uniform(y.shape(), rng, -1.0f, 1.0f);
    m.zero_grad();
    twin.zero_grad();
    m.backward(g);
    const Tensor dx = twin.backward_with_input_grad(g);
    EXPECT_EQ(dx.shape(), x.shape()) << what;
    const FlatParams a = m.gradients(), b = twin.gradients();
    ASSERT_EQ(a.numel(), b.numel()) << what;
    EXPECT_EQ(std::memcmp(a.as_span().data(), b.as_span().data(),
                          a.as_span().size() * sizeof(float)),
              0)
        << what;
    EXPECT_GT(nn::flat_l2_norm(a), 0.0) << what;
  };
  Rng rng(12);
  check(make_vgg_small(3, 8, 5, 2, rng), Tensor::gaussian({3, 3, 8, 8}, rng), "vgg");
  check(make_m5_audio(256, 4, rng), Tensor::gaussian({2, 1, 256}, rng), "m5");
  check(make_tiny_mlp(4, 3, rng), Tensor::gaussian({5, 4}, rng), "mlp");
}

TEST(ModelTest, ForwardLeavesTheCallersInputUnchanged) {
  // Model::forward copies its input once and moves activations from
  // there, so layers that work in place (a leading ReLU clamps, Flatten
  // reshapes) and layers that keep their input (Conv2d, Dense) never touch
  // the caller's tensor, in training or eval.
  Rng rng(12);
  Model relu_first;
  relu_first.add(std::make_unique<ReLU>())
      .add(std::make_unique<Flatten>())
      .add(std::make_unique<Dense>(2 * 3 * 3, 4, rng));
  Model conv_first;
  conv_first.add(std::make_unique<Conv2d>(2, 3, 3, 1, 1, rng))
      .add(std::make_unique<ReLU>())
      .add(std::make_unique<Flatten>());
  const Tensor x = Tensor::gaussian({5, 2, 3, 3}, rng);
  for (Model* model : {&relu_first, &conv_first}) {
    Tensor input = x;
    for (const bool train : {true, false}) {
      const Tensor y = model->forward(input, train);
      EXPECT_NE(y.data(), input.data());
      model->backward(Tensor::gaussian(y.shape(), rng));
      ASSERT_TRUE(input.same_shape(x));
      EXPECT_EQ(std::memcmp(input.data(), x.data(),
                            static_cast<std::size_t>(x.numel()) * sizeof(float)),
                0)
          << model->summary() << "train=" << train;
    }
  }
}

TEST(ModelTest, SummaryMentionsLayers) {
  Rng rng(10);
  Model m = make_tiny_mlp(4, 3, rng);
  const std::string s = m.summary();
  EXPECT_NE(s.find("dense"), std::string::npos);
  EXPECT_NE(s.find("3 parameterized"), std::string::npos);
}

// ------------------------------------------------------------------ loss --

TEST(LossTest, SoftmaxRowsSumToOne) {
  Tensor logits({2, 3}, {1.0f, 2.0f, 3.0f, -5.0f, 0.0f, 5.0f});
  Tensor p = softmax(logits);
  for (std::int64_t i = 0; i < 2; ++i) {
    double sum = 0.0;
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_GT(p.at(i, j), 0.0f);
      sum += p.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
  }
}

TEST(LossTest, SoftmaxIsShiftInvariantAndStable) {
  Tensor a({1, 3}, {1.0f, 2.0f, 3.0f});
  Tensor b({1, 3}, {1001.0f, 1002.0f, 1003.0f});
  Tensor pa = softmax(a), pb = softmax(b);
  for (std::int64_t j = 0; j < 3; ++j) EXPECT_NEAR(pa.at(j), pb.at(j), 1e-6);
}

TEST(LossTest, CrossEntropyOfPerfectPredictionIsSmall) {
  Tensor logits({1, 3}, {100.0f, 0.0f, 0.0f});
  const LossResult r = softmax_cross_entropy(logits, {0});
  EXPECT_LT(r.mean_loss, 1e-6);
}

TEST(LossTest, UniformLogitsGiveLogC) {
  Tensor logits({1, 4});
  const LossResult r = softmax_cross_entropy(logits, {2});
  EXPECT_NEAR(r.mean_loss, std::log(4.0), 1e-6);
}

TEST(LossTest, GradientMatchesSoftmaxMinusOnehot) {
  Tensor logits({1, 3}, {0.5f, -0.5f, 1.5f});
  Tensor p = softmax(logits);
  const LossResult r = softmax_cross_entropy(logits, {1});
  EXPECT_NEAR(r.grad_logits.at(0), p.at(0), 1e-6);
  EXPECT_NEAR(r.grad_logits.at(1), p.at(1) - 1.0f, 1e-6);
  EXPECT_NEAR(r.grad_logits.at(2), p.at(2), 1e-6);
}

TEST(LossTest, GradientSumsToZeroPerRow) {
  Rng rng(12);
  Tensor logits = Tensor::gaussian({4, 5}, rng);
  const LossResult r = softmax_cross_entropy(logits, {0, 1, 2, 3});
  for (std::int64_t i = 0; i < 4; ++i) {
    double s = 0.0;
    for (std::int64_t j = 0; j < 5; ++j) s += r.grad_logits.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
}

TEST(LossTest, PerSampleLossesMatchMean) {
  Rng rng(13);
  Tensor logits = Tensor::gaussian({6, 4}, rng);
  const std::vector<int> labels{0, 1, 2, 3, 0, 1};
  const std::vector<double> per = per_sample_cross_entropy(logits, labels);
  const LossResult r = softmax_cross_entropy(logits, labels);
  double mean = 0.0;
  for (double l : per) mean += l;
  mean /= 6.0;
  EXPECT_NEAR(mean, r.mean_loss, 1e-9);
}

TEST(LossTest, LabelOutOfRangeThrows) {
  Tensor logits({1, 3});
  EXPECT_THROW(softmax_cross_entropy(logits, {3}), Error);
  EXPECT_THROW(softmax_cross_entropy(logits, {-1}), Error);
}

TEST(LossTest, AccuracyAndPrediction) {
  Tensor logits({3, 2}, {2.0f, 1.0f, 0.0f, 3.0f, 5.0f, 4.0f});
  EXPECT_EQ(predict_classes(logits), (std::vector<int>{0, 1, 0}));
  EXPECT_NEAR(accuracy(logits, {0, 1, 1}), 2.0 / 3.0, 1e-9);
}

// ------------------------------------------------------------- model zoo --

TEST(ModelZooTest, Fcnn6HasSixParamLayers) {
  Rng rng(14);
  Model m = make_fcnn6(64, 100, 128, rng);
  EXPECT_EQ(m.num_param_layers(), 6u);
  Tensor x = Tensor::gaussian({2, 64}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{2, 100}));
}

TEST(ModelZooTest, VggSmallGeometry) {
  Rng rng(15);
  Model m = make_vgg_small(3, 12, 43, 4, rng);
  EXPECT_EQ(m.num_param_layers(), 6u);  // 4 conv + 2 dense
  Tensor x = Tensor::gaussian({2, 3, 12, 12}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{2, 43}));
}

TEST(ModelZooTest, VggSmallMoreBlocks) {
  Rng rng(16);
  Model m = make_vgg_small(3, 12, 32, 6, rng);
  EXPECT_EQ(m.num_param_layers(), 8u);  // CelebA-style deeper variant
  Tensor x = Tensor::gaussian({1, 3, 12, 12}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{1, 32}));
}

TEST(ModelZooTest, ResNetSmallGeometry) {
  Rng rng(17);
  Model m = make_resnet_small(3, 12, 10, rng);
  Tensor x = Tensor::gaussian({2, 3, 12, 12}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{2, 10}));
  // stem + (2 + 3 + 3 resblock convs) + head.
  EXPECT_EQ(m.num_param_layers(), 10u);
}

TEST(ModelZooTest, M5AudioGeometry) {
  Rng rng(18);
  Model m = make_m5_audio(512, 36, rng);
  Tensor x = Tensor::gaussian({2, 1, 512}, rng);
  EXPECT_EQ(m.forward(x, false).shape(), (Shape{2, 36}));
  EXPECT_EQ(m.num_param_layers(), 5u);
}

TEST(ModelZooTest, FactoriesProduceFreshIndependentModels) {
  ModelFactory f = fcnn6_factory(16, 4, 64);
  Rng r1(1), r2(1), r3(2);
  Model a = f(r1), b = f(r2), c = f(r3);
  EXPECT_EQ(a.parameters().as_span()[0], b.parameters().as_span()[0]);  // same seed
  EXPECT_NE(a.parameters().as_span()[0], c.parameters().as_span()[0]);  // different seed
}

TEST(ModelZooTest, EndToEndGradientsThroughSmallCnn) {
  Rng rng(19);
  Model m = make_vgg_small(1, 8, 3, 2, rng);
  Tensor x = Tensor::gaussian({1, 1, 8, 8}, rng);
  dinar::testing::expect_gradients_match(m, x, /*eps=*/5e-3, /*tol=*/8e-2);
}

}  // namespace
}  // namespace dinar::nn
