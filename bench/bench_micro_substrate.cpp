// Engineering microbenchmarks (google-benchmark) for the substrate hot
// paths: tensor math, layer forward/backward, serialization, FedAvg
// aggregation, obfuscation and the sensitivity statistics. Not a paper
// artifact; used to keep the simulator fast enough for the experiment
// suite.
#include <benchmark/benchmark.h>

#include <chrono>
#include <utility>

#include "core/obfuscation.h"
#include "fl/server.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "util/stats.h"

namespace dinar {
namespace {

void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(1);
  Tensor a = Tensor::gaussian({n, n}, rng);
  Tensor b = Tensor::gaussian({n, n}, rng);
  for (auto _ : state) {
    Tensor c = gemm(Trans::kN, Trans::kN, a, b);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_DenseForwardBackward(benchmark::State& state) {
  Rng rng(2);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  Tensor x = Tensor::gaussian({64, 600}, rng);
  std::vector<int> labels(64, 3);
  for (auto _ : state) {
    Tensor y = m.forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(y, labels);
    m.zero_grad();
    m.backward(loss.grad_logits);
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_DenseForwardBackward);

void BM_ConvForwardBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Model m = nn::make_resnet_small(3, 12, 10, rng);
  Tensor x = Tensor::gaussian({16, 3, 12, 12}, rng);
  std::vector<int> labels(16, 1);
  for (auto _ : state) {
    Tensor y = m.forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(y, labels);
    m.zero_grad();
    m.backward(loss.grad_logits);
    benchmark::DoNotOptimize(loss.mean_loss);
  }
}
BENCHMARK(BM_ConvForwardBackward);

// One local training step of the paper's Table 3 case (the GTSRB analogue,
// VggSmall on 12x12x3 images, 43 classes, batch 64): forward, loss and the
// backward pass the client trainer runs.
void BM_VggSmallTrainStep(benchmark::State& state) {
  Rng rng(9);
  nn::Model m = nn::vgg_small_factory(3, 12, 43, 4)(rng);
  Tensor x = Tensor::gaussian({64, 3, 12, 12}, rng);
  std::vector<int> labels(64);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = static_cast<int>(i % 43);
  for (auto _ : state) {
    Tensor y = m.forward(x, true);
    nn::LossResult loss = nn::softmax_cross_entropy(y, labels);
    m.zero_grad();
    m.backward(loss.grad_logits);
    benchmark::DoNotOptimize(loss.mean_loss);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_VggSmallTrainStep);

// BM_VggSmallTrainStep split by layer: the training forward (second
// argument 0) or backward (1) of layer `index` (first argument) alone, on
// the activation that layer sees in a step and a random gradient of its
// output's shape. Layer 0's backward is backward_params, as in a step.
// Inputs are copied outside the timed region, so each row times only the
// layer's own call, allocations and frees included.
void BM_VggSmallLayers(benchmark::State& state) {
  const auto index = static_cast<std::size_t>(state.range(0));
  const bool backward = state.range(1) != 0;
  Rng rng(9);
  nn::Model m = nn::vgg_small_factory(3, 12, 43, 4)(rng);
  if (index >= m.num_layers()) {
    state.SkipWithError("no such layer");
    return;
  }
  Tensor x = Tensor::gaussian({64, 3, 12, 12}, rng);
  for (std::size_t i = 0; i < index; ++i) x = m.layer(i).forward(std::move(x), true);
  nn::Layer& layer = m.layer(index);
  const Tensor grad = Tensor::gaussian(layer.forward(x, true).shape(), rng);
  for (auto _ : state) {
    Tensor in = backward ? grad : x;
    const auto start = std::chrono::steady_clock::now();
    if (!backward) {
      const Tensor y = layer.forward(std::move(in), true);
      benchmark::DoNotOptimize(y.data());
    } else if (index == 0) {
      layer.backward_params(std::move(in));
    } else {
      const Tensor dx = layer.backward(std::move(in));
      benchmark::DoNotOptimize(dx.data());
    }
    benchmark::ClobberMemory();
    state.SetIterationTime(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count());
  }
  state.SetLabel(layer.name() + (backward ? " backward" : " forward"));
}
BENCHMARK(BM_VggSmallLayers)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 13, 1), {0, 1}})
    ->UseManualTime();

void BM_ModelUpdateSerde(benchmark::State& state) {
  Rng rng(4);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  fl::ModelUpdateMsg msg;
  msg.client_id = 1;
  msg.num_samples = 100;
  msg.params = m.parameters();
  for (auto _ : state) {
    auto bytes = msg.serialize();
    fl::ModelUpdateMsg back = fl::ModelUpdateMsg::deserialize(bytes);
    benchmark::DoNotOptimize(back.params.as_span().data());
    state.SetBytesProcessed(state.bytes_processed() +
                            static_cast<std::int64_t>(bytes.size()));
  }
}
BENCHMARK(BM_ModelUpdateSerde);

void BM_FedAvgAggregate(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  Rng rng(5);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  std::vector<fl::ModelUpdateMsg> updates(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    updates[static_cast<std::size_t>(c)].client_id = c;
    updates[static_cast<std::size_t>(c)].num_samples = 100 + c;
    updates[static_cast<std::size_t>(c)].params = m.parameters();
  }
  for (auto _ : state) {
    fl::FlServer server(m.parameters(), std::make_unique<fl::NoServerDefense>());
    server.aggregate(updates);
    benchmark::DoNotOptimize(server.global_params().as_span().data());
  }
}
BENCHMARK(BM_FedAvgAggregate)->Arg(5)->Arg(20);

void BM_ObfuscateLayer(benchmark::State& state) {
  Rng rng(6);
  nn::Model m = nn::make_fcnn6(600, 100, 256, rng);
  Rng orng(7);
  for (auto _ : state) {
    nn::FlatParams snapshot = m.parameters();
    core::obfuscate_layer_in_snapshot(m, snapshot, 4, orng);
    benchmark::DoNotOptimize(snapshot.as_span().data());
  }
}
BENCHMARK(BM_ObfuscateLayer);

void BM_JsDivergenceSamples(benchmark::State& state) {
  Rng rng(8);
  std::vector<float> a(100000), b(100000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(rng.gaussian());
    b[i] = static_cast<float>(rng.gaussian(0.3, 1.1));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(js_divergence_samples(a, b));
  }
}
BENCHMARK(BM_JsDivergenceSamples);

}  // namespace
}  // namespace dinar

BENCHMARK_MAIN();
