#include "workloads.h"

#include <cstdio>

#include "core/dinar.h"
#include "data/synthetic.h"
#include "net/frame.h"
#include "tracer.h"
#include "util/error.h"

namespace perfbench {
namespace {

using namespace dinar;

// Independent 64-bit seeds per purpose, all derived from the run's seed.
enum SeedStream : std::uint64_t {
  kDataSeed = 1,
  kSimSeed = 2,
  kFaultSeed = 3,
  kObfuscationSeed = 4,
  kInitSeed = 5,
};
// The fixed DINAR layer of the Fcnn6 workloads (32 -> 16, 528 values).
constexpr std::size_t kTabularLayer = 4;
constexpr int kTabularClasses = 10;

std::uint64_t derive(std::uint64_t seed, SeedStream stream) {
  return Rng(seed).fork(stream).next_u64();
}

// Forwards every hook to DINAR and records on_download (Model
// Personalization: restore theta_p^*) and before_upload (Model
// Obfuscation) as spans of the calling exchange.
class TracedDefense final : public fl::ClientDefense {
 public:
  TracedDefense(std::unique_ptr<fl::ClientDefense> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  void save_state(BinaryWriter& w) const override { inner_->save_state(w); }
  void restore_state(BinaryReader& r) override { inner_->restore_state(r); }
  void initialize(nn::Model& model, int client_id) override {
    inner_->initialize(model, client_id);
  }
  void on_download(nn::Model& model, const nn::FlatParams& global_params) override {
    Tracer::Scope span(tracer_, "core.dinar.on_download");
    inner_->on_download(model, global_params);
  }
  nn::FlatParams before_upload(nn::Model& model, nn::FlatParams params,
                               std::int64_t num_samples, bool& pre_weighted) override {
    Tracer::Scope span(tracer_, "core.dinar.before_upload");
    return inner_->before_upload(model, std::move(params), num_samples, pre_weighted);
  }

 private:
  std::unique_ptr<fl::ClientDefense> inner_;
  Tracer* tracer_;
};

// Federation settings shared by all three workloads: 2 pool workers,
// Adagrad, batch 64, every client selected every round. The
// simulation's round budget is set far beyond any run so that neither
// run() bookkeeping nor recovery ever treats a round as the last one; the
// benchmark drives rounds itself.
fl::SimulationConfig base_config(std::uint64_t seed, int local_epochs, double lr) {
  fl::SimulationConfig cfg;
  cfg.rounds = 1 << 20;
  cfg.train = fl::TrainConfig{local_epochs, 64};
  cfg.learning_rate = lr;
  cfg.optimizer = "adagrad";
  cfg.seed = derive(seed, kSimSeed);
  cfg.client_fraction = 1.0;
  cfg.eval_every = 0;
  cfg.exec.threads = 2;
  return cfg;
}

}  // namespace

WorkloadSpec workload_spec(const std::string& name) {
  WorkloadSpec w;
  w.name = name;
  if (name == "paper_vgg_dinar") {
    w.rounds_per_repeat = 12;
  } else if (name == "cohort_robust_durable") {
    w.rounds_per_repeat = 14;
    w.durable = true;
    w.snapshot_every = 3;
  } else if (name == "socket_dense_f16") {
    w.rounds_per_repeat = 100;
  } else {
    throw Error("unknown workload '" + name +
                "' (known: paper_vgg_dinar, cohort_robust_durable, socket_dense_f16)");
  }
  return w;
}

Inputs make_inputs(const std::string& workload, std::uint64_t seed, Tracer* tracer) {
  workload_spec(workload);  // rejects unknown names before any work
  Inputs in;
  in.obfuscation_seed = derive(seed, kObfuscationSeed);
  Rng data_rng(derive(seed, kDataSeed));

  if (workload == "paper_vgg_dinar") {
    // The bench harness's GTSRB analogue (VGG11 in the paper): 43 classes of
    // 12x12x3 images, 5 clients, 2 local epochs.
    Tracer::Scope span(tracer, "data.generate");
    data::ImageSpec spec;
    spec.num_samples = 2000;
    spec.channels = 3;
    spec.image_size = 12;
    spec.num_classes = 43;
    spec.label_noise = 0.2;
    data::FlSplitConfig split;  // the paper's layout: half attacker pool, 80/20
    split.num_clients = 5;
    in.split = data::make_fl_split(data::make_images(spec, data_rng), split, data_rng);
    in.model_factory = nn::vgg_small_factory(3, 12, 43, 4);
    in.local_epochs = 2;
    in.learning_rate = 1e-2;
  } else {
    // Purchase-style tabular task (6-layer FCNN in the paper): 600 binary
    // features, Fcnn6 of width 256 (~198k parameters). Ten classes and a
    // smaller step than the paper case keep personalized accuracy climbing
    // steadily, so it can serve as an output check; 5% of the samples go
    // to the (unused) attacker pool.
    const bool cohort = workload == "cohort_robust_durable";
    Tracer::Scope span(tracer, "data.generate");
    data::TabularSpec spec;
    spec.num_samples = cohort ? 2480 : 1000;
    spec.num_features = 600;
    spec.num_classes = kTabularClasses;
    spec.label_noise = 0.2;
    data::FlSplitConfig split;
    split.num_clients = cohort ? 32 : 4;
    split.attacker_fraction = 0.05;
    split.train_fraction = cohort ? 0.87 : 0.17;
    in.split = data::make_fl_split(data::make_tabular(spec, data_rng), split, data_rng);
    in.model_factory = nn::fcnn6_factory(600, kTabularClasses, 256);
    in.local_epochs = 1;
    in.learning_rate = 3e-3;
  }
  in.config = base_config(seed, in.local_epochs, in.learning_rate);
  if (workload == "paper_vgg_dinar") {
    // DINAR preliminary phase (paper §4.1): warm-up training, per-layer
    // sensitivity, Byzantine-tolerant vote on the protected layer.
    Tracer::Scope span(tracer, "core.dinar_init");
    core::DinarInitConfig init;
    init.warmup = fl::TrainConfig{4, 64};
    init.learning_rate = 1e-2;
    init.seed = derive(seed, kInitSeed);
    in.dinar_layer =
        core::run_dinar_initialization(in.model_factory, in.split.client_train,
                                       in.split.test, init)
            .agreed_layer;
  } else if (workload == "cohort_robust_durable") {
    // Server-heavy: 32 clients, coordinate-wise median over 4 shards,
    // int8 + top-10% uplink (the obfuscated layer stays lossless), lossy
    // uplinks with quorum 16 and one retry.
    in.dinar_layer = kTabularLayer;
    in.config.robust.method = "median";
    in.config.shard.num_shards = 4;
    in.config.faults.drop_up = 0.05;
    in.config.faults.corrupt_up = 0.02;
    in.config.faults.seed = derive(seed, kFaultSeed);
    in.config.min_clients = 16;
    in.config.max_retries = 1;
    in.config.codec.update.encoding = fl::WireEncoding::kInt8;
    in.config.codec.update.topk_fraction = 0.1;
  } else {
    // Wire-heavy: 4 clients over loopback TCP, dense f16 both ways.
    in.dinar_layer = kTabularLayer;
    in.config.socket_transport = true;
    in.config.codec.broadcast.encoding = fl::WireEncoding::kF16;
    in.config.codec.update.encoding = fl::WireEncoding::kF16;
  }
  return in;
}

fl::DefenseBundle make_bundle(const Inputs& in, Tracer* tracer) {
  fl::DefenseBundle bundle =
      core::make_dinar_bundle({in.dinar_layer}, in.obfuscation_seed);
  if (tracer != nullptr) {
    bundle.make_client = [inner = bundle.make_client, tracer](int client_id) {
      return std::make_unique<TracedDefense>(inner(client_id), tracer);
    };
  }
  return bundle;
}

std::string params_hash(const nn::FlatParams& params) {
  const std::span<const float> v = params.as_span();
  const std::uint64_t h = net::fnv1a64(reinterpret_cast<const std::uint8_t*>(v.data()),
                                       v.size() * sizeof(float));
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace perfbench
