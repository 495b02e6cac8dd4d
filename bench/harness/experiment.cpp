#include "experiment.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include "data/synthetic.h"
#include "util/error.h"
#include "util/logging.h"
#include "util/memory_tracker.h"

namespace dinar::bench {
namespace {

std::int64_t scaled(std::int64_t n, double scale, std::int64_t min_value) {
  return std::max<std::int64_t>(min_value,
                                static_cast<std::int64_t>(static_cast<double>(n) * scale));
}

attack::MiaConfig default_mia(int shadow_epochs, double lr, std::uint64_t seed) {
  attack::MiaConfig mia;
  mia.num_shadows = 2;
  mia.shadow_train = fl::TrainConfig{shadow_epochs, 64};
  mia.learning_rate = lr;
  mia.max_rows_per_shadow = 500;
  mia.seed = seed;
  return mia;
}

}  // namespace

DatasetCase get_case(const std::string& name, double scale) {
  DatasetCase c;
  c.name = name;
  c.seed = 2024;

  if (name == "purchase100") {
    // Paper: 97 324 records, 600 binary features, 100 classes, 6-layer
    // FCNN, 10 clients, 300 rounds, 10 local epochs.
    c.paper_model = "6-layer FCNN";
    const std::int64_t samples = scaled(3000, scale, 800);
    c.make_data = [samples](Rng& rng) {
      data::TabularSpec spec;
      spec.num_samples = samples;
      spec.num_features = 600;
      spec.num_classes = 100;
      spec.label_noise = 0.2;
      return data::make_tabular(spec, rng);
    };
    c.model_factory = nn::fcnn6_factory(600, 100, 256);
    c.num_clients = 10;
    c.rounds = static_cast<int>(scaled(12, scale, 5));
    c.local_epochs = 3;
    c.learning_rate = 1e-2;
    c.mia = default_mia(20, 1e-2, 41);
    return c;
  }

  if (name == "texas100") {
    // Paper: 67 330 records, 6 170 binary features (scaled to 1 024), 100
    // classes, same FCNN as Purchase100.
    c.paper_model = "6-layer FCNN";
    const std::int64_t samples = scaled(2400, scale, 700);
    c.make_data = [samples](Rng& rng) {
      data::TabularSpec spec;
      spec.num_samples = samples;
      spec.num_features = 1024;
      spec.num_classes = 100;
      spec.template_density = 0.1;  // hospital discharge rows are sparse
      spec.label_noise = 0.2;
      return data::make_tabular(spec, rng);
    };
    c.model_factory = nn::fcnn6_factory(1024, 100, 256);
    c.num_clients = 5;
    c.rounds = static_cast<int>(scaled(10, scale, 4));
    c.local_epochs = 3;
    c.learning_rate = 1e-2;
    c.mia = default_mia(18, 1e-2, 42);
    return c;
  }

  if (name == "cifar10" || name == "cifar100") {
    // Paper: 50 000 32x32x3 images, ResNet20, 5 clients, 50 rounds.
    c.paper_model = "ResNet20";
    const int classes = name == "cifar10" ? 10 : 100;
    const std::int64_t samples = scaled(2000, scale, 600);
    c.make_data = [samples, classes](Rng& rng) {
      data::ImageSpec spec;
      spec.num_samples = samples;
      spec.channels = 3;
      spec.image_size = 12;
      spec.num_classes = classes;
      spec.label_noise = 0.2;
      return data::make_images(spec, rng);
    };
    c.model_factory = nn::resnet_small_factory(3, 12, classes);
    c.num_clients = 5;
    c.rounds = static_cast<int>(scaled(8, scale, 4));
    c.local_epochs = 2;
    c.learning_rate = 1e-2;
    c.mia = default_mia(12, 1e-2, name == "cifar10" ? 43 : 44);
    return c;
  }

  if (name == "gtsrb") {
    // Paper: 51 389 images, 43 classes, VGG11.
    c.paper_model = "VGG11";
    const std::int64_t samples = scaled(2000, scale, 600);
    c.make_data = [samples](Rng& rng) {
      data::ImageSpec spec;
      spec.num_samples = samples;
      spec.channels = 3;
      spec.image_size = 12;
      spec.num_classes = 43;
      spec.label_noise = 0.2;
      return data::make_images(spec, rng);
    };
    c.model_factory = nn::vgg_small_factory(3, 12, 43, 4);
    c.num_clients = 5;
    c.rounds = static_cast<int>(scaled(8, scale, 4));
    c.local_epochs = 2;
    c.learning_rate = 1e-2;
    c.mia = default_mia(12, 1e-2, 45);
    return c;
  }

  if (name == "celeba") {
    // Paper: 202 599 faces, 32 composite-attribute classes, VGG11; the
    // Figure 4 analysis uses an 8-parameter-layer CNN — vgg_small with 6
    // conv blocks has exactly 8 parameterized layers.
    c.paper_model = "VGG11 (8 param layers)";
    const std::int64_t samples = scaled(2000, scale, 600);
    c.make_data = [samples](Rng& rng) {
      data::ImageSpec spec;
      spec.num_samples = samples;
      spec.channels = 3;
      spec.image_size = 12;
      spec.num_classes = 32;
      spec.label_noise = 0.2;
      return data::make_images(spec, rng);
    };
    c.model_factory = nn::vgg_small_factory(3, 12, 32, 6);
    c.num_clients = 5;
    c.rounds = static_cast<int>(scaled(8, scale, 4));
    c.local_epochs = 2;
    c.learning_rate = 1e-2;
    c.mia = default_mia(12, 1e-2, 46);
    return c;
  }

  if (name == "speechcommands") {
    // Paper: 64 727 one-second utterances, 35 words, M18 1-D CNN.
    c.paper_model = "M18 (1-D CNN)";
    const std::int64_t samples = scaled(1800, scale, 600);
    c.make_data = [samples](Rng& rng) {
      data::AudioSpec spec;
      spec.num_samples = samples;
      spec.length = 512;
      spec.num_classes = 36;
      spec.label_noise = 0.2;
      return data::make_audio(spec, rng);
    };
    c.model_factory = nn::m5_audio_factory(512, 36);
    c.num_clients = 5;
    c.rounds = static_cast<int>(scaled(8, scale, 4));
    c.local_epochs = 2;
    c.learning_rate = 1e-2;
    c.mia = default_mia(14, 1e-2, 47);
    return c;
  }

  throw Error("unknown dataset case: " + name);
}

std::vector<std::string> all_case_names() {
  return {"purchase100", "texas100", "cifar10", "cifar100",
          "gtsrb",       "celeba",   "speechcommands"};
}

DatasetCase small_mlp_case(double scale) {
  DatasetCase c;
  c.name = "synthetic-small";
  c.paper_model = "narrow FCNN";
  c.seed = 2024;
  const std::int64_t samples = scaled(1600, scale, 320);
  c.make_data = [samples](Rng& rng) {
    data::TabularSpec spec;
    spec.num_samples = samples;
    spec.num_features = 64;
    spec.num_classes = 8;
    spec.label_noise = 0.05;
    return data::make_tabular(spec, rng);
  };
  c.model_factory = nn::fcnn6_factory(64, 8, 32);
  c.num_clients = 10;
  c.rounds = static_cast<int>(scaled(8, scale, 3));
  c.local_epochs = 2;
  c.learning_rate = 2e-2;
  c.mia = default_mia(8, 1e-2, 48);
  return c;
}

PreparedCase prepare_case(const DatasetCase& spec, double dirichlet_alpha, bool fit_mia) {
  PreparedCase prepared;
  prepared.spec = spec;

  Rng rng(spec.seed);
  data::Dataset full = spec.make_data(rng);

  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = spec.num_clients;
  split_cfg.dirichlet_alpha = dirichlet_alpha;
  prepared.split = data::make_fl_split(full, split_cfg, rng);

  // DINAR preliminary phase (§4.1): per-client sensitivity + consensus.
  core::DinarInitConfig init_cfg;
  init_cfg.warmup = fl::TrainConfig{std::max(3, spec.local_epochs * 2),
                                    spec.batch_size};
  init_cfg.learning_rate = spec.learning_rate;
  init_cfg.seed = spec.seed ^ 0xD1AA;
  const core::DinarInitResult init = core::run_dinar_initialization(
      spec.model_factory, prepared.split.client_train, prepared.split.test, init_cfg);
  prepared.dinar_layer = init.agreed_layer;

  if (fit_mia) {
    prepared.mia = std::make_shared<attack::ShadowMia>(
        spec.model_factory, prepared.split.attacker_prior, spec.mia);
    prepared.mia->fit();
  }
  return prepared;
}

fl::DefenseBundle make_bundle(const std::string& name, const PreparedCase& prepared,
                              const privacy::BaselineDefenseConfig& baseline_cfg) {
  if (name == "dinar")
    return core::make_dinar_bundle({prepared.dinar_layer},
                                   prepared.spec.seed ^ 0xD1BA);
  privacy::BaselineDefenseConfig cfg = baseline_cfg;
  cfg.num_clients = prepared.spec.num_clients;
  return privacy::make_baseline_bundle(name, cfg);
}

ExperimentResult run_experiment(const PreparedCase& prepared,
                                const fl::DefenseBundle& bundle,
                                const std::string& optimizer) {
  const DatasetCase& spec = prepared.spec;

  MemoryTracker::instance().reset_peak();

  fl::SimulationConfig cfg;
  cfg.rounds = spec.rounds;
  cfg.train = fl::TrainConfig{spec.local_epochs, spec.batch_size};
  cfg.learning_rate = spec.learning_rate;
  cfg.optimizer = optimizer;
  cfg.seed = spec.seed + 7;

  fl::FederatedSimulation sim(spec.model_factory, prepared.split, cfg, bundle);
  sim.run();

  ExperimentResult result;
  result.defense = bundle.name;
  const fl::RoundRecord& last = sim.history().back();
  result.global_accuracy = last.global_test_accuracy;
  result.personalized_accuracy = last.personalized_test_accuracy;
  result.client_train_seconds_per_round =
      sim.mean_client_train_seconds() / spec.rounds;
  result.client_defense_seconds_per_round =
      sim.mean_client_defense_seconds() / spec.rounds;
  result.server_aggregate_seconds_per_round =
      sim.server_aggregation_seconds() / spec.rounds;
  result.peak_memory_bytes = MemoryTracker::instance().peak_bytes();
  result.uplink_bytes = sim.transport().stats().bytes_up;

  if (prepared.mia != nullptr) {
    const attack::PrivacyReport report = attack::evaluate_privacy(sim, *prepared.mia);
    result.global_attack_auc = report.global_attack_auc;
    result.local_attack_auc = report.mean_local_attack_auc;
  }
  return result;
}

double parse_scale(int argc, char** argv) {
  double scale = 1.0;
  if (const char* env = std::getenv("DINAR_BENCH_SCALE")) scale = std::atof(env);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scale=", 8) == 0) scale = std::atof(argv[i] + 8);
    if (std::strcmp(argv[i], "--quick") == 0) scale = 0.35;
  }
  if (!(scale > 0.0) || scale > 4.0) scale = 1.0;
  return scale;
}

bool parse_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

unsigned parse_threads(int argc, char** argv) {
  unsigned threads = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0)
      threads = static_cast<unsigned>(std::atoi(argv[i] + 10));
    else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc)
      threads = static_cast<unsigned>(std::atoi(argv[i + 1]));
  }
  return threads;
}

double median(std::vector<double> samples) {
  DINAR_CHECK(!samples.empty(), "median of no samples");
  const auto mid = samples.begin() + static_cast<std::ptrdiff_t>(samples.size() / 2);
  std::nth_element(samples.begin(), mid, samples.end());
  if (samples.size() % 2 == 1) return *mid;
  return 0.5 * (*mid + *std::max_element(samples.begin(), mid));
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out += ch;
        }
    }
  }
  return out;
}

}  // namespace

BenchJson::BenchJson(std::string bench_name) : name_(std::move(bench_name)) {
  DINAR_CHECK(!name_.empty(), "BenchJson needs a bench name");
}

BenchJson& BenchJson::begin_row() {
  rows_.emplace_back();
  return *this;
}

BenchJson& BenchJson::field(const std::string& key, double value) {
  DINAR_CHECK(!rows_.empty(), "BenchJson::field before begin_row");
  char buf[64];
  if (std::isfinite(value)) {
    std::snprintf(buf, sizeof(buf), "%.10g", value);
  } else {
    std::snprintf(buf, sizeof(buf), "null");  // JSON has no NaN/Inf
  }
  rows_.back().emplace_back(key, buf);
  return *this;
}

BenchJson& BenchJson::field(const std::string& key, std::int64_t value) {
  DINAR_CHECK(!rows_.empty(), "BenchJson::field before begin_row");
  rows_.back().emplace_back(key, std::to_string(value));
  return *this;
}

BenchJson& BenchJson::field(const std::string& key, const std::string& value) {
  DINAR_CHECK(!rows_.empty(), "BenchJson::field before begin_row");
  std::string quoted;
  quoted.reserve(value.size() + 2);
  quoted.append(1, '"').append(json_escape(value)).append(1, '"');
  rows_.back().emplace_back(key, std::move(quoted));
  return *this;
}

std::string BenchJson::path() const {
  std::string upper = name_;
  for (char& ch : upper) ch = static_cast<char>(std::toupper(static_cast<unsigned char>(ch)));
  return "BENCH_" + upper + ".json";
}

std::string BenchJson::to_string() const {
  std::string out = "{\n  \"bench\": \"";
  out.append(json_escape(name_)).append("\",\n  \"rows\": [");
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "    {";
    for (std::size_t j = 0; j < rows_[i].size(); ++j) {
      if (j != 0) out += ", ";
      out.append(1, '"').append(json_escape(rows_[i][j].first)).append("\": ");
      out.append(rows_[i][j].second);
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

void BenchJson::write() const {
  const std::string file = path();
  std::ofstream out(file, std::ios::trunc);
  DINAR_CHECK(out.good(), "cannot open " << file << " for writing");
  out << to_string();
  out.flush();
  DINAR_CHECK(out.good(), "failed writing " << file);
  std::printf("\nmachine-readable results: %s (%zu rows)\n", file.c_str(),
              rows_.size());
}

void print_header(const std::string& title, const std::string& paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("Reproduces: %s (DINAR, MIDDLEWARE '24)\n", paper_ref.c_str());
  std::printf("================================================================\n");
}

void print_table_header(const std::string& label, const std::vector<std::string>& cols,
                        int width) {
  std::printf("%-24s", label.c_str());
  for (const std::string& c : cols) std::printf("%*s", width, c.c_str());
  std::printf("\n");
  std::printf("%s\n",
              std::string(24 + cols.size() * static_cast<std::size_t>(width), '-')
                  .c_str());
}

void print_table_row(const std::string& label, const std::vector<double>& values,
                     int width, int precision) {
  std::printf("%-24s", label.c_str());
  for (double v : values) {
    // Widen the fixed precision until a non-zero value shows 3 significant
    // digits (a 0.4 ms phase would otherwise print as 0.0); values too
    // small for the column switch to scientific notation.
    int digits = precision;
    if (v != 0.0 && std::isfinite(v)) {
      const int magnitude = static_cast<int>(std::floor(std::log10(std::fabs(v))));
      digits = std::max(digits, 2 - magnitude);
    }
    if (digits > width - 3)
      std::printf("%*.2e", width, v);
    else
      std::printf("%*.*f", width, digits, v);
  }
  std::printf("\n");
}

}  // namespace dinar::bench
