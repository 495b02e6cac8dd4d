// Copy-bandwidth bench for the parameter data model: counts per-round
// parameter-arena allocations and bulk parameter copies on the
// exchange+aggregate hot path (snapshot -> serialize -> deserialize ->
// FedAvg) of the contiguous FlatParams arena. Writes BENCH_COPYBW.json.
// Gated in every mode: a round may allocate at most 2 * clients + 2 arenas
// (`kAllocsPerClient`, `kAllocsPerRound`), so a copy added anywhere on the
// path fails the run.
//
// Second sweep: the DFRM wire codec (DESIGN.md §14) — accuracy vs
// bytes/round across encodings (f32 / f16 / bf16 / int8 / int8+top-k) and
// its interaction with the DINAR obfuscation defense (obfuscated entries
// ride lossless, shrinking the savings) and DP noise (quantization on top
// of calibrated noise). Two codec gates, both live under `--smoke`: int8 +
// top-k(0.1) must cut uplink wire bytes by >= 4x, and the lossless f32 run
// must reach 2x chance accuracy, since an accuracy column of untrained
// models cannot show what a codec costs. The DINAR row reports its
// clients' personalized accuracy; its global model is obfuscated.
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "fl/server.h"
#include "fl/simulation.h"
#include "harness/experiment.h"
#include "nn/model_zoo.h"
#include "util/memory_tracker.h"

namespace dinar::bench {
namespace {

// The codec sweep's accuracy column only shows a codec's cost if the
// uncompressed run learns: the f32 row must reach this multiple of chance.
constexpr double kLearnsOverChance = 2.0;

// Arena allocations one round of run_flat may make: per client a snapshot
// and a decode, per round the FedAvg accumulator and the combined model.
constexpr int kAllocsPerClient = 2;
constexpr int kAllocsPerRound = 2;

struct RoundCost {
  double allocs_per_round = 0.0;
  double alloc_bytes_per_round = 0.0;
  double copied_bytes_per_round = 0.0;
  double wire_bytes_per_round = 0.0;
};

struct TrackerMark {
  std::uint64_t events;
  std::uint64_t bytes;
  std::uint64_t copied;
};

TrackerMark mark() {
  const MemoryTracker& t = MemoryTracker::instance();
  return {t.alloc_events(), t.allocated_bytes_total(), t.copied_bytes_total()};
}

// One round on the FlatParams path: every client snapshots the model into a
// flat arena, frames it as a lossless update, the server decodes and FedAvgs.
RoundCost run_flat(nn::Model& model, int clients, int rounds) {
  fl::FlServer server(model.parameters(), std::make_unique<fl::NoServerDefense>());
  RoundCost cost;
  for (int r = 0; r < rounds; ++r) {
    const TrackerMark before = mark();
    std::vector<fl::ModelUpdateMsg> inbox;
    for (int c = 0; c < clients; ++c) {
      fl::ModelUpdateMsg u;
      u.client_id = c;
      u.round = server.round();
      u.num_samples = 100 + c;
      u.params = model.parameters();  // one arena allocation
      const auto bytes = u.serialize();
      cost.wire_bytes_per_round += static_cast<double>(bytes.size());
      inbox.push_back(fl::ModelUpdateMsg::deserialize(bytes));
    }
    server.aggregate(inbox);
    const TrackerMark after = mark();
    cost.allocs_per_round += static_cast<double>(after.events - before.events);
    cost.alloc_bytes_per_round += static_cast<double>(after.bytes - before.bytes);
    cost.copied_bytes_per_round += static_cast<double>(after.copied - before.copied);
  }
  cost.allocs_per_round /= rounds;
  cost.alloc_bytes_per_round /= rounds;
  cost.copied_bytes_per_round /= rounds;
  cost.wire_bytes_per_round /= rounds;
  return cost;
}

// ----------------------------------------------------- wire-codec sweep --

std::uint64_t param_hash(const nn::FlatParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : params.as_span()) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 32; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct CodecRun {
  double bytes_up = 0.0, bytes_down = 0.0;        // per round, as shipped
  double uncoded_up = 0.0, uncoded_down = 0.0;    // per round, raw-f32 baseline
  double global_accuracy = 0.0;
  double personalized_accuracy = 0.0;
  double chance = 0.0;  // 1 / number of classes
  std::uint64_t final_hash = 0;
};

// One full (small) federated run under `codec` and the named defense.
// Wire savings are read from the uncoded-bytes counters the codec turns on
// in TransportStats, so every cell carries its own raw-f32 baseline.
CodecRun run_codec_cell(const DatasetCase& spec,
                        const fl::UpdateCodecConfig& codec,
                        const std::string& defense) {
  Rng rng(spec.seed);
  const data::Dataset full = spec.make_data(rng);
  const int classes = full.num_classes();
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = spec.num_clients;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  fl::SimulationConfig cfg;
  cfg.rounds = spec.rounds;
  cfg.train = fl::TrainConfig{spec.local_epochs, spec.batch_size};
  cfg.learning_rate = spec.learning_rate;
  cfg.seed = spec.seed + 3;
  cfg.codec = codec;

  fl::DefenseBundle bundle;
  if (defense == "dinar") {
    bundle = core::make_dinar_bundle({1});
  } else if (defense == "wdp") {
    privacy::BaselineDefenseConfig dp_cfg;
    dp_cfg.num_clients = spec.num_clients;
    bundle = privacy::make_baseline_bundle("wdp", dp_cfg);
  }

  fl::FederatedSimulation sim(spec.model_factory, std::move(split), cfg,
                              std::move(bundle));
  sim.run();

  const fl::TransportStats& s = sim.transport().stats();
  const double rounds = static_cast<double>(spec.rounds);
  CodecRun out;
  out.bytes_up = static_cast<double>(s.bytes_up) / rounds;
  out.bytes_down = static_cast<double>(s.bytes_down) / rounds;
  out.uncoded_up = static_cast<double>(s.bytes_up_uncoded) / rounds;
  out.uncoded_down = static_cast<double>(s.bytes_down_uncoded) / rounds;
  const fl::RoundRecord eval = sim.evaluate_now();
  out.global_accuracy = eval.global_test_accuracy;
  out.personalized_accuracy = eval.personalized_test_accuracy;
  out.chance = 1.0 / classes;
  out.final_hash = param_hash(sim.server().global_params());
  return out;
}

void add_row(BenchJson& json, const char* path, int clients, const RoundCost& c) {
  json.begin_row()
      .field("path", std::string(path))
      .field("clients", static_cast<std::int64_t>(clients))
      .field("allocs_per_round", c.allocs_per_round)
      .field("alloc_bytes_per_round", c.alloc_bytes_per_round)
      .field("copied_bytes_per_round", c.copied_bytes_per_round)
      .field("wire_bytes_per_round", c.wire_bytes_per_round);
}

int run(int argc, char** argv) {
  const bool smoke = parse_flag(argc, argv, "--smoke");
  print_header("Parameter copy/alloc bandwidth — FlatParams exchange path",
               "engineering companion to Table 3's cost metrics");

  Rng rng(29);
  // The paper's 6-layer FCNN shape; --smoke shrinks width, not structure,
  // so the per-tensor overhead being measured keeps its 12 wire records.
  nn::Model model = smoke ? nn::make_fcnn6(20, 10, 32, rng)
                          : nn::make_fcnn6(600, 100, 256, rng);
  const int rounds = smoke ? 2 : 5;
  const std::vector<int> client_counts = smoke ? std::vector<int>{5}
                                               : std::vector<int>{5, 20};

  BenchJson json("copybw");
  print_table_header("path", {"clients", "allocs/rd", "MB alloc/rd",
                              "MB copied/rd", "MB wire/rd"});
  bool gate_ok = true;
  for (const int clients : client_counts) {
    const RoundCost flat = run_flat(model, clients, rounds);
    const double mb = 1.0 / (1024.0 * 1024.0);
    print_table_row("flat", {static_cast<double>(clients), flat.allocs_per_round,
                             flat.alloc_bytes_per_round * mb,
                             flat.copied_bytes_per_round * mb,
                             flat.wire_bytes_per_round * mb});
    add_row(json, "flat", clients, flat);
    const int bound = kAllocsPerClient * clients + kAllocsPerRound;
    std::printf("  allocs/round at %d clients: %.1f (gate: <= %d)\n", clients,
                flat.allocs_per_round, bound);
    if (flat.allocs_per_round > bound) gate_ok = false;
  }

  // -- wire-codec sweep -----------------------------------------------------
  // Accuracy vs bytes/round per codec, plus the defense interactions: the
  // DINAR bundle keeps its obfuscated entries lossless (smaller savings,
  // intact mechanism), WDP shows quantization composing with DP noise.
  std::printf("\nWire codec — accuracy vs bytes/round (DESIGN.md §14)\n");
  print_table_header("codec/defense", {"upKB/rd", "downKB/rd", "saved_x",
                                       "accuracy"});
  DatasetCase spec = small_mlp_case(smoke ? 0.35 : 1.0);
  spec.num_clients = 4;
  spec.rounds = smoke ? 3 : 6;
  if (smoke) {
    // Three rounds of 64-sample batches over ~140 samples per client leave
    // the 6-layer FCNN at chance (every row read 16.1%); smaller batches and
    // a larger step make it learn, so the codec rows' accuracy means
    // something (gated below).
    spec.batch_size = 16;
    spec.learning_rate = 5e-2;
  }

  fl::UpdateCodecConfig f16;
  f16.broadcast.encoding = fl::WireEncoding::kF16;
  f16.update.encoding = fl::WireEncoding::kF16;
  fl::UpdateCodecConfig bf16;
  bf16.broadcast.encoding = fl::WireEncoding::kBf16;
  bf16.update.encoding = fl::WireEncoding::kBf16;
  fl::UpdateCodecConfig int8;
  int8.broadcast.encoding = fl::WireEncoding::kF16;
  int8.update.encoding = fl::WireEncoding::kInt8;
  fl::UpdateCodecConfig int8_topk = int8;
  int8_topk.update.topk_fraction = 0.1;

  struct CodecCell {
    const char* name;
    fl::UpdateCodecConfig codec;
    const char* defense;
  };
  const std::vector<CodecCell> cells{
      {"f32", fl::UpdateCodecConfig{}, "none"},
      {"f16", f16, "none"},
      {"bf16", bf16, "none"},
      {"int8", int8, "none"},
      {"int8+top0.1", int8_topk, "none"},
      {"int8+top0.1", int8_topk, "dinar"},
      {"int8+top0.1", int8_topk, "wdp"},
  };

  bool reduction_ok = true, learns_ok = true;
  const double kb = 1.0 / 1024.0;
  for (const CodecCell& cell : cells) {
    const CodecRun r = run_codec_cell(spec, cell.codec, cell.defense);
    const double saved_up = r.uncoded_up > 0.0 && r.bytes_up > 0.0
                                ? r.uncoded_up / r.bytes_up
                                : 1.0;
    // DINAR's global model carries an obfuscated layer by design, so its
    // row reports what its clients use: the personalized models.
    const bool dinar = std::string(cell.defense) == "dinar";
    const double accuracy = dinar ? r.personalized_accuracy : r.global_accuracy;
    if (std::string(cell.name) == "f32")
      learns_ok = accuracy >= kLearnsOverChance * r.chance;
    if (std::string(cell.name) == "int8+top0.1" &&
        std::string(cell.defense) == "none" && saved_up < 4.0)
      reduction_ok = false;

    print_table_row(std::string(cell.name) + "/" + cell.defense,
                    {r.bytes_up * kb, r.bytes_down * kb, saved_up,
                     100.0 * accuracy});
    json.begin_row()
        .field("path", std::string("codec_sweep"))
        .field("codec", std::string(cell.name))
        .field("defense", std::string(cell.defense))
        .field("bytes_up_per_round", r.bytes_up)
        .field("bytes_down_per_round", r.bytes_down)
        .field("bytes_up_uncoded_per_round", r.uncoded_up)
        .field("bytes_down_uncoded_per_round", r.uncoded_down)
        .field("uplink_saved_ratio", saved_up)
        .field("global_accuracy", r.global_accuracy)
        .field("personalized_accuracy", r.personalized_accuracy)
        .field("accuracy_reported", std::string(dinar ? "personalized" : "global"))
        .field("final_model_hash", static_cast<std::int64_t>(r.final_hash >> 1));
  }
  std::printf("  expected: `saved_x` ~1 for f32, ~2x for f16/bf16, "
              ">= 4x for int8+top0.1 (gated); the dinar row saves less because "
              "its obfuscated layer ships lossless f32, and its accuracy is the "
              "personalized models' (its global model is obfuscated); the "
              "f16, bf16 and int8 rows hold the f32 row's accuracy, "
              "int8+top0.1 gives some up, and the f32 row must reach %.0fx chance "
              "(gated).\n",
              kLearnsOverChance);
  json.write();

  int rc = 0;
  if (!gate_ok) {
    std::fprintf(stderr,
                 "FAIL: the flat path allocated more than %d arenas per client "
                 "plus %d per round\n",
                 kAllocsPerClient, kAllocsPerRound);
    rc = 1;
  }
  if (!learns_ok) {
    std::fprintf(stderr,
                 "FAIL: the f32 run's global accuracy is below %.0fx chance, so the "
                 "accuracy column cannot show a codec's loss\n",
                 kLearnsOverChance);
    rc = 1;
  }
  if (!reduction_ok) {
    std::fprintf(stderr,
                 "FAIL: int8+top-k(0.1) saved less than 4x uplink wire bytes "
                 "per round\n");
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace dinar::bench

int main(int argc, char** argv) { return dinar::bench::run(argc, argv); }
