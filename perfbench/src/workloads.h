// The benchmark's three federations, each built from a seed.
//
// A workload is one federation in one process, driven closed-loop (round
// N+1 starts when round N commits) on 2 pool workers plus the
// coordinator thread. Every input — the dataset, the fault stream, the
// DINAR obfuscation stream, the simulation's own streams and the DINAR
// warm-up — is derived from the --seed the benchmark was given; the
// library only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fl/simulation.h"

namespace perfbench {

class Tracer;

struct WorkloadSpec {
  std::string name;
  int rounds_per_repeat = 0;
  // RoundStore attached (fsynced WAL every round, snapshot cadence).
  bool durable = false;
  int snapshot_every = 4;
};

// Known names: paper_vgg_dinar, cohort_robust_durable, socket_dense_f16.
// Throws dinar::Error on an unknown name.
WorkloadSpec workload_spec(const std::string& name);

// The generated inputs of one workload and seed.
struct Inputs {
  dinar::nn::ModelFactory model_factory;
  dinar::data::FlSplit split;
  dinar::fl::SimulationConfig config;
  std::size_t dinar_layer = 0;
  std::uint64_t obfuscation_seed = 0;
  int local_epochs = 1;
  double learning_rate = 1e-2;
};

// Generates the data and, on paper_vgg_dinar, runs the DINAR preliminary
// phase (per-client sensitivity + consensus) to pick the protected layer.
// With a tracer, both steps are recorded as spans.
Inputs make_inputs(const std::string& workload, std::uint64_t seed,
                   Tracer* tracer = nullptr);

// DINAR on the inputs' layer. With a tracer, every client's defense is
// wrapped so on_download / before_upload (and the per-layer restore and
// obfuscate work inside them) are recorded as spans.
dinar::fl::DefenseBundle make_bundle(const Inputs& in, Tracer* tracer = nullptr);

// FNV-1a 64 over the global model's arena bytes, as 16 hex digits.
std::string params_hash(const dinar::nn::FlatParams& params);

}  // namespace perfbench
