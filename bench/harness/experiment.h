// Shared experiment harness for the paper-reproduction benches.
//
// Each bench binary regenerates one table/figure. They all share:
//  - the dataset registry: scaled-down analogues of the paper's six
//    datasets (Table 2), each paired with its model architecture and FL
//    schedule (§5.3);
//  - the runner: trains an FL simulation under a named defense, fits the
//    shadow-model MIA once per dataset (the attack depends on data +
//    architecture, not on the defense), and reports privacy (attack AUC),
//    utility (accuracy) and cost metrics;
//  - table printers that emit the measured value next to the paper's
//    reported value for every artifact.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "attack/evaluation.h"
#include "core/dinar.h"
#include "privacy/defense_catalog.h"

namespace dinar::bench {

// A scaled-down analogue of one of the paper's datasets, fully specifying
// data generation, model architecture, FL schedule and attack effort.
struct DatasetCase {
  std::string name;         // e.g. "purchase100"
  std::string paper_model;  // e.g. "6-layer FCNN"
  std::function<data::Dataset(Rng&)> make_data;
  nn::ModelFactory model_factory;
  int num_clients = 5;
  int rounds = 10;
  int local_epochs = 3;
  std::int64_t batch_size = 64;
  double learning_rate = 1e-2;
  attack::MiaConfig mia;
  std::uint64_t seed = 2024;
};

// Registry of the six dataset analogues; `scale` in (0, 1] shrinks sample
// counts and rounds proportionally for quick runs.
DatasetCase get_case(const std::string& name, double scale = 1.0);
std::vector<std::string> all_case_names();

// A deliberately small tabular case (64 features, 8 classes, narrow FCNN)
// for robustness sweeps and CI smoke runs, where the paper-scale cases are
// needlessly heavy. Not part of all_case_names(): the figure benches
// iterate that list and must keep reproducing the paper's six datasets.
DatasetCase small_mlp_case(double scale = 1.0);

// A case with its data realized and the MIA fitted — reused across all
// defenses of one experiment.
struct PreparedCase {
  DatasetCase spec;
  data::FlSplit split;
  std::shared_ptr<attack::ShadowMia> mia;
  std::size_t dinar_layer = 0;  // consensus-agreed protected layer
};

// Generates data, splits it per the paper's layout, runs DINAR
// initialization (consensus on the protected layer), and fits the MIA.
// `dirichlet_alpha` configures non-IID shards (inf = IID).
PreparedCase prepare_case(const DatasetCase& spec,
                          double dirichlet_alpha =
                              std::numeric_limits<double>::infinity(),
                          bool fit_mia = true);

struct ExperimentResult {
  std::string defense;
  double global_attack_auc = 0.5;
  double local_attack_auc = 0.5;
  double global_accuracy = 0.0;
  double personalized_accuracy = 0.0;
  double client_train_seconds_per_round = 0.0;
  double client_defense_seconds_per_round = 0.0;
  double server_aggregate_seconds_per_round = 0.0;
  std::uint64_t peak_memory_bytes = 0;
  std::uint64_t uplink_bytes = 0;
};

// Known defense names: none, ldp, cdp, wdp, gc, sa, dinar.
fl::DefenseBundle make_bundle(const std::string& name, const PreparedCase& prepared,
                              const privacy::BaselineDefenseConfig& baseline_cfg);

// Trains under `bundle` and evaluates privacy + utility + costs.
// `optimizer` overrides the case's optimizer (Figure 11 ablation).
ExperimentResult run_experiment(const PreparedCase& prepared,
                                const fl::DefenseBundle& bundle,
                                const std::string& optimizer = "adagrad");

// ---------------------------------------------------------------- output --

// Parses a bench binary's command line: supports `--scale=<f>` (default
// from DINAR_BENCH_SCALE env or 1.0) and `--quick` (= --scale=0.35).
double parse_scale(int argc, char** argv);

// True if `flag` (e.g. "--smoke") appears on the command line.
bool parse_flag(int argc, char** argv, const char* flag);

// Parses `--threads=N` / `--threads N` (default 1 = sequential; 0 = all
// hardware threads). Feeds SimulationConfig::exec.threads — results are
// bit-identical for any value, only wall-clock changes.
unsigned parse_threads(int argc, char** argv);

// CI timing gates judge the median of this many timed runs, so one run
// slowed by a busy host cannot flip the verdict.
inline constexpr int kGateTimedRuns = 5;

// Median of `samples` (non-empty; the mean of the two middle values for
// an even count).
double median(std::vector<double> samples);

// Machine-readable companion to the printed tables: collects rows of named
// values and writes them as a JSON array to BENCH_<NAME>.json (next to the
// working directory the bench ran in), so successive runs can be tracked
// as a trajectory instead of scraping stdout.
class BenchJson {
 public:
  // `bench_name` is lower-case, e.g. "faults" -> BENCH_FAULTS.json.
  explicit BenchJson(std::string bench_name);

  BenchJson& begin_row();
  BenchJson& field(const std::string& key, double value);
  BenchJson& field(const std::string& key, std::int64_t value);
  BenchJson& field(const std::string& key, const std::string& value);

  std::string path() const;
  std::string to_string() const;
  // Writes the file and prints its path; throws dinar::Error on I/O failure.
  void write() const;

 private:
  std::string name_;
  // Rows of (key, already-JSON-encoded value), in insertion order.
  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

void print_header(const std::string& title, const std::string& paper_ref);

// Fixed-width row printing: print_row("DINAR", {50.0, 62.1}) etc. Every
// non-zero value gets at least 3 significant digits, so `precision` is a
// minimum number of decimals.
void print_table_row(const std::string& label, const std::vector<double>& values,
                     int width = 12, int precision = 1);
void print_table_header(const std::string& label, const std::vector<std::string>& cols,
                        int width = 12);

}  // namespace dinar::bench
