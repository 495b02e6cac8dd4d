// DINAR benchmark engine: one workload, one seed, one process.
//
//   dinar_perfbench --workload NAME --seed N [--repeats R] [--rounds K]
//                   [--target ACC] [--acc-floor ACC] [--expect-hash HEX]
//                   [--trace 0|1] [--trace-file PATH] [--work-dir DIR]
//
// Both modes first run a short, untimed warm-up federation of --seed.
//
// Untraced (--trace 0): R repeats of the workload, each set up afresh and
// run for K closed-loop rounds.
// Repeats 1..R-1 run the federations of R-1 data seeds derived from --seed
// (the first is --seed itself); the last repeat runs the first one again,
// which proves the final model is reproducible. Timings are pooled over
// all repeats; accuracy and time to target are averaged over the distinct
// data seeds, which keeps them comparable between runs of different seeds.
//
// Traced (--trace 1): one untraced repeat of --seed as the reference, then
// the traced pass (traced_run.h) over the same federation.
//
// The output checks run in both modes. The last line of stdout is the
// report as JSON; perfbench/run.py is the user-facing command.
#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <sstream>

#include "store/round_store.h"
#include "traced_run.h"
#include "util/error.h"
#include "util/logging.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dinar;
using Clock = std::chrono::steady_clock;

// Timed recoveries per repeat; the repeat reports their median.
constexpr int kRecoveries = 5;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int repeats = 2;
  int rounds = 0;  // 0 = the workload's own count
  double target = 0.0;
  double acc_floor = 0.0;
  std::string expect_hash;
  bool trace = false;
  std::string trace_file = "perfbench-trace.json";
  std::string work_dir = ".bench_work";
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    DINAR_CHECK(i + 1 < argc, "missing value for " << key);
    const std::string v = argv[++i];
    if (key == "--workload") a.workload = v;
    else if (key == "--seed") a.seed = std::stoull(v);
    else if (key == "--repeats") a.repeats = std::stoi(v);
    else if (key == "--rounds") a.rounds = std::stoi(v);
    else if (key == "--target") a.target = std::stod(v);
    else if (key == "--acc-floor") a.acc_floor = std::stod(v);
    else if (key == "--expect-hash") a.expect_hash = v;
    else if (key == "--trace") a.trace = v == "1";
    else if (key == "--trace-file") a.trace_file = v;
    else if (key == "--work-dir") a.work_dir = v;
    else throw Error("unknown argument " + key);
  }
  DINAR_CHECK(!a.workload.empty(), "--workload is required");
  DINAR_CHECK(a.repeats >= 2,
              "--repeats must be at least 2 (the last one re-runs the first)");
  return a;
}

// Data seed of repeat `k`: --seed itself for the first, derived ones after.
std::uint64_t data_seed(std::uint64_t seed, int k) {
  if (k == 0) return seed;
  return Rng(seed).fork(0x5EED0000ULL + static_cast<std::uint64_t>(k)).next_u64();
}

// The highest standard percentile of n rounds that keeps at least 10 of
// them beyond it; 50 if none does.
double tail_percentile(std::int64_t n) {
  double tail_p = 50.0;
  for (const double p : {75.0, 90.0, 95.0, 99.0, 99.9})
    if (static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9) tail_p = p;
  return tail_p;
}

// Rounds of the untimed warm-up federation that runs before the repeats:
// without it the first repeat of a process pays for cold caches, page
// faults and the first socket connects.
int warmup_rounds(int rounds) { return std::min(rounds, std::max(2, rounds / 10)); }

// Rounds at the end of a repeat whose accuracy is averaged.
int late_rounds(int rounds) { return std::max(1, rounds / 4); }

// One federation, set up afresh: K closed-loop rounds, then a restart
// from what the workload persisted.
struct Repeat {
  std::uint64_t seed = 0;
  double setup_s = 0.0;
  std::vector<double> round_ms;
  std::vector<double> samples_per_s;  // per round: trained samples / round time
  std::vector<double> accuracy;       // personalized test accuracy, per evaluation
  double time_to_target_s = -1.0;  // -1 = target never reached
  std::string hash;
  double recover_s = 0.0;
  fl::TransportStats wire;
  std::int64_t exchanges = 0;  // trained exchanges, every attempt counted
  std::int64_t accepted = 0;
  std::vector<std::uint64_t> wal_record_bytes;
  std::vector<std::uint64_t> snapshot_bytes;

  // Mean personalized accuracy over the last quarter of the rounds.
  double late_accuracy() const {
    const std::size_t n =
        std::min(accuracy.size(), static_cast<std::size_t>(late_rounds(
                                      static_cast<int>(round_ms.size()))));
    double s = 0.0;
    for (std::size_t i = accuracy.size() - n; i < accuracy.size(); ++i) s += accuracy[i];
    return s / static_cast<double>(n);
  }
};

std::uint64_t newest_snapshot_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  std::filesystem::file_time_type newest{};
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    if (e.path().extension() != ".snap") continue;
    if (bytes == 0 || e.last_write_time() > newest) {
      newest = e.last_write_time();
      bytes = e.file_size();
    }
  }
  return bytes;
}

Repeat run_repeat(const WorkloadSpec& spec, const Args& args, std::uint64_t seed,
                  int rounds, Report& report) {
  Repeat rep;
  rep.seed = seed;
  const std::string store_dir = args.work_dir + "/store-" + spec.name;

  const auto t_setup = Clock::now();
  const Inputs in = make_inputs(spec.name, seed);
  fl::FederatedSimulation sim(in.model_factory, in.split, in.config, make_bundle(in));
  std::unique_ptr<store::RoundStore> store;
  if (spec.durable) {
    std::filesystem::remove_all(store_dir);
    store = std::make_unique<store::RoundStore>(store_dir);
    sim.attach_store(store.get(), spec.snapshot_every);
  }
  rep.setup_s = seconds_since(t_setup);

  // Samples trained so far: every exchange (retries included) trains the
  // client's whole shard for the configured epochs.
  const auto trained_samples = [&] {
    double n = 0.0;
    for (fl::FlClient& c : sim.clients())
      n += static_cast<double>(c.train_timer().intervals()) *
           static_cast<double>(c.num_samples() * in.local_epochs);
    return n;
  };
  const auto t_run = Clock::now();
  for (int r = 0; r < rounds; ++r) {
    const std::uint64_t wal_before = store ? store->wal_size_bytes() : 0;
    const double trained_before = trained_samples();
    const auto t_round = Clock::now();
    const fl::RoundOutcome& out = sim.run_round();
    const double round_s = seconds_since(t_round);
    rep.round_ms.push_back(round_s * 1e3);
    rep.samples_per_s.push_back((trained_samples() - trained_before) / round_s);
    rep.accepted += static_cast<std::int64_t>(out.accepted.size());
    if (store) {
      const std::uint64_t wal_after = store->wal_size_bytes();
      if (wal_after > wal_before) {
        rep.wal_record_bytes.push_back(wal_after - wal_before);
      } else {  // compacted onto a snapshot this round
        rep.snapshot_bytes.push_back(newest_snapshot_bytes(store_dir));
      }
    }
    // Evaluate after every round until the target is reached, and in the
    // last quarter of the rounds (late_accuracy).
    if (rep.time_to_target_s < 0.0 || r >= rounds - late_rounds(rounds)) {
      rep.accuracy.push_back(sim.evaluate_now().personalized_test_accuracy);
      if (rep.time_to_target_s < 0.0 && rep.accuracy.back() >= args.target)
        rep.time_to_target_s = seconds_since(t_run);
    }
  }
  rep.hash = params_hash(sim.server().global_params());
  rep.wire = sim.transport().stats();
  for (fl::FlClient& c : sim.clients())
    rep.exchanges += static_cast<std::int64_t>(c.train_timer().intervals());

  // DINAR really obfuscated: with the lossless codec, every participant's
  // last upload as the server saw it equals the client's live model on
  // every layer but the protected one, and differs there.
  if (!in.config.codec.active()) {
    int bad = 0, seen = 0;
    for (const std::size_t i : sim.last_participants()) {
      nn::Model view = sim.server_view_of_client(i);
      nn::Model& live = sim.clients()[i].model();
      for (std::size_t l = 0; l < live.num_param_layers(); ++l) {
        const nn::FlatParams a = view.layer_parameters(l);
        const nn::FlatParams b = live.layer_parameters(l);
        const auto sa = a.as_span(), sb = b.as_span();
        const bool equal = std::equal(sa.begin(), sa.end(), sb.begin(), sb.end());
        if (equal == (l == in.dinar_layer)) ++bad;
      }
      ++seen;
    }
    std::ostringstream d;
    d << "seed " << seed << ": " << seen << " uploads compared with the live models, "
      << bad << " layer(s) wrong (protected layer " << in.dinar_layer << ")";
    report.check("dinar_obfuscates_only_protected_layer", seen > 0 && bad == 0, d.str());
  }

  // Restart: a fresh, identically configured simulation is brought back to
  // the last committed round from what the workload persisted — the
  // RoundStore (durable) or a full-state snapshot held in memory.
  fl::FederatedSimulation fresh(in.model_factory, in.split, in.config, make_bundle(in));
  if (store) fresh.attach_store(store.get(), spec.snapshot_every);
  BinaryWriter state;
  if (!store) sim.save_full_state(state);
  std::vector<double> recover_s;
  std::int64_t recovered = 0;
  for (int k = 0; k < kRecoveries; ++k) {
    const auto t0 = Clock::now();
    if (store) {
      recovered = fresh.recover_from_store();
    } else {
      BinaryReader r(state.buffer());
      fresh.restore_full_state(r);
      recovered = fresh.server().round();
    }
    recover_s.push_back(seconds_since(t0));
  }
  rep.recover_s = median(recover_s);
  const std::string fresh_hash = params_hash(fresh.server().global_params());
  std::ostringstream d;
  d << "seed " << seed << ": " << (store ? "recover_from_store" : "restore_full_state")
    << " reached round " << recovered << " of " << rounds << ", hash " << fresh_hash
    << " vs " << rep.hash;
  report.check("restart_reaches_last_round",
               recovered == rounds && fresh_hash == rep.hash, d.str());
  return rep;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string fixed(double v, int digits = 4) {
  std::ostringstream o;
  o.precision(digits);
  o << std::fixed << v;
  return o.str();
}

std::string json_string(std::string s) {
  for (char& c : s)
    if (c == '"' || c == '\\') c = '\'';
  return "\"" + s + "\"";
}

void print_json(const Report& report, const Args& args,
                const std::vector<double>& curve) {
  std::ostringstream o;
  o.precision(10);
  o << "{\"workload\":" << json_string(args.workload) << ",\"seed\":" << args.seed
    << ",\"hash\":" << json_string(report.final_hash)
    << ",\"rounds_attempted\":" << report.rounds_attempted << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : report.metrics) {
    o << (first ? "" : ",") << json_string(name) << ":{\"value\":" << m.value
      << ",\"unit\":" << json_string(m.unit) << ",\"samples\":" << m.samples
      << ",\"note\":" << json_string(m.note) << "}";
    first = false;
  }
  o << "},\"checks\":[";
  first = true;
  for (const Check& c : report.checks) {
    o << (first ? "" : ",") << "{\"name\":" << json_string(c.name)
      << ",\"ok\":" << (c.ok ? "true" : "false")
      << ",\"detail\":" << json_string(c.detail) << "}";
    first = false;
  }
  o << "],\"accuracy_curve\":[";
  for (std::size_t i = 0; i < curve.size(); ++i) o << (i ? "," : "") << curve[i];
  o << "]}";
  std::cout << o.str() << std::endl;
}

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec spec = workload_spec(args.workload);
  const int rounds = args.rounds > 0 ? args.rounds : spec.rounds_per_repeat;
  std::filesystem::create_directories(args.work_dir);
  Logger::instance().set_level(LogLevel::kWarn);

  {
    Report discarded;
    run_repeat(spec, args, data_seed(args.seed, 0), warmup_rounds(rounds), discarded);
  }
  Report report;
  const int repeats = args.trace ? 1 : args.repeats;
  std::vector<Repeat> reps;
  for (int k = 0; k < repeats; ++k) {
    const int data_k = k == repeats - 1 ? 0 : k;  // the last repeat re-runs the first
    reps.push_back(run_repeat(spec, args, data_seed(args.seed, data_k), rounds, report));
  }
  report.rounds_attempted = static_cast<std::int64_t>(repeats) * rounds;
  const Repeat& ref = reps.front();
  report.final_hash = ref.hash;
  if (repeats > 1)
    report.check("hash_identical_across_repeats", reps.back().hash == ref.hash,
                 "seed " + std::to_string(ref.seed) + ": first run " + ref.hash +
                     ", repeat " + reps.back().hash);
  if (!args.expect_hash.empty())
    report.check("hash_matches_expected", ref.hash == args.expect_hash,
                 "got " + ref.hash + ", expected " + args.expect_hash);

  // Quality is averaged over the distinct data seeds (every repeat but the
  // last); each of them must reach the target and clear the floor.
  const std::size_t distinct =
      std::max<std::size_t>(1, reps.size() - (repeats > 1 ? 1 : 0));
  double acc_sum = 0.0, ttt_sum = 0.0;
  for (std::size_t k = 0; k < distinct; ++k) {
    const Repeat& r = reps[k];
    acc_sum += r.late_accuracy();
    ttt_sum += r.time_to_target_s;
    report.check("personalized_accuracy_floor", r.late_accuracy() >= args.acc_floor,
                 "seed " + std::to_string(r.seed) + ": late-round accuracy " +
                     fixed(r.late_accuracy()) + " vs floor " + fixed(args.acc_floor));
    report.check("target_accuracy_reached", r.time_to_target_s >= 0.0,
                 "seed " + std::to_string(r.seed) + ": target " + fixed(args.target) +
                     " within " + std::to_string(rounds) + " rounds");
  }

  std::vector<double> round_ms, samples_per_s, setup, recover;
  double exchanges = 0.0, accepted = 0.0, up = 0.0, down = 0.0;
  for (const Repeat& r : reps) {
    round_ms.insert(round_ms.end(), r.round_ms.begin(), r.round_ms.end());
    samples_per_s.insert(samples_per_s.end(), r.samples_per_s.begin(),
                         r.samples_per_s.end());
    setup.push_back(r.setup_s);
    recover.push_back(r.recover_s);
    exchanges += static_cast<double>(r.exchanges);
    accepted += static_cast<double>(r.accepted);
    up += static_cast<double>(r.wire.bytes_up + r.wire.frame_bytes_up);
    down += static_cast<double>(r.wire.bytes_down + r.wire.frame_bytes_down);
  }
  const double p50 = median(round_ms);

  if (!args.trace) {
    const auto n_rounds = static_cast<std::int64_t>(round_ms.size());
    const auto n_reps = static_cast<std::int64_t>(reps.size());
    // Repeats long enough for a tail percentile (40 rounds or more) take it
    // per repeat and report the median over repeats, so a slowdown of the
    // host that covers a few repeats does not become the tail; shorter
    // repeats pool their rounds.
    double tail_ms = 0.0;
    std::string tail_note;
    const double rep_p = tail_percentile(rounds);
    if (rep_p > 50.0) {
      std::vector<double> per_repeat;
      for (const Repeat& r : reps) per_repeat.push_back(percentile(r.round_ms, rep_p));
      tail_ms = median(per_repeat);
      tail_note = "p" + fixed(rep_p, 1) + " per repeat, median of " +
                  std::to_string(n_reps) + " repeats";
    } else {
      const double pooled_p = tail_percentile(n_rounds);
      tail_ms = percentile(round_ms, pooled_p);
      tail_note = "p" + fixed(pooled_p, 1) + " of the pooled rounds";
    }
    report.set("setup_s", median(setup), "s", n_reps);
    report.set("round_p50_ms", p50, "ms", n_rounds);
    report.set("round_tail_ms", tail_ms, "ms", n_rounds, tail_note);
    report.set("train_samples_per_s", median(samples_per_s), "samples/s", n_rounds);
    report.set("time_to_target_s", ttt_sum / static_cast<double>(distinct), "s",
               static_cast<std::int64_t>(distinct), "target " + fixed(args.target, 3));
    report.set("final_personalized_acc", acc_sum / static_cast<double>(distinct),
               "fraction", static_cast<std::int64_t>(distinct),
               "mean of the last quarter of rounds");
    report.set("recover_s", median(recover), "s", n_reps * kRecoveries);
    report.set("wire_bytes_up_per_round", up / static_cast<double>(n_rounds), "B",
               n_rounds);
    report.set("wire_bytes_down_per_round", down / static_cast<double>(n_rounds), "B",
               n_rounds);
    report.set("exchange_accept_ratio", accepted / exchanges, "fraction",
               static_cast<std::int64_t>(exchanges));
    report.set("peak_rss_mb", peak_rss_mib(), "MiB", 1);
  } else {
    UntracedFacts facts;
    facts.final_hash = ref.hash;
    facts.round_p50_ms = p50;
    facts.rounds = rounds;
    facts.wal_record_bytes = ref.wal_record_bytes;
    facts.snapshot_bytes = ref.snapshot_bytes;
    traced_run(args.workload, args.seed, rounds, facts, args.work_dir, args.trace_file,
               report);
  }
  std::filesystem::remove_all(args.work_dir + "/store-" + spec.name);
  print_json(report, args, ref.accuracy);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "dinar_perfbench: " << e.what() << std::endl;
    return 2;
  }
}
