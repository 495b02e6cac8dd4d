// Parallel-execution scaling sweep: clients-per-round x threads.
//
// Measures round wall-clock for the phased parallel round protocol as the
// execution context grows, reporting speedup and efficiency against the
// single-thread run of the same configuration. Because the protocol is
// deterministic by construction (disjoint-output kernels, keyed fault and
// attack streams, sequential phase-B accounting), every cell of the sweep
// must produce the bit-identical final global model — the bench hashes it
// and reports a `deterministic` field per row, so a scheduling regression
// shows up as data, not just as a flaky test.
//
// Results land in BENCH_SCALING.json. `--smoke` shrinks the grid for CI;
// speedup there is meaningless (CI runners are often single-core) but the
// determinism column still must hold.
//
// Second sweep: streaming-engine overlap (DESIGN.md §13) on a
// straggler-laden federation — a real wall-clock sleeper at the tail of
// each shard. The sequential cell (1 thread, the engine's inline
// degradation) serializes every sleep; the threaded cells overlap them.
// Gated: the threaded round rate must be >= 0.97x the sequential one,
// comparing each cell's median of 5 runs (sleeps don't burn CPU, so this
// holds on single-core CI runners), and every run must hash to the
// bit-identical final model. Every row also carries the
// RoundPhaseTimings breakdown (downlink / train / uplink / validate /
// shard / combine / commit). The legacy barriered engine this
// sweep used to compare against was removed; streaming is the only mode.
//
// Third sweep: sharded hierarchical aggregation (DESIGN.md §12) over a
// synthetic cohort, clients 10^3 -> 10^5 x shards x threads, aggregation
// only (no training) so the tree itself is what's measured: the cohort is
// absorbed into a ShardedAggregationSession in client-id order and
// finalized. Every single-shard cell is gated on bit-identity with the
// flat RobustAggregator::aggregate() path: the session borrows the
// updates and runs each shard's strategy across the pool at finalize,
// the flat path runs the same strategy over the whole cohort — the exit
// code reflects the gates, so CI (which runs `--smoke` on every matrix
// leg, including TSan) fails on any divergence.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "harness/experiment.h"

namespace dinar::bench {
namespace {

std::uint64_t param_hash(const nn::FlatParams& params) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const float v : params.as_span()) {
    std::uint32_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    for (int b = 0; b < 32; b += 8) {
      h ^= (bits >> b) & 0xFF;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

struct ScalingResult {
  double seconds_per_round = 0.0;
  std::uint64_t final_hash = 0;
  // Per-round means of the RoundPhaseTimings breakdown (task-side phases
  // are summed across concurrent tasks, so they can exceed wall-clock).
  fl::RoundPhaseTimings phase;
};

struct ScalingOpts {
  std::size_t num_shards = 1;
  // > 0 parks a real wall-clock sleep of this length on the last (highest
  // id) client of every shard — the worst case for the streaming engine's
  // overlap, since each shard's member list stays open until its tail.
  double straggler_wall_seconds = 0.0;
};

ScalingResult run_scaling(const DatasetCase& spec, unsigned threads,
                          const ScalingOpts& opts = {}) {
  Rng rng(spec.seed);
  const data::Dataset full = spec.make_data(rng);
  data::FlSplitConfig split_cfg;
  split_cfg.num_clients = spec.num_clients;
  data::FlSplit split = data::make_fl_split(full, split_cfg, rng);

  fl::SimulationConfig cfg;
  cfg.rounds = spec.rounds;
  cfg.train = fl::TrainConfig{spec.local_epochs, spec.batch_size};
  cfg.learning_rate = spec.learning_rate;
  cfg.seed = spec.seed + 7;
  // Mild faults keep the retry machinery on the measured path.
  cfg.faults.drop_up = 0.05;
  cfg.min_clients = static_cast<std::size_t>(std::max(1, spec.num_clients / 2));
  cfg.max_retries = 1;
  cfg.exec.threads = threads;
  cfg.shard.num_shards = opts.num_shards;
  cfg.shard.assignment_seed = 0xD1AA5ULL;
  if (opts.straggler_wall_seconds > 0.0) {
    std::map<std::uint32_t, int> last_of_shard;
    for (int id = 0; id < spec.num_clients; ++id)
      last_of_shard[fl::shard_of(id, cfg.shard)] = id;  // ascending: last wins
    for (const auto& [shard, id] : last_of_shard)
      cfg.faults.straggler_wall_seconds[id] = opts.straggler_wall_seconds;
  }

  fl::FederatedSimulation sim(spec.model_factory, std::move(split), cfg,
                              fl::DefenseBundle{});
  const auto start = std::chrono::steady_clock::now();
  sim.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  ScalingResult out;
  out.seconds_per_round = seconds / spec.rounds;
  out.final_hash = param_hash(sim.server().global_params());
  const double n = static_cast<double>(sim.round_log().size());
  for (const fl::RoundOutcome& o : sim.round_log()) {
    out.phase.downlink_seconds += o.timings.downlink_seconds / n;
    out.phase.train_seconds += o.timings.train_seconds / n;
    out.phase.uplink_seconds += o.timings.uplink_seconds / n;
    out.phase.validate_seconds += o.timings.validate_seconds / n;
    out.phase.shard_seconds += o.timings.shard_seconds / n;
    out.phase.combine_seconds += o.timings.combine_seconds / n;
    out.phase.commit_seconds += o.timings.commit_seconds / n;
    out.phase.round_seconds += o.timings.round_seconds / n;
  }
  return out;
}

// The run with the median seconds_per_round (odd run counts).
ScalingResult median_run(std::vector<ScalingResult> runs) {
  const auto mid = runs.begin() + static_cast<std::ptrdiff_t>(runs.size() / 2);
  std::nth_element(runs.begin(), mid, runs.end(),
                   [](const ScalingResult& a, const ScalingResult& b) {
                     return a.seconds_per_round < b.seconds_per_round;
                   });
  return *mid;
}

// Appends the per-phase breakdown to the row under construction.
BenchJson& phase_fields(BenchJson& json, const fl::RoundPhaseTimings& p) {
  return json.field("downlink_seconds_per_round", p.downlink_seconds)
      .field("train_seconds_per_round", p.train_seconds)
      .field("uplink_seconds_per_round", p.uplink_seconds)
      .field("validate_seconds_per_round", p.validate_seconds)
      .field("shard_seconds_per_round", p.shard_seconds)
      .field("combine_seconds_per_round", p.combine_seconds)
      .field("commit_seconds_per_round", p.commit_seconds)
      .field("measured_round_seconds", p.round_seconds);
}

// Synthetic cohort for the aggregation-tree sweep: every client's params
// are the global arena plus a small deterministic per-(client, coordinate)
// delta — no RNG, so any two runs of the bench build identical cohorts.
std::vector<fl::ModelUpdateMsg> make_synthetic_updates(int clients,
                                                       const nn::FlatParams& global) {
  std::vector<fl::ModelUpdateMsg> updates(static_cast<std::size_t>(clients));
  for (int i = 0; i < clients; ++i) {
    fl::ModelUpdateMsg& u = updates[static_cast<std::size_t>(i)];
    u.client_id = i;
    u.round = 0;
    u.num_samples = 1 + (i % 4);
    u.params = global;
    std::span<float> v = u.params.as_span();
    for (std::size_t j = 0; j < v.size(); ++j)
      v[j] += 1e-3f * static_cast<float>((i * 31 + static_cast<int>(j) * 7) % 23 - 11);
  }
  return updates;
}

// One cell of the shard sweep. Returns false iff the single-shard gate
// (a one-shard session bit-identical to flat aggregate) failed.
bool run_shard_cell(BenchJson& json, fl::AggregatorKind kind, int clients,
                    std::size_t num_shards, unsigned threads,
                    const std::vector<fl::ModelUpdateMsg>& updates,
                    const nn::FlatParams& global) {
  fl::ShardConfig shard_cfg;
  shard_cfg.num_shards = num_shards;
  shard_cfg.assignment_seed = 0xD1AA5ULL;

  ExecConfig exec_cfg;
  exec_cfg.threads = threads;
  ExecutionContext exec(exec_cfg);
  auto agg = fl::make_robust_aggregator(kind);
  agg->set_execution_context(&exec);

  const auto t0 = std::chrono::steady_clock::now();
  fl::ShardedAggregationSession session(*agg, global, shard_cfg);
  for (const fl::ModelUpdateMsg& u : updates) session.absorb(u);
  const fl::HierarchicalResult hier = session.finalize();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  double shard_mean = 0.0, shard_max = 0.0;
  std::size_t live = 0;
  for (std::size_t s = 0; s < hier.shard_seconds.size(); ++s) {
    if (hier.shards[s].num_updates == 0) continue;
    shard_mean += hier.shard_seconds[s];
    shard_max = std::max(shard_max, hier.shard_seconds[s]);
    ++live;
  }
  if (live > 0) shard_mean /= static_cast<double>(live);

  bool gate_ok = true;
  std::string flat_match = "n/a";
  if (num_shards == 1) {
    const fl::RobustAggregateResult flat = agg->aggregate(updates, global);
    gate_ok = param_hash(flat.params) == param_hash(hier.result.params);
    flat_match = gate_ok ? "true" : "false";
  }

  print_table_row(std::string(fl::to_string(kind)) + "/" + std::to_string(clients),
                  {static_cast<double>(num_shards), static_cast<double>(threads),
                   seconds, shard_max, flat_match == "false" ? 0.0 : 1.0});
  json.begin_row()
      .field("case", std::string("shard_synthetic"))
      .field("aggregator", std::string(fl::to_string(kind)))
      .field("clients_per_round", static_cast<std::int64_t>(clients))
      .field("num_shards", static_cast<std::int64_t>(num_shards))
      .field("threads", static_cast<std::int64_t>(threads))
      .field("seconds_per_aggregate", seconds)
      .field("shard_seconds_mean", shard_mean)
      .field("shard_seconds_max", shard_max)
      .field("flat_bit_identical", flat_match);
  return gate_ok;
}

int run(int argc, char** argv) {
  const double scale = parse_scale(argc, argv);
  const bool smoke = parse_flag(argc, argv, "--smoke");
  print_header("Parallel round scaling — clients-per-round x threads",
               "execution-engine companion to Table 3's cost metrics");

  const std::vector<int> client_counts =
      smoke ? std::vector<int>{4} : std::vector<int>{4, 8, 16};
  const std::vector<unsigned> thread_counts =
      smoke ? std::vector<unsigned>{1, 2} : std::vector<unsigned>{1, 2, 4, 8};

  BenchJson json("scaling");
  print_table_header("clients", {"threads", "s/round", "speedup", "effic%",
                                 "determ"});
  for (const int clients : client_counts) {
    DatasetCase spec = small_mlp_case(scale);
    spec.num_clients = clients;
    double base_seconds = 0.0;
    std::uint64_t base_hash = 0;
    for (const unsigned threads : thread_counts) {
      const ScalingResult r = run_scaling(spec, threads);
      if (threads == 1) {
        base_seconds = r.seconds_per_round;
        base_hash = r.final_hash;
      }
      const double speedup =
          r.seconds_per_round > 0.0 ? base_seconds / r.seconds_per_round : 0.0;
      const double efficiency = speedup / static_cast<double>(threads);
      const bool deterministic = r.final_hash == base_hash;
      print_table_row(std::to_string(clients),
                      {static_cast<double>(threads), r.seconds_per_round,
                       speedup, 100.0 * efficiency,
                       deterministic ? 1.0 : 0.0});
      json.begin_row()
          .field("case", spec.name)
          .field("clients_per_round", static_cast<std::int64_t>(clients))
          .field("num_shards", static_cast<std::int64_t>(1))
          .field("threads", static_cast<std::int64_t>(threads))
          .field("pipeline", std::string("stream"))
          .field("seconds_per_round", r.seconds_per_round)
          .field("speedup_vs_1_thread", speedup)
          .field("parallel_efficiency", efficiency)
          .field("deterministic", std::string(deterministic ? "true" : "false"))
          .field("final_model_hash",
                 static_cast<std::int64_t>(r.final_hash >> 1));
      phase_fields(json, r.phase);
    }
  }

  // -- pipeline overlap sweep ----------------------------------------------
  // Streaming round engine on a straggler-laden federation: one real
  // wall-clock sleeper at the tail of each of 4 shards. The 1-thread cell
  // (the engine's inline degradation) serializes every sleep; the threaded
  // cells run the sleepers concurrently and commit every other exchange
  // (and prefetch the next broadcast) inside them, so their round rate
  // must be at least the sequential one — gated at 0.97x for timer noise,
  // on each cell's median of kGateTimedRuns runs.
  // Sleeps don't burn CPU, so the gate holds on single-core CI runners
  // too. The cross-thread hash gate is exact: every cell must produce the
  // bit-identical final model.
  std::printf("\nPipeline overlap — streaming engine with wall-clock "
              "stragglers (4 shards, sleeper at each shard tail)\n");
  print_table_header("mode", {"threads", "s/round", "rounds/s", "commit_s",
                              "hash=="});
  const std::vector<unsigned> overlap_threads =
      smoke ? std::vector<unsigned>{2} : std::vector<unsigned>{2, 4, 8};
  const double straggler_wall = smoke ? 0.01 : 0.02;
  bool overlap_gate_ok = true;
  {
    DatasetCase spec = small_mlp_case(scale);
    spec.num_clients = 8;
    ScalingOpts opts;
    opts.num_shards = 4;
    opts.straggler_wall_seconds = straggler_wall;
    // Every cell runs kGateTimedRuns times, interleaved so a slow stretch
    // of the host hits all cells alike, and is represented by its median
    // run; every run must hash to the first sequential run's model.
    std::vector<unsigned> cell_threads{1u};
    cell_threads.insert(cell_threads.end(), overlap_threads.begin(),
                        overlap_threads.end());
    std::vector<std::vector<ScalingResult>> runs(cell_threads.size());
    for (int run = 0; run < kGateTimedRuns; ++run)
      for (std::size_t c = 0; c < cell_threads.size(); ++c)
        runs[c].push_back(run_scaling(spec, cell_threads[c], opts));
    const std::uint64_t seq_hash = runs[0].front().final_hash;
    const ScalingResult seq = median_run(runs[0]);
    const double seq_rps =
        seq.seconds_per_round > 0.0 ? 1.0 / seq.seconds_per_round : 0.0;

    for (std::size_t c = 0; c < cell_threads.size(); ++c) {
      const unsigned threads = cell_threads[c];
      const ScalingResult cell = median_run(runs[c]);
      const bool hashes_match =
          std::all_of(runs[c].begin(), runs[c].end(), [&](const ScalingResult& r) {
            return r.final_hash == seq_hash;
          });
      const double rps =
          cell.seconds_per_round > 0.0 ? 1.0 / cell.seconds_per_round : 0.0;
      const bool rate_ok = threads == 1 || rps >= 0.97 * seq_rps;
      overlap_gate_ok &= hashes_match && rate_ok;
      print_table_row(threads == 1 ? "seq" : "stream",
                      {static_cast<double>(threads), cell.seconds_per_round,
                       rps, cell.phase.commit_seconds,
                       hashes_match ? 1.0 : 0.0});
      json.begin_row()
          .field("case", std::string("pipeline_overlap"))
          .field("pipeline", std::string("stream"))
          .field("clients_per_round", static_cast<std::int64_t>(spec.num_clients))
          .field("num_shards", static_cast<std::int64_t>(4))
          .field("threads", static_cast<std::int64_t>(threads))
          .field("straggler_wall_seconds", straggler_wall)
          .field("seconds_per_round", cell.seconds_per_round)
          .field("rounds_per_second", rps)
          .field("cross_mode_bit_identical",
                 std::string(hashes_match ? "true" : "false"))
          .field("final_model_hash", static_cast<std::int64_t>(cell.final_hash >> 1));
      phase_fields(json, cell.phase);
    }
  }
  // -- sharded hierarchical aggregation sweep ------------------------------
  std::printf("\nSharded aggregation — clients x shards (synthetic cohort, "
              "aggregation only)\n");
  print_table_header("agg/clients",
                     {"shards", "threads", "s/agg", "shard_max_s", "flat=="});
  const std::vector<int> shard_clients =
      smoke ? std::vector<int>{512} : std::vector<int>{1000, 10000, 100000};
  const std::vector<std::size_t> shard_counts =
      smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 4, 16, 64};
  const std::vector<unsigned> shard_threads =
      smoke ? std::vector<unsigned>{2} : std::vector<unsigned>{1, 4};
  const std::vector<fl::AggregatorKind> shard_methods = {
      fl::AggregatorKind::kFedAvg, fl::AggregatorKind::kMedian};

  // Two entries so the layer-aware run machinery is on the measured path.
  const nn::FlatParams shard_global = nn::FlatParams::from_tensors(
      {Tensor({96}, std::vector<float>(96, 0.25f)),
       Tensor({32}, std::vector<float>(32, -0.5f))});
  bool gate_ok = true;
  for (const int clients : shard_clients) {
    const std::vector<fl::ModelUpdateMsg> updates =
        make_synthetic_updates(clients, shard_global);
    for (const fl::AggregatorKind kind : shard_methods)
      for (const std::size_t shards : shard_counts)
        for (const unsigned threads : shard_threads)
          gate_ok &= run_shard_cell(json, kind, clients, shards, threads, updates,
                                    shard_global);
  }

  std::printf("\nexpected: on a machine with >= 8 cores, 16 clients/round at "
              "8 threads reaches >= 2.5x the single-thread round rate while "
              "`determ` stays 1 in every cell (bit-identical final model for "
              "any thread count). On fewer cores speedup saturates at the "
              "core count; determinism must hold regardless. In the overlap "
              "sweep `stream` must match or beat `seq` rounds/s (the commits "
              "and next-round downlink serialization hide inside the "
              "straggler sleeps) with `hash==` 1 in every row — both are CI "
              "gates. In the shard sweep every `flat==` cell must be 1: a "
              "single-shard tree is bit-identical to flat aggregation (the "
              "CI gate); multi-shard cells trade exactness for parallel edge "
              "aggregation.\n");
  json.write();
  int rc = 0;
  if (!gate_ok) {
    std::printf("GATE FAILED: single-shard session aggregation diverged "
                "from the flat path\n");
    rc = 1;
  }
  if (!overlap_gate_ok) {
    std::printf("GATE FAILED: threaded streaming fell below 0.97x the "
                "sequential round rate with stragglers, or the thread counts "
                "produced different final models\n");
    rc = 1;
  }
  return rc;
}

}  // namespace
}  // namespace dinar::bench

int main(int argc, char** argv) { return dinar::bench::run(argc, argv); }
