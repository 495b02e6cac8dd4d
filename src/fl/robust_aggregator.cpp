#include "fl/robust_aggregator.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <numeric>
#include <sstream>

#include "util/error.h"
#include "util/execution_context.h"

namespace dinar::fl {
namespace {

// Runs fn over [0, n) — chunked across the context's pool, or inline when
// the context is null. Every index is handled by exactly one chunk, so any
// per-coordinate computation below is bit-identical for any thread count.
void run_range(const ExecutionContext* exec, std::size_t n, std::size_t grain,
               const std::function<void(std::int64_t, std::int64_t)>& fn) {
  if (exec != nullptr)
    exec->parallel_for(static_cast<std::int64_t>(n), fn, grain);
  else
    fn(0, static_cast<std::int64_t>(n));
}

// Per-coordinate loops cost ~members ops each; keep chunks near 16k ops,
// and at least one cache line (16 floats) wide.
std::size_t coord_grain(std::size_t members) {
  return std::max<std::size_t>(std::size_t{16}, 16384 / std::max<std::size_t>(1, members));
}

// Marks the layer-index entries excluded from scoring (obfuscated layers).
std::vector<bool> excluded_mask(const RobustConfig& config, std::size_t num_entries) {
  std::vector<bool> mask(num_entries, false);
  for (const std::size_t t : config.excluded_tensors) {
    DINAR_CHECK(t < num_entries, "excluded tensor index " << t
                                                          << " out of range (model has "
                                                          << num_entries << " entries)");
    mask[t] = true;
  }
  return mask;
}

void require_raw_updates(UpdateView updates, const char* name) {
  for (const ModelUpdateMsg* u : updates)
    DINAR_CHECK(!u->pre_weighted,
                name << " cannot score pre-weighted (secure-aggregation) updates; "
                        "client "
                     << u->client_id << " sent one");
}

// Maximal contiguous float range of the arena whose entries share one
// scoring treatment. Merging adjacent same-treatment entries gives the
// coordinate loops long contiguous spans to stream.
struct Run {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t numel() const { return end - begin; }
};

// Runs of entries whose excluded-ness equals `excluded`, in arena order.
std::vector<Run> runs_of(const nn::LayerIndex& index,
                         const std::vector<bool>& excluded_entries, bool excluded) {
  std::vector<Run> runs;
  for (std::size_t t = 0; t < index.num_entries(); ++t) {
    if (excluded_entries[t] != excluded) continue;
    const nn::LayerEntry& e = index.entry(t);
    if (e.numel == 0) continue;
    if (!runs.empty() && runs.back().end == e.offset)
      runs.back().end = e.offset + e.numel;
    else
      runs.push_back({e.offset, e.offset + e.numel});
  }
  return runs;
}

// Squared L2 distances from N arenas `a` to `b` over the scored runs,
// written to out[0, N). Each distance is its own double sum in ascending
// arena order — identical to the old per-tensor loop, since runs are
// merged consecutive entries. The N sums run side by side only so that
// their add latencies overlap.
template <std::size_t N>
void scored_sq_distances(const float* const* a, const float* b,
                         const std::vector<Run>& scored, double* out) {
  std::array<double, N> s{};
  for (const Run& run : scored) {
    for (std::int64_t j = run.begin; j < run.end; ++j) {
      const double bj = static_cast<double>(b[j]);
      for (std::size_t k = 0; k < N; ++k) {
        const double d = static_cast<double>(a[k][j]) - bj;
        s[k] += d * d;
      }
    }
  }
  std::copy(s.begin(), s.end(), out);
}

// The same for 1 <= lanes <= kLanes arenas.
constexpr std::size_t kLanes = 4;
void scored_sq_distances(std::span<const float* const> a, const float* b,
                         const std::vector<Run>& scored, double* out) {
  switch (a.size()) {
    case 1: return scored_sq_distances<1>(a.data(), b, scored, out);
    case 2: return scored_sq_distances<2>(a.data(), b, scored, out);
    case 3: return scored_sq_distances<3>(a.data(), b, scored, out);
    case 4: return scored_sq_distances<4>(a.data(), b, scored, out);
  }
  throw Error("scored_sq_distances: " + std::to_string(a.size()) + " lanes");
}

// Squared scored distance of every update in `updates` to `b`. The updates
// split into groups of at most kLanes, as many groups as the context has
// threads (the caller included) when there are few updates, so a handful
// of long sums spreads over every thread.
std::vector<double> scored_sq_distances_to(UpdateView updates, std::span<const float> b,
                                           const std::vector<Run>& scored,
                                           const ExecutionContext* exec) {
  const std::size_t n = updates.size();
  const std::size_t threads = exec != nullptr ? exec->threads() + 1 : 1;
  const std::size_t group = std::min(kLanes, (n + threads - 1) / threads);
  std::vector<double> out(n, 0.0);
  run_range(exec, (n + group - 1) / group, 1, [&](std::int64_t g0, std::int64_t g1) {
    for (std::size_t i0 = static_cast<std::size_t>(g0) * group;
         i0 < std::min(n, static_cast<std::size_t>(g1) * group); i0 += group) {
      std::array<const float*, kLanes> a{};
      const std::size_t lanes = std::min(group, n - i0);
      for (std::size_t k = 0; k < lanes; ++k) a[k] = updates[i0 + k]->params.as_span().data();
      scored_sq_distances({a.data(), lanes}, b.data(), scored, out.data() + i0);
    }
  });
  return out;
}

// Median of `v`, reordering it in place (even sizes average the two middle
// elements). nth_element is deterministic, so the same input order always
// gives the same bits (-0.0 vs +0.0 included).
double median_in_place(std::span<double> v) {
  DINAR_CHECK(!v.empty(), "median of an empty set");
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  double m = v[mid];
  if (v.size() % 2 == 0) {
    const double lower =
        *std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid));
    m = 0.5 * (m + lower);
  }
  return m;
}

double median_of(std::vector<double> v) { return median_in_place(v); }

double total_weight(UpdateView updates, const std::vector<std::size_t>& members) {
  double total = 0.0;
  for (const std::size_t i : members) total += static_cast<double>(updates[i]->num_samples);
  return total;
}

// Every member's scored-delta L2 norm vs the pre-round global model —
// `ShardStats`'s norm distribution, and norm_clip's clip input.
std::vector<double> scored_delta_norms(UpdateView updates, const nn::FlatParams& global,
                                       const std::vector<Run>& scored,
                                       const ExecutionContext* exec) {
  std::vector<double> norms = scored_sq_distances_to(updates, global.as_span(), scored, exec);
  for (double& v : norms) v = std::sqrt(v);
  return norms;
}

void set_norm_stats(ShardStats& stats, const std::vector<double>& norms) {
  if (norms.empty()) return;
  stats.min_norm = *std::min_element(norms.begin(), norms.end());
  stats.max_norm = *std::max_element(norms.begin(), norms.end());
  stats.median_norm = median_of(norms);
}

// Sample-weighted FedAvg of `members`' raw parameters over one run,
// accumulated into `out` (caller zeroes the range first). Per coordinate
// the members accumulate in ascending member order regardless of chunking,
// so the float sums match the sequential path.
void weighted_mean_run(UpdateView updates, const std::vector<std::size_t>& members, Run run,
                       std::span<float> out, const ExecutionContext* exec) {
  const double total = total_weight(updates, members);
  run_range(exec, static_cast<std::size_t>(run.numel()), coord_grain(members.size()),
            [&](std::int64_t j0, std::int64_t j1) {
              for (const std::size_t i : members) {
                const double w = static_cast<double>(updates[i]->num_samples) / total;
                const std::span<const float> vi = updates[i]->params.as_span();
                for (std::int64_t j = run.begin + j0; j < run.begin + j1; ++j)
                  out[static_cast<std::size_t>(j)] += static_cast<float>(
                      w * static_cast<double>(vi[static_cast<std::size_t>(j)]));
              }
            });
}

// Plain FedAvg over a member subset, the whole arena (Krum's final average
// reduces to this).
nn::FlatParams weighted_mean_params(UpdateView updates,
                                    const std::vector<std::size_t>& members,
                                    const ExecutionContext* exec) {
  nn::FlatParams out(updates.front()->params.index());
  weighted_mean_run(updates, members, {0, out.numel()}, out.as_span(), exec);
  return out;
}

std::vector<std::size_t> all_indices(std::size_t n) {
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

// The seed's FedAvg, wrapped in the aggregator interface. The only
// strategy that accepts pre-weighted updates (it never scores clients).
// Per coordinate the fold applies `acc[j] += w_i * v_i[j]` in member order
// (w_i the float sample count, or 1 for pre-weighted parameters), then
// scales once by `1 / total`, with `total` the double sum of the sample
// counts in the same order. Coordinate ranges are independent, so the fold
// runs across the pool and stays bit-identical for any thread count.
class FedAvgAggregator final : public RobustAggregator {
 public:
  explicit FedAvgAggregator(RobustConfig config) : config_(std::move(config)) {}
  std::string name() const override { return "fedavg"; }

  ShardSummary shard_aggregate(UpdateView updates, const nn::FlatParams& global) override {
    const std::size_t n = updates.size();
    const bool pre_weighted = updates.front()->pre_weighted;
    double total = 0.0;
    for (const ModelUpdateMsg* u : updates) total += static_cast<double>(u->num_samples);

    ShardSummary summary;
    summary.params = nn::FlatParams(updates.front()->params.index());
    const std::span<float> acc = summary.params.as_span();
    const float inv = static_cast<float>(1.0 / total);
    run_range(exec_, acc.size(), coord_grain(n), [&](std::int64_t j0, std::int64_t j1) {
      for (const ModelUpdateMsg* u : updates) {
        const float w = pre_weighted ? 1.0f : static_cast<float>(u->num_samples);
        const std::span<const float> v = u->params.as_span();
        for (std::int64_t j = j0; j < j1; ++j)
          acc[static_cast<std::size_t>(j)] += w * v[static_cast<std::size_t>(j)];
      }
      for (std::int64_t j = j0; j < j1; ++j) acc[static_cast<std::size_t>(j)] *= inv;
    });

    summary.stats.num_updates = n;
    summary.stats.num_accepted = n;
    summary.stats.weight = total;
    // Pre-weighted (secure-aggregation) parameters are masked partial sums;
    // no meaningful distance to the global exists before unweighting, so
    // the norm distribution stays zero.
    if (!pre_weighted) {
      const std::vector<Run> scored =
          runs_of(*global.index(), excluded_mask(config_, global.index()->num_entries()),
                  /*excluded=*/false);
      set_norm_stats(summary.stats, scored_delta_norms(updates, global, scored, exec_));
    }
    return summary;
  }

 private:
  RobustConfig config_;
};

// Shared screen for the coordinate-wise strategies: clients far from the
// coordinate-wise median (on scored runs) are excluded up front.
class CoordinateWiseAggregator : public RobustAggregator {
 public:
  explicit CoordinateWiseAggregator(RobustConfig config) : config_(std::move(config)) {}

  ShardSummary shard_aggregate(UpdateView updates, const nn::FlatParams& global) override {
    require_raw_updates(updates, name().c_str());
    const std::size_t n = updates.size();
    const auto& index = *updates.front()->params.index();
    const std::vector<bool> excluded = excluded_mask(config_, index.num_entries());
    const std::vector<Run> scored = runs_of(index, excluded, /*excluded=*/false);
    const std::vector<Run> obfuscated = runs_of(index, excluded, /*excluded=*/true);

    ShardSummary summary;
    std::vector<std::size_t> survivors = all_indices(n);
    nn::FlatParams center;
    if (n >= 3) {
      center = nn::FlatParams(updates.front()->params.index());
      coordinate_median_runs(updates, survivors, scored, center.as_span(), exec_);
      std::vector<double> dist = scored_sq_distances_to(updates, center.as_span(), scored, exec_);
      for (double& v : dist) v = std::sqrt(v);
      const double med = median_of(dist);
      const double threshold = config_.outlier_threshold * med;
      survivors.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (dist[i] > threshold && dist[i] > 0.0) {
          std::ostringstream os;
          os << name() << "-outlier: distance to coordinate-wise median " << dist[i]
             << " exceeds " << config_.outlier_threshold << " x median distance " << med;
          summary.flags.push_back({updates[i]->client_id, os.str(), /*excluded=*/true});
        } else {
          survivors.push_back(i);
        }
      }
      // The screen keeps at least the median half of the cohort, so
      // `survivors` is never empty here.
    }

    if (survivors.size() == n && !center.empty() && statistic_is_center()) {
      // The screen kept every member, so the statistic over the same
      // members in the same order is the screen's center, bit for bit;
      // its obfuscated runs are still zero, ready for the average below.
      summary.params = std::move(center);
    } else {
      summary.params = nn::FlatParams(updates.front()->params.index());
      for (const Run& run : scored)
        robust_statistic_run(updates, survivors, run, summary.params.as_span());
    }
    for (const Run& run : obfuscated) {
      // Obfuscation noise: a robust statistic is meaningless, a plain
      // average keeps the broadcast well-formed.
      weighted_mean_run(updates, survivors, run, summary.params.as_span(), exec_);
    }

    summary.stats.num_updates = n;
    summary.stats.num_accepted = survivors.size();
    summary.stats.num_flagged = summary.flags.size();
    summary.stats.weight = total_weight(updates, survivors);
    set_norm_stats(summary.stats, scored_delta_norms(updates, global, scored, exec_));
    return summary;
  }

 protected:
  // Per-coordinate robust statistic over the surviving clients, written
  // into the run's slice of the (zero-initialized) output arena.
  virtual void robust_statistic_run(UpdateView updates,
                                    const std::vector<std::size_t>& members, Run run,
                                    std::span<float> out) const = 0;

  // True when the statistic over all members is the screen's center (the
  // coordinate-wise median), which then needs no second pass.
  virtual bool statistic_is_center() const { return false; }

  static void coordinate_median_runs(UpdateView updates,
                                     const std::vector<std::size_t>& members,
                                     const std::vector<Run>& runs,
                                     std::span<float> out,
                                     const ExecutionContext* exec) {
    for (const Run& run : runs) {
      run_range(exec, static_cast<std::size_t>(run.numel()), coord_grain(members.size()),
                [&](std::int64_t j0, std::int64_t j1) {
                  std::vector<double> column;
                  column.reserve(members.size());
                  for (std::int64_t j = run.begin + j0; j < run.begin + j1; ++j) {
                    column.clear();
                    for (const std::size_t i : members)
                      column.push_back(static_cast<double>(
                          updates[i]->params.as_span()[static_cast<std::size_t>(j)]));
                    out[static_cast<std::size_t>(j)] =
                        static_cast<float>(median_in_place(column));
                  }
                });
    }
  }

  RobustConfig config_;
};

class MedianAggregator final : public CoordinateWiseAggregator {
 public:
  using CoordinateWiseAggregator::CoordinateWiseAggregator;
  std::string name() const override { return "median"; }

 protected:
  void robust_statistic_run(UpdateView updates, const std::vector<std::size_t>& members,
                            Run run, std::span<float> out) const override {
    coordinate_median_runs(updates, members, {run}, out, exec_);
  }
  bool statistic_is_center() const override { return true; }
};

class TrimmedMeanAggregator final : public CoordinateWiseAggregator {
 public:
  using CoordinateWiseAggregator::CoordinateWiseAggregator;
  std::string name() const override { return "trimmed_mean"; }

 protected:
  void robust_statistic_run(UpdateView updates, const std::vector<std::size_t>& members,
                            Run run, std::span<float> out) const override {
    const std::size_t m = members.size();
    const std::size_t k = std::min(
        static_cast<std::size_t>(config_.trim_fraction * static_cast<double>(m)),
        m > 0 ? (m - 1) / 2 : 0);
    run_range(exec_, static_cast<std::size_t>(run.numel()), coord_grain(m),
              [&](std::int64_t j0, std::int64_t j1) {
                std::vector<double> column(m);
                for (std::int64_t j = run.begin + j0; j < run.begin + j1; ++j) {
                  for (std::size_t c = 0; c < m; ++c)
                    column[c] = static_cast<double>(
                        updates[members[c]]->params.as_span()[static_cast<std::size_t>(j)]);
                  std::sort(column.begin(), column.end());
                  double sum = 0.0;
                  for (std::size_t c = k; c < m - k; ++c) sum += column[c];
                  out[static_cast<std::size_t>(j)] =
                      static_cast<float>(sum / static_cast<double>(m - 2 * k));
                }
              });
  }
};

// FedAvg over deltas with per-update norm clipping: the clip bound is
// self-calibrating (clip_multiplier x the median scored-delta norm), so a
// model-replacement update's influence collapses to an honest client's.
// Under sharding the bound calibrates per shard (DESIGN.md §12).
class NormClipAggregator final : public RobustAggregator {
 public:
  explicit NormClipAggregator(RobustConfig config) : config_(std::move(config)) {}
  std::string name() const override { return "norm_clip"; }

  ShardSummary shard_aggregate(UpdateView updates, const nn::FlatParams& global) override {
    require_raw_updates(updates, "norm_clip");
    const std::size_t n = updates.size();
    const auto& index = *global.index();
    const std::vector<bool> excluded = excluded_mask(config_, index.num_entries());
    const std::vector<Run> scored = runs_of(index, excluded, /*excluded=*/false);
    const std::vector<Run> obfuscated = runs_of(index, excluded, /*excluded=*/true);

    const std::vector<double> norms = scored_delta_norms(updates, global, scored, exec_);
    const double bound = config_.clip_multiplier * median_of(norms);

    ShardSummary summary;
    double total = 0.0;
    for (const ModelUpdateMsg* u : updates) total += static_cast<double>(u->num_samples);

    std::vector<double> scale(n, 1.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (norms[i] > bound && norms[i] > 0.0) {
        scale[i] = bound / norms[i];
        std::ostringstream os;
        os << "norm-clipped: delta norm " << norms[i] << " -> " << bound;
        summary.flags.push_back({updates[i]->client_id, os.str(), /*excluded=*/false});
      }
    }

    summary.params = global;  // scored coordinates accumulate clipped deltas
    std::span<float> vo = summary.params.as_span();
    const std::span<const float> vg = global.as_span();
    const std::vector<std::size_t> everyone = all_indices(n);
    for (const Run& run : scored) {
      // Per coordinate the clients accumulate in ascending order no matter
      // how the coordinates are chunked — matches the sequential sums.
      run_range(exec_, static_cast<std::size_t>(run.numel()), coord_grain(n),
                [&](std::int64_t j0, std::int64_t j1) {
                  for (std::size_t i = 0; i < n; ++i) {
                    const double w =
                        static_cast<double>(updates[i]->num_samples) / total * scale[i];
                    const std::span<const float> vi = updates[i]->params.as_span();
                    for (std::int64_t j = run.begin + j0; j < run.begin + j1; ++j)
                      vo[static_cast<std::size_t>(j)] += static_cast<float>(
                          w * (static_cast<double>(vi[static_cast<std::size_t>(j)]) -
                               static_cast<double>(vg[static_cast<std::size_t>(j)])));
                  }
                });
    }
    for (const Run& run : obfuscated) {
      // Replace the carried-over global slice with the plain average.
      for (std::int64_t j = run.begin; j < run.end; ++j)
        vo[static_cast<std::size_t>(j)] = 0.0f;
      weighted_mean_run(updates, everyone, run, vo, exec_);
    }

    summary.stats.num_updates = n;
    summary.stats.num_accepted = n;  // clipping down-weights, never excludes
    summary.stats.num_flagged = summary.flags.size();
    summary.stats.weight = total;
    set_norm_stats(summary.stats, norms);
    return summary;
  }

 private:
  RobustConfig config_;
};

// Krum / Multi-Krum (Blanchard et al., NeurIPS '17): each update is scored
// by the sum of squared distances to its n - f - 2 nearest peers; the m
// best-scored updates are averaged, the rest excluded.
class KrumAggregator final : public RobustAggregator {
 public:
  KrumAggregator(RobustConfig config, bool multi)
      : config_(std::move(config)), multi_(multi) {}
  std::string name() const override { return multi_ ? "multi_krum" : "krum"; }

  ShardSummary shard_aggregate(UpdateView updates, const nn::FlatParams& global) override {
    require_raw_updates(updates, name().c_str());
    const std::size_t n = updates.size();
    const auto& index = *global.index();
    const std::vector<bool> excluded = excluded_mask(config_, index.num_entries());
    const std::vector<Run> scored = runs_of(index, excluded, /*excluded=*/false);
    const std::size_t f =
        std::min(config_.assumed_byzantine, n >= 3 ? n - 3 : std::size_t{0});
    const std::size_t neighbors =
        std::max<std::size_t>(1, std::min(n - 1, n >= f + 2 ? n - f - 2 : 1));

    std::vector<std::vector<double>> d(n, std::vector<double>(n, 0.0));
    // Each task owns whole rows (the upper triangle of them), so no two
    // tasks write the same cell; the mirror fills the lower triangle after.
    // Row i takes u_j - u_i, the exact negation of u_i - u_j, so every
    // squared term and sum is the same bits either way round.
    run_range(exec_, n, 1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::size_t i = static_cast<std::size_t>(i0); i < static_cast<std::size_t>(i1); ++i)
        for (std::size_t j = i + 1; j < n; j += kLanes) {
          std::array<const float*, kLanes> a{};
          const std::size_t lanes = std::min(kLanes, n - j);
          for (std::size_t k = 0; k < lanes; ++k) a[k] = updates[j + k]->params.as_span().data();
          scored_sq_distances({a.data(), lanes}, updates[i]->params.as_span().data(), scored,
                              d[i].data() + j);
        }
    });
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = i + 1; j < n; ++j) d[j][i] = d[i][j];

    std::vector<std::pair<double, std::size_t>> scored_clients(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> row;
      row.reserve(n - 1);
      for (std::size_t j = 0; j < n; ++j)
        if (j != i) row.push_back(d[i][j]);
      std::sort(row.begin(), row.end());
      double score = 0.0;
      for (std::size_t k = 0; k < std::min(neighbors, row.size()); ++k) score += row[k];
      scored_clients[i] = {score, i};
    }
    // Tie-break on the index so equal scores select deterministically.
    std::sort(scored_clients.begin(), scored_clients.end());

    const std::size_t m = multi_ ? n - f : 1;  // the clamp on f keeps n - f >= 1

    ShardSummary summary;
    std::vector<std::size_t> selected;
    for (std::size_t rank = 0; rank < n; ++rank) {
      const auto [score, i] = scored_clients[rank];
      if (rank < m) {
        selected.push_back(i);
      } else {
        std::ostringstream os;
        os << "krum-rank: " << rank + 1 << "/" << n << " (score " << score
           << ", worst selected " << scored_clients[m - 1].first << ")";
        summary.flags.push_back({updates[i]->client_id, os.str(), /*excluded=*/true});
      }
    }
    std::sort(selected.begin(), selected.end());
    summary.params = weighted_mean_params(updates, selected, exec_);

    summary.stats.num_updates = n;
    summary.stats.num_accepted = selected.size();
    summary.stats.num_flagged = summary.flags.size();
    summary.stats.weight = total_weight(updates, selected);
    set_norm_stats(summary.stats, scored_delta_norms(updates, global, scored, exec_));
    return summary;
  }

 private:
  RobustConfig config_;
  bool multi_;
};

}  // namespace

RobustAggregateResult RobustAggregator::combine(std::span<const ShardSummary> summaries,
                                                const nn::FlatParams& global) {
  std::vector<const ShardSummary*> live;
  for (const ShardSummary& s : summaries)
    if (!s.empty()) live.push_back(&s);
  DINAR_CHECK(!live.empty(),
              "combine: all " << summaries.size()
                              << " shard summaries are empty (every shard's clients "
                                 "churned away or were quarantined); carry the "
                                 "previous global model forward instead");

  double total = 0.0;
  for (const ShardSummary* s : live) {
    DINAR_CHECK(s->params.same_layout(global),
                "combine: shard " << s->stats.shard_id
                                  << " summary layout differs from the global model");
    DINAR_CHECK(s->stats.weight > 0.0, "combine: shard " << s->stats.shard_id
                                                         << " has non-positive weight "
                                                         << s->stats.weight);
    total += s->stats.weight;
  }

  RobustAggregateResult result;
  for (const ShardSummary& s : summaries)
    for (const AggregatorFlag& f : s.flags) result.flags.push_back(f);

  if (live.size() == 1) {
    // Copy the arena verbatim rather than accumulating from zero: float
    // addition would already perturb bits (0.0f + -0.0f == +0.0f), and the
    // single-shard path must be bit-identical to flat aggregation.
    result.params = live.front()->params;
    return result;
  }

  result.params = nn::FlatParams(global.index());
  std::span<float> out = result.params.as_span();
  // Shard-weight-proportional mean, summaries accumulated in ascending
  // position order per coordinate regardless of chunking — deterministic
  // for any thread count (same contract as weighted_mean_run).
  run_range(exec_, out.size(), coord_grain(live.size()),
            [&](std::int64_t j0, std::int64_t j1) {
              for (const ShardSummary* s : live) {
                const double w = s->stats.weight / total;
                const std::span<const float> vs = s->params.as_span();
                for (std::int64_t j = j0; j < j1; ++j)
                  out[static_cast<std::size_t>(j)] += static_cast<float>(
                      w * static_cast<double>(vs[static_cast<std::size_t>(j)]));
              }
            });
  return result;
}

RobustAggregateResult RobustAggregator::aggregate(std::span<const ModelUpdateMsg> updates,
                                                  const nn::FlatParams& global) {
  DINAR_CHECK(!updates.empty(), "aggregate of an empty cohort");
  std::vector<const ModelUpdateMsg*> members;
  members.reserve(updates.size());
  for (const ModelUpdateMsg& u : updates) members.push_back(&u);
  const ShardSummary summary = shard_aggregate(members, global);
  return combine(std::span<const ShardSummary>(&summary, 1), global);
}

namespace {

// Every kind, in registry order: the one list the name lookup, its error
// message and robust_aggregator_names() all walk.
constexpr AggregatorKind kKinds[] = {
    AggregatorKind::kFedAvg,   AggregatorKind::kMedian, AggregatorKind::kTrimmedMean,
    AggregatorKind::kNormClip, AggregatorKind::kKrum,   AggregatorKind::kMultiKrum,
};

}  // namespace

const char* to_string(AggregatorKind kind) {
  switch (kind) {
    case AggregatorKind::kFedAvg: return "fedavg";
    case AggregatorKind::kMedian: return "median";
    case AggregatorKind::kTrimmedMean: return "trimmed_mean";
    case AggregatorKind::kNormClip: return "norm_clip";
    case AggregatorKind::kKrum: return "krum";
    case AggregatorKind::kMultiKrum: return "multi_krum";
  }
  throw Error("unknown AggregatorKind value " +
              std::to_string(static_cast<int>(kind)));
}

AggregatorKind aggregator_kind_from_name(const std::string& name) {
  for (const AggregatorKind kind : kKinds)
    if (name == to_string(kind)) return kind;
  std::ostringstream os;
  os << "unknown robust aggregator kind '" << name << "' (expected ";
  bool first = true;
  for (const AggregatorKind kind : kKinds) {
    if (!first) os << "|";
    os << to_string(kind);
    first = false;
  }
  os << ")";
  throw Error(os.str());
}

std::unique_ptr<RobustAggregator> make_robust_aggregator(AggregatorKind kind,
                                                         RobustConfig config) {
  DINAR_CHECK(config.trim_fraction >= 0.0 && config.trim_fraction < 0.5,
              "robust.trim_fraction = " << config.trim_fraction
                                        << " outside [0, 0.5)");
  DINAR_CHECK(config.outlier_threshold >= 1.0,
              "robust.outlier_threshold = " << config.outlier_threshold
                                            << " must be >= 1 (the screen must keep "
                                               "the median half of the cohort)");
  DINAR_CHECK(config.clip_multiplier > 0.0,
              "robust.clip_multiplier = " << config.clip_multiplier
                                          << " must be positive");
  switch (kind) {
    case AggregatorKind::kFedAvg:
      return std::make_unique<FedAvgAggregator>(std::move(config));
    case AggregatorKind::kMedian:
      return std::make_unique<MedianAggregator>(std::move(config));
    case AggregatorKind::kTrimmedMean:
      return std::make_unique<TrimmedMeanAggregator>(std::move(config));
    case AggregatorKind::kNormClip:
      return std::make_unique<NormClipAggregator>(std::move(config));
    case AggregatorKind::kKrum:
      return std::make_unique<KrumAggregator>(std::move(config), false);
    case AggregatorKind::kMultiKrum:
      return std::make_unique<KrumAggregator>(std::move(config), true);
  }
  throw Error("unknown AggregatorKind value " +
              std::to_string(static_cast<int>(kind)));
}

std::unique_ptr<RobustAggregator> make_robust_aggregator(const RobustConfig& config) {
  return make_robust_aggregator(aggregator_kind_from_name(config.method), config);
}

std::vector<std::string> robust_aggregator_names() {
  std::vector<std::string> names;
  for (const AggregatorKind kind : kKinds) names.emplace_back(to_string(kind));
  return names;
}

}  // namespace dinar::fl
