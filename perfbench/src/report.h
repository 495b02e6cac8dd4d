// Metrics and output checks of one benchmark run, printed as one JSON
// object on the last line of stdout (run.py turns it into the result
// line and the readable `name value unit` table).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
  std::int64_t samples = 1;  // measurements the value summarizes
  std::string note;          // e.g. which percentile a tail is
};

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::vector<Check> checks;
  std::int64_t rounds_attempted = 0;
  std::string final_hash;

  void set(const std::string& name, double value, const std::string& unit,
           std::int64_t samples = 1, const std::string& note = "") {
    metrics[name] = Metric{value, unit, samples, note};
  }
  void check(const std::string& name, bool ok, const std::string& detail) {
    checks.push_back(Check{name, ok, detail});
  }
};

// Percentile p in [0, 100], interpolating linearly between order statistics.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

}  // namespace perfbench
