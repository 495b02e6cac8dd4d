// The traced run: the same federation, driven round by round through the
// public calls FederatedSimulation::run_round makes, with a span around
// each call; plus replays of the layers whose calls run_round keeps
// private (RoundStore appends and snapshots) or that sit below the client
// API (nn forward/backward, the optimizer step, DINAR's per-layer restore
// and obfuscate).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {

// What the untraced run observed, for the replays and the overhead ratio.
struct UntracedFacts {
  std::string final_hash;
  double round_p50_ms = 0.0;
  int rounds = 0;
  // Durable workloads: WAL record sizes the real run appended, and the
  // sizes of the snapshots it installed.
  std::vector<std::uint64_t> wal_record_bytes;
  std::vector<std::uint64_t> snapshot_bytes;
};

// Runs the traced pass and adds every per-layer metric and the
// traced-vs-untraced hash check to `report`. Writes the Chrome trace to
// `trace_path`; `work_dir` holds the replayed store.
void traced_run(const std::string& workload, std::uint64_t seed, int rounds,
                const UntracedFacts& facts, const std::string& work_dir,
                const std::string& trace_path, Report& report);

}  // namespace perfbench
