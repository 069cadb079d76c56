// The benchmark's workloads: closed loops over the cb user paths, driven in
// one process through the entry points the CLI and the daemon use
// (svc::runJob, svc::Server + svc::runRemote).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;   // profile | diagnose | served_logs
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string outDir = ".bench_out";  // logs, socket and trace file
  Clock::time_point processStart;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// One line per failed output check; empty = every check passed.
  std::vector<std::string> checkFailures;
  /// Human-readable notes for stderr (per-program figures, trace path).
  std::vector<std::string> notes;
};

/// The paper programs, in canonical order.
const std::vector<std::string>& programs();

/// The round-robin order of the three programs for a seed: one of the six
/// permutations, so every seed runs the same jobs in a different order.
std::vector<size_t> jobOrder(uint64_t seed);

bool knownWorkload(const std::string& name);

/// Runs one workload to its end. Never throws.
Result runWorkload(const Options& opts);

}  // namespace perfbench
