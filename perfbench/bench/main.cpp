// cb_perfbench: runs one benchmark workload in this process and prints, as
// the last line of stdout, one JSON object with the keys `correct`,
// `attempted`, `failed` and `metrics`.
//
//   cb_perfbench --workload profile|diagnose|served_logs --seed N
//                --seconds S --trace 0|1 [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same jobs
// through the Profiler stages and each layer's public calls, reports the
// per-layer metrics and writes a Chrome trace-event file into DIR.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

// Captured during static initialisation, before main: set-up time is
// measured from here.
const perfbench::Clock::time_point kProcessStart = perfbench::Clock::now();

int usage(const char* msg) {
  std::fprintf(stderr,
               "cb_perfbench: %s\nusage: cb_perfbench --workload profile|diagnose|served_logs "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  opts.processStart = kProcessStart;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return usage("--seed takes a whole number");
    } else if (a == "--seconds") {
      opts.seconds = std::strtod(v.c_str(), &end);
      if (*end || opts.seconds <= 0) return usage("--seconds takes a positive number");
    } else if (a == "--trace") {
      if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
      opts.trace = v == "1";
    } else if (a == "--out-dir") {
      opts.outDir = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (!perfbench::knownWorkload(opts.workload)) return usage("unknown or missing --workload");

  perfbench::Result r = perfbench::runWorkload(opts);
  for (const std::string& n : r.notes) std::fprintf(stderr, "%s\n", n.c_str());
  for (const std::string& f : r.checkFailures)
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  // No job may fail on any workload: a failed job makes the run incorrect,
  // so a run whose jobs fail fast cannot pass for a faster one.
  bool correct = r.checkFailures.empty() && r.attempted > 0 && r.failed == 0;

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  char buf[256];
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                  i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
