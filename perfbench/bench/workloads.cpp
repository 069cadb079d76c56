#include "workloads.h"

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "analysis/causal.h"
#include "analysis/diagnose.h"
#include "cache/analysis_cache.h"
#include "checks.h"
#include "core/profiler.h"
#include "postmortem/parallel.h"
#include "postmortem/streaming.h"
#include "report/views.h"
#include "runtime/bytecode.h"
#include "runtime/cost_model.h"
#include "runtime/exec.h"
#include "sampling/log_io.h"
#include "sampling/log_stream.h"
#include "service/client.h"
#include "service/job.h"
#include "service/server.h"

namespace perfbench {

namespace fs = std::filesystem;
using cb::svc::JobResult;

const std::vector<std::string>& programs() {
  static const std::vector<std::string> p = {"lulesh", "minimd", "clomp"};
  return p;
}

std::vector<size_t> jobOrder(uint64_t seed) {
  std::vector<size_t> order = {0, 1, 2};
  for (uint64_t i = 0; i < seed % 6; ++i) std::next_permutation(order.begin(), order.end());
  return order;
}

bool knownWorkload(const std::string& name) {
  return name == "profile" || name == "diagnose" || name == "served_logs";
}

namespace {

/// CLI default sampling threshold (svc::runJob), and the dense threshold the
/// served_logs logs are written at and the function-share check runs at.
constexpr uint64_t kJobThreshold = 9973;
constexpr uint64_t kDenseThreshold = 997;
const std::string kLogThreshold = std::to_string(kDenseThreshold);

/// The q-quantile of `v`, interpolated at the 1-based position (n + 1) q and
/// clamped to the data, as Python's statistics.quantiles computes it.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  double pos = std::clamp(static_cast<double>(v.size() + 1) * q, 1.0,
                          static_cast<double>(v.size()));
  size_t j = static_cast<size_t>(pos);
  if (j >= v.size()) return v.back();
  return v[j - 1] + (pos - static_cast<double>(j)) * (v[j] - v[j - 1]);
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Closed-loop statistics of one or more clients.
struct Loop {
  std::vector<std::vector<double>> latencyMs = std::vector<std::vector<double>>(3);
  double jobsPerS = 0;  // each client's jobs ÷ its own loop time, summed over clients
  uint64_t jobs = 0;
  uint64_t failed = 0;
  uint64_t rounds = 0;

  void merge(const Loop& o) {
    for (size_t p = 0; p < latencyMs.size(); ++p)
      latencyMs[p].insert(latencyMs[p].end(), o.latencyMs[p].begin(), o.latencyMs[p].end());
    jobsPerS += o.jobsPerS;
    jobs += o.jobs;
    failed += o.failed;
    rounds += o.rounds;
  }
};

/// One client's closed loop: the next job is sent only after the previous
/// one returned. Runs whole rounds (one job per program, in `order`) until
/// `seconds` have passed since `start`, so every run attempts whole rounds
/// and a cut-off job never skews throughput. Throughput is taken over the
/// client's own loop: with several clients, one that finished its last round
/// would otherwise count the others' tail as its idle time.
template <class RunOne>
Loop closedLoop(const std::vector<size_t>& order, Clock::time_point start, double seconds,
                RunOne&& runOne) {
  Loop loop;
  do {
    for (size_t p : order) {
      Clock::time_point t0 = Clock::now();
      bool ok = runOne(p);
      loop.latencyMs[p].push_back(msBetween(t0, Clock::now()));
      ++loop.jobs;
      if (!ok) ++loop.failed;
    }
    ++loop.rounds;
  } while (msBetween(start, Clock::now()) < seconds * 1000.0);
  loop.jobsPerS = static_cast<double>(loop.jobs) / (msBetween(start, Clock::now()) / 1000.0);
  return loop;
}

/// Thread-safe sink for output-check failures and traced-run counters.
class Ledger {
 public:
  void fail(const std::string& what) {
    std::lock_guard<std::mutex> lock(mu_);
    if (failures_.size() < 20) failures_.push_back(what);
  }
  void add(const std::string& counter, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[counter] += v;
  }
  void max(const std::string& counter, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    counters_[counter] = std::max(counters_[counter], v);
  }
  void sample(const std::string& series, double v) {
    std::lock_guard<std::mutex> lock(mu_);
    series_[series].push_back(v);
  }
  double get(const std::string& counter) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = counters_.find(counter);
    return it == counters_.end() ? 0 : it->second;
  }
  double meanOf(const std::string& series) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = series_.find(series);
    return it == series_.end() ? 0 : mean(it->second);
  }
  std::vector<std::string> failures() const {
    std::lock_guard<std::mutex> lock(mu_);
    return failures_;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::string> failures_;
  std::map<std::string, double> counters_;
  std::map<std::string, std::vector<double>> series_;
};

/// Spans of one job. `stage` calls are the Profiler-stage decomposition of
/// the job (their sum is compared with runJob's time); `probe` calls time one
/// layer function on the job's own inputs and are outside that sum. With a
/// null tracer nothing is recorded.
class JobTrace {
 public:
  JobTrace(Tracer* tr, uint32_t thread)
      : tr_(tr), thread_(thread), id_(tr ? tr->reserve() : 0) {}

  template <class F>
  auto stage(const char* name, F&& f) {
    return call(name, true, std::forward<F>(f));
  }
  template <class F>
  auto probe(const char* name, F&& f) {
    return call(name, false, std::forward<F>(f));
  }
  /// Like probe(), also returning the call's duration in `ms`.
  template <class F>
  auto timed(const char* name, double& ms, F&& f) {
    Clock::time_point t0 = Clock::now();
    auto r = f();
    Clock::time_point t1 = Clock::now();
    if (tr_) tr_->record(name, id_, thread_, t0, t1);
    ms = msBetween(t0, t1);
    return r;
  }
  void close(const std::string& program) {
    if (tr_) tr_->close(id_, "job:" + program, 0, thread_, start_, Clock::now());
  }
  double stageMs() const { return stageMs_; }

 private:
  template <class F>
  auto call(const char* name, bool isStage, F&& f) {
    double ms = 0;
    auto r = timed(name, ms, std::forward<F>(f));
    if (isStage) stageMs_ += ms;
    return r;
  }

  Tracer* tr_;
  uint32_t thread_;
  uint64_t id_;
  Clock::time_point start_ = Clock::now();
  double stageMs_ = 0;
};

/// Runs `fn(p)` for every program on a thread of its own and waits for all:
/// the output checks after the timed loop are independent per program.
template <class Fn>
void forEachProgramConcurrently(Fn&& fn) {
  std::vector<std::thread> threads;
  for (size_t p = 0; p < programs().size(); ++p) threads.emplace_back([&fn, p] { fn(p); });
  for (std::thread& t : threads) t.join();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Per-function icache multipliers, computed the way the bytecode engine
/// computes them before lowering (runtime/exec.cpp).
std::vector<uint64_t> icacheQ10(const cb::ir::Module& m, const cb::rt::CostProfile& p) {
  std::vector<uint64_t> q(m.numFunctions(), 1024);
  for (cb::ir::FuncId f = 0; f < m.numFunctions(); ++f) {
    uint64_t n = m.function(f).numInstrs();
    if (n > p.icacheThresholdInstrs)
      q[f] = 1024 + std::min(p.icacheMaxQ10, (n - p.icacheThresholdInstrs) * p.icacheSlopeQ10);
  }
  return q;
}

/// Probes shared by the profile and diagnose decompositions: bytecode
/// lowering, and the batch post-mortem's consolidate and attribute steps, on
/// the job's own module and run log.
void traceLayerProbes(JobTrace& jt, const cb::Profiler& p, Ledger& ledger) {
  const cb::ir::Module& m = p.compilation()->module();
  const cb::rt::RunResult& rr = *p.runResult();
  cb::rt::CostProfile prof = cb::rt::CostProfile::standard();
  cb::rt::CostModel cost(prof);
  std::vector<uint64_t> q = icacheQ10(m, prof);
  jt.probe("runtime.lower", [&] { return cb::rt::bc::compile(m, cost, q).funcs.size(); });
  std::vector<cb::pm::Instance> inst = jt.probe("postmortem.consolidate", [&] {
    return cb::pm::consolidate(m, rr.log, p.options().consolidate);
  });
  jt.probe("postmortem.attribute", [&] {
    return cb::pm::attribute(*p.moduleBlame(), inst, p.options().attribution).rows.size();
  });
  ledger.add("runtime.instructions", static_cast<double>(rr.instructionsExecuted));
  ledger.add("runtime.replayed_regions", static_cast<double>(rr.parallelRegionsReplayed));
  ledger.add("runtime.race_fallback_regions", static_cast<double>(rr.log.raceFallbackRegions));
  ledger.add("sampling.samples", static_cast<double>(rr.log.samples.size()));
}

// ---- per-layer metrics -------------------------------------------------------

struct LayerSpec {
  const char* name;
  const char* unit;
};

const std::vector<LayerSpec>& layerSpecs() {
  static const std::vector<LayerSpec> specs = {
      {"frontend.compile_ms", "ms"},        {"analysis.blame_ms", "ms"},
      {"runtime.lower_ms", "ms"},           {"runtime.exec_ms", "ms"},
      {"runtime.minstr_per_s", "Minstr/s"}, {"runtime.instructions", "count"},
      {"runtime.replayed_regions", "count"}, {"runtime.race_fallback_regions", "count"},
      {"sampling.samples", "count"},        {"sampling.encode_ms", "ms"},
      {"sampling.log_mb", "MB"},            {"sampling.decode_ms", "ms"},
      {"sampling.decode_mb_per_s", "MB/s"}, {"postmortem.postprocess_ms", "ms"},
      {"postmortem.consolidate_ms", "ms"},  {"postmortem.attribute_ms", "ms"},
      {"postmortem.stream_ms", "ms"},       {"postmortem.stream_chunks", "count"},
      {"postmortem.peak_accumulator_kb", "KB"}, {"analysis.lint_ms", "ms"},
      {"analysis.causal_ms", "ms"},         {"analysis.diagnose_ms", "ms"},
      {"report.render_ms", "ms"},           {"cache.resident_hits", "count"},
      {"cache.resident_misses", "count"},   {"service.overhead_ms", "ms"},
      {"core.glue_ms", "ms"},
  };
  return specs;
}

/// Turns the loop's spans and counters into the per-layer metrics. Times are
/// means per job; counts are per round (one job of each program), so they
/// repeat exactly from run to run.
std::vector<Metric> layerMetrics(const Tracer& tr, const Ledger& ledger, const Loop& loop) {
  std::map<std::string, double> tot = tr.totalsMs();
  double jobs = static_cast<double>(std::max<uint64_t>(1, loop.jobs));
  double rounds = static_cast<double>(std::max<uint64_t>(1, loop.rounds));
  std::map<std::string, double> v;
  auto perJob = [&](const char* metric, const char* span) { v[metric] = tot[span] / jobs; };
  perJob("frontend.compile_ms", "frontend.compile");
  perJob("analysis.blame_ms", "analysis.blame");
  perJob("runtime.lower_ms", "runtime.lower");
  perJob("runtime.exec_ms", "runtime.exec");
  perJob("sampling.decode_ms", "sampling.decode");
  perJob("postmortem.postprocess_ms", "postmortem.postprocess");
  perJob("postmortem.consolidate_ms", "postmortem.consolidate");
  perJob("postmortem.attribute_ms", "postmortem.attribute");
  perJob("postmortem.stream_ms", "postmortem.stream");
  perJob("analysis.lint_ms", "analysis.lint");
  perJob("analysis.causal_ms", "analysis.causal");
  perJob("analysis.diagnose_ms", "analysis.diagnose");
  perJob("report.render_ms", "report.render");
  double instr = ledger.get("runtime.instructions");
  v["runtime.minstr_per_s"] = tot["runtime.exec"] > 0 ? instr / (tot["runtime.exec"] * 1000.0) : 0;
  for (const char* c : {"runtime.instructions", "runtime.replayed_regions",
                        "runtime.race_fallback_regions", "sampling.samples",
                        "postmortem.stream_chunks"})
    v[c] = ledger.get(c) / rounds;
  double decodedMb = ledger.get("sampling.decoded_bytes") / 1e6;
  v["sampling.decode_mb_per_s"] =
      tot["sampling.decode"] > 0 ? decodedMb / (tot["sampling.decode"] / 1000.0) : 0;
  for (const char* c : {"sampling.encode_ms", "sampling.log_mb", "postmortem.peak_accumulator_kb",
                        "cache.resident_hits", "cache.resident_misses"})
    v[c] = ledger.get(c);
  v["service.overhead_ms"] = ledger.get("service.overhead_sum_ms") / jobs;
  v["core.glue_ms"] = ledger.get("core.glue_sum_ms") / jobs;

  std::vector<Metric> out;
  for (const LayerSpec& s : layerSpecs()) out.push_back({s.name, v[s.name], s.unit});
  return out;
}

// ---- workloads ---------------------------------------------------------------

struct Common {
  const Options& opts;
  std::vector<size_t> order;
  std::unique_ptr<Tracer> tracer;
  Ledger ledger;
  Result result;
  Clock::time_point loopStart;

  explicit Common(const Options& o) : opts(o), order(jobOrder(o.seed)) {
    if (o.trace) tracer = std::make_unique<Tracer>(o.processStart);
  }

  void check(const std::string& what, const std::string& failure) {
    if (!failure.empty()) ledger.fail(what + ": " + failure);
  }

  /// End-to-end metrics of a finished loop.
  void finishLoop(const Loop& loop, Clock::time_point loopEnd) {
    result.attempted = loop.jobs;
    result.failed = loop.failed;
    double loopS = msBetween(loopStart, loopEnd) / 1000.0;
    if (opts.trace) {
      result.metrics = layerMetrics(*tracer, ledger, loop);
    } else {
      result.metrics.push_back({"setup_s", msBetween(opts.processStart, loopStart) / 1000.0, "s"});
      result.metrics.push_back({"jobs_per_s", loop.jobsPerS, "jobs/s"});
      // The lower quartile of each program's job latencies. Every job of a
      // program does the same work (its output bytes are checked equal), so
      // their spread is the shared machine's: jobs that met a busy neighbour
      // or a slow core run long, and the mean and the median move with how
      // many did. The lower quartile is the job's cost when the machine
      // lets it run, and a change to that cost moves it.
      for (size_t p = 0; p < programs().size(); ++p)
        result.metrics.push_back({programs()[p] + "_ms", quantile(loop.latencyMs[p], 0.25), "ms"});
      result.metrics.push_back({"peak_rss_mb", peakRssMb(), "MB"});
    }
    std::ostringstream note;
    note << opts.workload << ": " << loop.jobs << " jobs in " << loop.rounds << " rounds, "
         << loopS << " s;";
    for (size_t p = 0; p < programs().size(); ++p) {
      const std::vector<double>& v = loop.latencyMs[p];
      note << " " << programs()[p] << " q1 " << quantile(v, 0.25) << " median " << quantile(v, 0.5)
           << " mean " << mean(v) << " ms ["
           << *std::min_element(v.begin(), v.end()) << ", "
           << *std::max_element(v.begin(), v.end()) << "] n=" << v.size() << ";";
    }
    result.notes.push_back(note.str());
  }

  /// Writes the Chrome trace with the per-layer metrics and the traced
  /// run's own end-to-end figures, so the tracing overhead can be read off
  /// against an untraced run.
  void writeTrace(const Loop& loop) {
    std::map<std::string, double> other;
    for (const Metric& m : result.metrics) other[m.name] = m.value;
    for (size_t p = 0; p < programs().size(); ++p) {
      other["traced." + programs()[p] + "_job_ms"] = mean(loop.latencyMs[p]);
      other["traced." + programs()[p] + "_runjob_ms"] =
          ledger.meanOf("runjob_ms." + programs()[p]);
    }
    std::string path = opts.outDir + "/trace-" + opts.workload + "-seed" +
                       std::to_string(opts.seed) + ".json";
    if (!tracer->writeChromeJson(path, other)) check("trace", "cannot write " + path);
    else result.notes.push_back("trace written to " + path);
  }

  Result finish() {
    result.checkFailures = ledger.failures();
    return std::move(result);
  }
};

/// What a job's Profiler-stage decomposition leaves besides the Profiler.
struct StageOut {
  std::string text;                  // the job's output
  cb::an::loc::LintReport lint;      // diagnose only
};

/// `cb <prog>` (svc::runJob) as its Profiler stages.
bool profileStages(JobTrace& jt, cb::Profiler& prof, const std::string& program, StageOut& out) {
  prof.options().run.sampleThreshold = kJobThreshold;
  std::string path = cb::assetProgram(program);
  bool ok = jt.stage("frontend.compile", [&] { return prof.compileFile(path); }) &&
            jt.stage("analysis.blame", [&] { return prof.analyze(); }) &&
            jt.stage("runtime.exec", [&] { return prof.run(); }) &&
            jt.stage("postmortem.postprocess", [&] { return prof.postProcess(); });
  if (ok) out.text = jt.stage("report.render", [&] { return prof.dataCentricText(); });
  return ok;
}

/// `cb <prog> --diagnose` (svc::runJob) as its Profiler stages, with
/// Profiler::diagnoseText taken apart one public call at a time.
bool diagnoseStages(JobTrace& jt, cb::Profiler& prof, const std::string& program,
                    StageOut& out) {
  prof.options().run.sampleThreshold = kJobThreshold;
  prof.options().run.trackCausalSites = true;
  prof.options().run.numLocales = 4;
  std::string path = cb::assetProgram(program);
  bool ok = jt.stage("frontend.compile", [&] { return prof.compileFile(path); }) &&
            jt.stage("analysis.blame", [&] { return prof.analyze(); }) &&
            jt.stage("runtime.exec", [&] { return prof.run(); }) &&
            jt.stage("postmortem.postprocess", [&] { return prof.postProcess(); });
  if (!ok) return false;
  cb::an::causal::CausalReport causal =
      jt.stage("analysis.causal", [&] { return prof.causalReport(); });
  out.lint = jt.stage("analysis.lint", [&] { return prof.lintReport(); });
  std::vector<std::string> regionNames;
  cb::an::diag::DiagnoseReport diag = jt.stage("analysis.diagnose", [&] {
    const cb::sampling::RunLog& log = prof.runResult()->log;
    uint32_t workers = log.numStreams > 1 ? log.numStreams - 1 : prof.options().run.numWorkers;
    cb::an::diag::Inputs in = cb::rpt::diagnoseInputs(log, workers, *prof.blameReport());
    in.causal = &causal;
    in.lint = &out.lint;
    const cb::ir::Module& m = prof.compilation()->module();
    for (const cb::an::causal::RegionSummary& rs : causal.regions)
      regionNames.push_back(rs.taskFn != cb::ir::kNone ? cb::pm::userContextName(m, rs.taskFn)
                                                       : "");
    in.regionNames = regionNames;
    return cb::an::diag::diagnose(in);
  });
  out.text = jt.stage("report.render",
                      [&] { return cb::rpt::diagnoseView(causal, diag, regionNames); });
  return true;
}

using Stages = bool (*)(JobTrace&, cb::Profiler&, const std::string&, StageOut&);

/// A set-up job's Profiler and outputs, kept for the checks.
struct SetupJob {
  cb::Profiler prof;
  StageOut out;
};

/// The profile and diagnose workloads: one client runs `argv` jobs through
/// svc::runJob in the seed's round-robin. Set-up is the cold first job of
/// each program, run as its Profiler stages; the stages' output must equal
/// every timed job's output, and their artefacts feed the checks.
/// Returns the set-up jobs for the workload's own checks.
std::vector<std::unique_ptr<SetupJob>> runJobLoop(Common& c, Stages stages,
                                                      const std::vector<std::string>& flags) {
  auto argvOf = [&](size_t p) {
    std::vector<std::string> argv = {programs()[p]};
    argv.insert(argv.end(), flags.begin(), flags.end());
    return argv;
  };
  std::vector<std::unique_ptr<SetupJob>> setup(programs().size());
  for (size_t p : c.order) {
    JobTrace none(nullptr, 0);
    setup[p] = std::make_unique<SetupJob>();
    if (!stages(none, setup[p]->prof, programs()[p], setup[p]->out))
      c.check("setup " + programs()[p], setup[p]->prof.lastError());
  }

  auto untraced = [&](size_t p) {
    JobResult r = cb::svc::runJob(argvOf(p));
    if (r.exitCode == 0)
      c.check(programs()[p] + " output",
              checks::sameBytes("runJob and Profiler-stage outputs", setup[p]->out.text, r.out));
    return r.exitCode == 0;
  };
  auto traced = [&](size_t p) {
    JobTrace jt(c.tracer.get(), 0);
    double runJobMs = 0;
    JobResult r = jt.timed("core.runJob", runJobMs, [&] { return cb::svc::runJob(argvOf(p)); });
    c.ledger.sample("runjob_ms." + programs()[p], runJobMs);
    cb::Profiler prof;
    StageOut out;
    bool ok = stages(jt, prof, programs()[p], out);
    if (ok) {
      c.check(programs()[p] + " output",
              checks::sameBytes("runJob and Profiler-stage outputs", r.out, out.text));
      traceLayerProbes(jt, prof, c.ledger);
      c.ledger.add("core.glue_sum_ms", runJobMs - jt.stageMs());
    }
    jt.close(programs()[p]);
    return ok && r.exitCode == 0;
  };

  c.loopStart = Clock::now();
  Loop loop = c.opts.trace ? closedLoop(c.order, c.loopStart, c.opts.seconds, traced)
                           : closedLoop(c.order, c.loopStart, c.opts.seconds, untraced);
  c.finishLoop(loop, Clock::now());
  if (c.opts.trace) c.writeTrace(loop);
  return setup;
}

// -- profile: plain `cb <prog>` jobs -------------------------------------------

Result runProfile(const Options& opts) {
  Common c(opts);
  std::vector<std::unique_ptr<SetupJob>> setup = runJobLoop(c, profileStages, {});
  // The reference interpreter is several times slower than the bytecode
  // engine; the three programs' reference runs go side by side.
  forEachProgramConcurrently([&](size_t p) {
    const std::string& name = programs()[p];
    const cb::Profiler& bc = setup[p]->prof;
    if (!bc.runResult() || !bc.blameReport()) return;  // set-up failure already recorded
    // Function shares are checked on a profile 10x denser than the jobs': at
    // the CLI threshold the bound is too wide to catch a 2x misattribution on
    // lulesh, and at this one it is the bound the self-test trips. It runs
    // beside the reference run (the future's destructor waits for it).
    cb::Profiler dense;
    dense.options().run.sampleThreshold = kDenseThreshold;
    std::future<bool> denseOk = std::async(
        std::launch::async, [&] { return dense.profileFile(cb::assetProgram(name)); });
    cb::Profiler ref;
    ref.options().run.sampleThreshold = kJobThreshold;
    ref.options().run.referenceInterp = true;
    if (!ref.compileFile(cb::assetProgram(name)) || !ref.run()) {
      c.check(name, "reference run failed: " + ref.lastError());
      return;
    }
    const cb::rt::RunResult& b = *bc.runResult();
    const cb::rt::RunResult& r = *ref.runResult();
    c.check(name + " engine parity",
            checks::engineParity({b.totalCycles, b.instructionsExecuted, b.log.samples.size()},
                                 {r.totalCycles, r.instructionsExecuted, r.log.samples.size()}));
    c.check(name + " paper variables", checks::paperVariables(name, *bc.blameReport()));
    if (!denseOk.get()) {
      c.check(name, "dense profile failed: " + dense.lastError());
      return;
    }
    std::vector<checks::FunctionCycles> exact;
    const cb::ir::Module& m = dense.compilation()->module();
    for (cb::ir::FuncId f = 0; f < m.numFunctions(); ++f)
      exact.push_back({m.function(f).displayName, dense.runResult()->cyclesPerFunction[f]});
    c.check(name + " function shares",
            checks::functionShares(exact, *dense.codeReport(), dense.options().run.numWorkers));
  });
  return c.finish();
}

// -- diagnose: `cb <prog> --diagnose` jobs -------------------------------------

Result runDiagnose(const Options& opts) {
  Common c(opts);
  std::vector<std::unique_ptr<SetupJob>> setup =
      runJobLoop(c, diagnoseStages, {"--diagnose"});
  // The scaled re-runs are independent per program; they go side by side.
  forEachProgramConcurrently([&](size_t p) {
    const std::string& name = programs()[p];
    const cb::Profiler& d = setup[p]->prof;
    if (!d.runResult() || !d.blameReport()) return;  // set-up failure already recorded
    const cb::sampling::RunLog& log = d.runResult()->log;
    c.check(name + " lint vs monitor", checks::lintMatchesMonitor(setup[p]->out.lint, log));
    cb::an::causal::Timeline tl = cb::an::causal::buildTimeline(log);
    c.check(name + " critical path",
            tl.ok ? checks::criticalPathBounded(tl.criticalPath, log.totalCycles)
                  : "timeline: " + tl.error);
    // The top-ranked variable that carries sites; k = 2 is kFactors[1].
    std::vector<uint64_t> sites;
    for (const cb::pm::VariableSiteSet& row :
         cb::pm::attributionSites(*d.moduleBlame(), *d.instances(), d.options().attribution))
      if (!row.sites.empty()) {
        sites = row.sites;
        break;
      }
    if (!tl.ok || sites.empty()) {
      c.check(name + " causal", "no attributed sites to scale");
      return;
    }
    uint64_t predicted = cb::an::causal::predictTotal(log, tl, sites, 1);
    cb::rt::RunOptions scaled = d.options().run;
    scaled.causalScale.sites = sites;
    scaled.causalScale.num = 2;
    scaled.causalScale.den = 1;
    cb::rt::RunResult rerun = cb::rt::execute(d.compilation()->module(), scaled);
    c.check(name + " causal", rerun.ok ? checks::causalMatchesRerun(predicted, rerun.totalCycles)
                                       : "scaled re-run failed: " + rerun.error);
  });
  return c.finish();
}

// -- served_logs: `cb <prog> --from-log <log>` jobs served by cb-serve -------

/// Writes each program's log with a live `cb <prog> --threshold 997
/// --save-log <log>` job, and the job's output to `<log>.out`, in a child
/// process. The live clomp run holds about 600 MB; in this process it would
/// set `peak_rss_mb` far above anything the served path does. Call it while
/// this process has no other threads. Returns "" or what went wrong.
std::string writeLogsInChild(const std::vector<size_t>& order,
                             const std::vector<std::string>& logs) {
  std::fflush(nullptr);
  pid_t pid = fork();
  if (pid < 0) return "cannot fork the log writer";
  if (pid == 0) {
    int code = 0;
    for (size_t p : order) {
      JobResult r =
          cb::svc::runJob({programs()[p], "--threshold", kLogThreshold, "--save-log", logs[p]});
      std::ofstream(logs[p] + ".out", std::ios::binary) << r.out;
      if (r.exitCode != 0) {
        std::fprintf(stderr, "log writer: %s exit %d: %s\n", programs()[p].c_str(), r.exitCode,
                     r.err.c_str());
        code = 1;
      }
    }
    std::fflush(nullptr);
    _exit(code);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0)
    if (errno != EINTR) return "cannot wait for the log writer";
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    return "log writer failed (wait status " + std::to_string(status) + ")";
  return {};
}

Result runServedLogs(const Options& opts) {
  Common c(opts);
  constexpr uint32_t kClients = 2;
  std::string logDir = opts.outDir + "/logs";
  fs::create_directories(logDir);
  std::vector<std::string> logs, liveText(3);
  for (const std::string& name : programs()) logs.push_back(logDir + "/" + name + ".cbl");
  auto argvOf = [&](size_t p) {
    return std::vector<std::string>{programs()[p], "--from-log", logs[p]};
  };

  // Set-up 1: write the logs with live --save-log jobs at a dense threshold.
  std::string writer = writeLogsInChild(c.order, logs);
  if (!writer.empty()) {
    c.check("setup", writer);
    return c.finish();
  }
  for (size_t p = 0; p < programs().size(); ++p) liveText[p] = readFile(logs[p] + ".out");
  double logBytes = 0;
  for (const std::string& l : logs) logBytes += static_cast<double>(fs::file_size(l));
  if (opts.trace) {
    // Encode probe: re-save each log from its decoded form.
    for (size_t p = 0; p < programs().size(); ++p) {
      cb::sampling::RunLog log;
      if (!cb::sampling::loadRunLog(logs[p], log)) continue;
      Clock::time_point t0 = Clock::now();
      cb::sampling::saveRunLog(log, logDir + "/encode-probe.cbl");
      c.ledger.add("sampling.encode_ms", msBetween(t0, Clock::now()));
    }
    fs::remove(logDir + "/encode-probe.cbl");
    c.ledger.add("sampling.log_mb", logBytes / 1e6);
  }

  // Set-up 2: the in-process daemon, and one warm-up request per log.
  cb::svc::ServerOptions so;
  so.socketPath = opts.outDir + "/cb.sock";
  so.workers = 2;
  cb::svc::Server server(so);
  if (!server.start()) {
    c.check("setup", "cb-serve did not start: " + server.lastError());
    return c.finish();
  }
  // Warm-up outputs: every timed job of a program must repeat its bytes.
  std::vector<std::string> pins(programs().size());
  for (size_t p : c.order) {
    cb::svc::ClientResult r = cb::svc::runRemote(so.socketPath, argvOf(p));
    if (!r.ok || r.job.exitCode != 0)
      c.check("warm-up " + programs()[p], r.ok ? r.job.err : r.error);
    pins[p] = r.job.out;
  }

  // Traced runs compare each served job with the same job run locally
  // against a resident cache of their own, warmed here.
  cb::cache::ResidentProgramCache localCache;
  cb::svc::JobContext localCtx;
  localCtx.resident = &localCache;
  if (opts.trace)
    for (size_t p = 0; p < programs().size(); ++p) cb::svc::runJob(argvOf(p), localCtx);

  uint64_t hits0 = server.residentCache().hits(), misses0 = server.residentCache().misses();
  auto untraced = [&](size_t p) {
    cb::svc::ClientResult r = cb::svc::runRemote(so.socketPath, argvOf(p));
    bool ok = r.ok && r.job.exitCode == 0;
    if (ok)
      c.check(programs()[p] + " output",
              checks::sameBytes("repeated served outputs", pins[p], r.job.out));
    return ok;
  };
  auto traced = [&](uint32_t client, size_t p) {
    JobTrace jt(c.tracer.get(), client);
    double servedMs = 0, localMs = 0;
    cb::svc::ClientResult r = jt.timed("service.request", servedMs, [&] {
      return cb::svc::runRemote(so.socketPath, argvOf(p));
    });
    JobResult local =
        jt.timed("core.runJob", localMs, [&] { return cb::svc::runJob(argvOf(p), localCtx); });
    c.ledger.sample("runjob_ms." + programs()[p], localMs);
    // The job's stages: resident lookup, streaming post-mortem, rendering.
    std::string path = cb::assetProgram(programs()[p]);
    auto prog = jt.stage("cache.lookup", [&] {
      uint64_t key = cb::cache::hashProgram(path, readFile(path), cb::fe::CompileOptions{},
                                            cb::an::BlameOptions{});
      return localCache.find(key);
    });
    bool ok = r.ok && r.job.exitCode == 0 && prog != nullptr;
    if (prog) {
      cb::pm::StreamingPostmortemOptions sopts;
      cb::pm::BlameReport report;
      cb::pm::StreamingPostmortemStats stats;
      ok &= jt.stage("postmortem.stream", [&] {
        return cb::pm::runPostmortemStreamingFile(prog->comp->module(), prog->blame.get(), logs[p],
                                                  sopts, report, nullptr, &stats);
      });
      std::string text =
          jt.stage("report.render", [&] { return cb::rpt::dataCentricView(report, {}); });
      c.check(programs()[p] + " output",
              checks::sameBytes("runJob and Profiler-stage outputs", local.out, text));
      c.ledger.add("postmortem.stream_chunks", static_cast<double>(stats.chunks));
      c.ledger.add("sampling.samples", static_cast<double>(stats.samples));
      c.ledger.max("postmortem.peak_accumulator_kb",
                   static_cast<double>(stats.peakAccumulatorBytes) / 1024.0);
      jt.probe("sampling.decode", [&] {
        cb::sampling::RunLogStreamer s;
        cb::sampling::RunLog log;
        return s.openFile(logs[p]) && s.readAll(log);
      });
      c.ledger.add("sampling.decoded_bytes", static_cast<double>(fs::file_size(logs[p])));
      c.ledger.add("core.glue_sum_ms", localMs - jt.stageMs());
    }
    c.ledger.add("service.overhead_sum_ms", servedMs - localMs);
    if (r.ok)
      c.check(programs()[p] + " served vs local",
              checks::sameBytes("served and local outputs", r.job.out, local.out));
    jt.close(programs()[p]);
    return ok;
  };

  // kClients closed-loop clients, each rotating the seed's order by its id.
  c.loopStart = Clock::now();
  std::vector<Loop> loops(kClients);
  std::vector<std::thread> clients;
  for (uint32_t id = 0; id < kClients; ++id) {
    clients.emplace_back([&, id] {
      std::vector<size_t> order = c.order;
      std::rotate(order.begin(), order.begin() + id % order.size(), order.end());
      auto tracedJob = [&](size_t p) { return traced(id, p); };
      loops[id] = opts.trace ? closedLoop(order, c.loopStart, opts.seconds, tracedJob)
                             : closedLoop(order, c.loopStart, opts.seconds, untraced);
    });
  }
  for (std::thread& t : clients) t.join();
  Clock::time_point loopEnd = Clock::now();
  Loop loop;
  for (const Loop& l : loops) loop.merge(l);
  uint64_t hits = server.residentCache().hits() - hits0;
  uint64_t misses = server.residentCache().misses() - misses0;
  if (opts.trace) {
    c.ledger.add("cache.resident_hits", static_cast<double>(hits));
    c.ledger.add("cache.resident_misses", static_cast<double>(misses));
  }
  c.finishLoop(loop, loopEnd);
  if (opts.trace) c.writeTrace(loop);
  server.stop();

  c.check("resident cache", checks::allResidentHits(hits, misses, loop.jobs));
  forEachProgramConcurrently([&](size_t p) {
    const std::string& name = programs()[p];
    JobResult local = cb::svc::runJob(argvOf(p));
    c.check(name + " served vs local",
            checks::sameBytes("served and local outputs", pins[p], local.out));
    cb::Profiler prog;
    if (!prog.compileFile(cb::assetProgram(name)) || !prog.analyze()) {
      c.check(name, "compile failed: " + prog.lastError());
      return;
    }
    const cb::ir::Module& m = prog.compilation()->module();
    cb::pm::BlameReport streamed;
    cb::pm::StreamingPostmortemStats stats;
    cb::sampling::RunLog batchLog;
    if (!cb::pm::runPostmortemStreamingFile(m, prog.moduleBlame(), logs[p], {}, streamed, nullptr,
                                            &stats) ||
        !cb::sampling::loadRunLog(logs[p], batchLog)) {
      c.check(name, "cannot read back " + logs[p]);
      return;
    }
    c.check(name + " save/stream round trip",
            checks::roundTrip(liveText[p], local.out, stats.samples));
    cb::pm::ParallelOptions sequential;
    sequential.workers = 1;
    cb::pm::PostmortemResult batch =
        cb::pm::runPostmortem(m, prog.moduleBlame(), batchLog, prog.options().consolidate,
                              prog.options().attribution, sequential);
    c.check(name + " streaming vs batch", checks::streamingEqualsBatch(streamed, batch.report));
  });
  return c.finish();
}

}  // namespace

Result runWorkload(const Options& opts) {
  try {
    fs::create_directories(opts.outDir);
    if (opts.workload == "profile") return runProfile(opts);
    if (opts.workload == "diagnose") return runDiagnose(opts);
    return runServedLogs(opts);
  } catch (const std::exception& e) {
    Result r;
    r.checkFailures.push_back(std::string("benchmark error: ") + e.what());
    return r;
  }
}

}  // namespace perfbench
