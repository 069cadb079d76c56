// Output checks of the end-to-end benchmark.
//
// Each check compares a job's output against an independent path (the
// reference interpreter, a monitored run, a real re-run, a local job, the
// batch post-mortem) or against a property the paper's method must have.
// None compares against a stored copy of today's output. Every check is a
// pure function of its inputs and returns an empty string when the property
// holds, or a one-line reason when it does not, so the self-tests
// (selftest.cpp) can feed each one a deliberately broken input.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/locality.h"
#include "postmortem/attribution.h"
#include "report/views.h"
#include "sampling/sample.h"

namespace perfbench::checks {

// ---- profile ---------------------------------------------------------------

/// What the engine parity check compares between two runs of one program.
struct EngineFacts {
  uint64_t totalCycles = 0;
  uint64_t instructions = 0;
  uint64_t samples = 0;
};

/// The bytecode engine's run equals the tree-walking reference interpreter's
/// in total virtual cycles, instructions executed and samples taken.
std::string engineParity(const EngineFacts& bytecode, const EngineFacts& reference);

/// The variables of the paper's Table II (minimd), IV (clomp) or VI (lulesh)
/// appear with samples under their paper contexts, and the paper's top
/// variables (Pos, partArray, hgfx/hgfy/hgfz) are in the top blame group:
/// at least half the blame of the hottest row of the same scope (module
/// scope, context `main`, or procedure scope, any other context).
std::string paperVariables(const std::string& program, const cb::pm::BlameReport& report);

/// Exclusive cycles of one program function (RunResult::cyclesPerFunction).
struct FunctionCycles {
  std::string name;
  uint64_t cycles = 0;
};

/// Each program function's sampled share (self samples in the code-centric
/// report over all samples that landed in program functions) agrees with its
/// exact share p of exclusive cycles within a bound derived from the sample
/// count n: 4 standard errors of a binomial share plus one sample,
/// 4 sqrt(p(1-p)/m) + 1/m, where m = n / workers is the effective count. The
/// worker streams run identical chunks on clocks that start together at each
/// fork, so their samples fall in lockstep and are not independent; with
/// m = n the bound is broken by lulesh's lockstep aliasing (see README).
/// Runtime frames (idle yields) have no exact counterpart and are left out
/// of both sides.
std::string functionShares(const std::vector<FunctionCycles>& exact,
                           const cb::rpt::CodeCentricReport& code, uint32_t workers);

// ---- diagnose --------------------------------------------------------------

/// The lint's predicted GET, PUT and on-fork counts equal the monitored
/// RunLog counters of the same 4-locale run.
std::string lintMatchesMonitor(const cb::an::loc::LintReport& lint,
                               const cb::sampling::RunLog& log);

/// The causal prediction for a site set at k = 2 equals the total cycles of
/// a re-run with those sites actually scaled.
std::string causalMatchesRerun(uint64_t predicted, uint64_t rerunTotal);

/// The critical path is no longer than the run.
std::string criticalPathBounded(uint64_t criticalPath, uint64_t totalCycles);

// ---- served_logs -----------------------------------------------------------

/// Two outputs are byte-identical (served vs local, or a job vs its
/// decomposition into Profiler stages).
std::string sameBytes(const std::string& what, const std::string& a, const std::string& b);

/// Reads "N user samples (M total)" from a data-centric view header.
bool parseSampleHeader(const std::string& text, uint64_t& user, uint64_t& total);

/// A log saved with --save-log and streamed back with --from-log gives the
/// data-centric text of the live run that wrote it, and the streamed sample
/// count equals the live run's sample count.
std::string roundTrip(const std::string& liveText, const std::string& streamedText,
                      uint64_t streamedSamples);

/// The streaming post-mortem's report equals the batch post-mortem's over
/// loadRunLog of the same file.
std::string streamingEqualsBatch(const cb::pm::BlameReport& streaming,
                                 const cb::pm::BlameReport& batch);

/// After warm-up every timed job was a resident-cache hit.
std::string allResidentHits(uint64_t hits, uint64_t misses, uint64_t jobs);

}  // namespace perfbench::checks
