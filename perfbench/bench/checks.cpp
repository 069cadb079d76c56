#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

namespace perfbench::checks {

namespace {

std::string str(uint64_t v) { return std::to_string(v); }

struct PaperRow {
  const char* name;
  const char* context;
};

// The paper's Tables II, IV and VI: variable name and the context the paper
// lists it under.
const std::map<std::string, std::vector<PaperRow>>& paperTables() {
  static const std::map<std::string, std::vector<PaperRow>> tables = {
      {"minimd",
       {{"Pos", "main"},
        {"Bins", "main"},
        {"RealCount", "main"},
        {"RealPos", "main"},
        {"Count", "main"},
        {"binSpace", "main"}}},
      {"clomp",
       {{"partArray", "main"},
        {"->partArray[i]", "main"},
        {"->partArray[i].zoneArray[j]", "main"},
        {"->partArray[i].zoneArray[j].value", "main"},
        {"->partArray[i].residue", "main"},
        {"remaining_deposit", "update_part"}}},
      {"lulesh",
       {{"hgfz", "CalcFBHourglassForceForElems"},
        {"hgfx", "CalcFBHourglassForceForElems"},
        {"hgfy", "CalcFBHourglassForceForElems"},
        {"shz", "CalcElemFBHourglassForce"},
        {"hz", "CalcElemFBHourglassForce"},
        {"shx", "CalcElemFBHourglassForce"},
        {"shy", "CalcElemFBHourglassForce"},
        {"hx", "CalcElemFBHourglassForce"},
        {"hy", "CalcElemFBHourglassForce"},
        {"hourgam", "CalcFBHourglassForceForElems"},
        {"determ", "CalcVolumeForceForElems"},
        {"b_x", "IntegrateStressForElems"},
        {"b_z", "IntegrateStressForElems"},
        {"b_y", "IntegrateStressForElems"},
        {"dvdx", "CalcHourglassControlForElems"},
        {"hourmodx", "CalcFBHourglassForceForElems"},
        {"hourmody", "CalcFBHourglassForceForElems"},
        {"hourmodz", "CalcFBHourglassForceForElems"}}},
  };
  return tables;
}

const std::map<std::string, std::vector<std::string>>& paperTopVariables() {
  static const std::map<std::string, std::vector<std::string>> tops = {
      {"minimd", {"Pos"}}, {"clomp", {"partArray"}}, {"lulesh", {"hgfx", "hgfy", "hgfz"}}};
  return tops;
}

const cb::pm::VariableBlame* findRow(const cb::pm::BlameReport& r, const std::string& name,
                                     const std::string& context) {
  for (const cb::pm::VariableBlame& row : r.rows)
    if (row.name == name && row.context == context) return &row;
  return nullptr;
}

}  // namespace

std::string engineParity(const EngineFacts& bc, const EngineFacts& ref) {
  if (bc.totalCycles != ref.totalCycles)
    return "total cycles " + str(bc.totalCycles) + " (bytecode) != " + str(ref.totalCycles) +
           " (reference)";
  if (bc.instructions != ref.instructions)
    return "instructions " + str(bc.instructions) + " (bytecode) != " + str(ref.instructions) +
           " (reference)";
  if (bc.samples != ref.samples)
    return "samples " + str(bc.samples) + " (bytecode) != " + str(ref.samples) + " (reference)";
  return {};
}

std::string paperVariables(const std::string& program, const cb::pm::BlameReport& report) {
  auto table = paperTables().find(program);
  if (table == paperTables().end()) return "no paper table for " + program;
  for (const PaperRow& pr : table->second) {
    const cb::pm::VariableBlame* row = findRow(report, pr.name, pr.context);
    if (!row) return std::string(pr.name) + " missing under context " + pr.context;
    if (row->sampleCount == 0) return std::string(pr.name) + " has no samples";
  }
  double topModule = 0, topProc = 0;
  for (const cb::pm::VariableBlame& row : report.rows) {
    double& top = row.context == "main" ? topModule : topProc;
    top = std::max(top, row.percent);
  }
  for (const std::string& name : paperTopVariables().at(program)) {
    const PaperRow* pr = nullptr;
    for (const PaperRow& r : table->second)
      if (name == r.name) pr = &r;
    const cb::pm::VariableBlame* row = findRow(report, pr->name, pr->context);
    double top = row->context == "main" ? topModule : topProc;
    if (row->percent < 0.5 * top) {
      std::ostringstream os;
      os << name << " at " << row->percent << "% is outside the top blame group (hottest "
         << top << "%)";
      return os.str();
    }
  }
  return {};
}

std::string functionShares(const std::vector<FunctionCycles>& exact,
                           const cb::rpt::CodeCentricReport& code, uint32_t workers) {
  std::map<std::string, uint64_t> cycles, samples;
  for (const FunctionCycles& f : exact) cycles[f.name] += f.cycles;
  for (const cb::rpt::CodeCentricRow& row : code.rows)
    if (cycles.count(row.function)) samples[row.function] += row.self;
  uint64_t totalCycles = 0, n = 0;
  for (const auto& [name, c] : cycles) totalCycles += c;
  for (const auto& [name, s] : samples) n += s;
  if (totalCycles == 0 || n == 0) return "no samples in program functions";
  double m = static_cast<double>(n) / std::max<uint32_t>(1, workers);
  for (const auto& [name, c] : cycles) {
    double p = static_cast<double>(c) / static_cast<double>(totalCycles);
    double q = static_cast<double>(samples[name]) / static_cast<double>(n);
    double bound = 4.0 * std::sqrt(p * (1.0 - p) / m) + 1.0 / m;
    if (std::fabs(q - p) > bound) {
      char buf[256];
      std::snprintf(buf, sizeof buf, "%s: sampled share %.5f vs exact %.5f (bound %.5f, n=%llu)",
                    name.c_str(), q, p, bound, static_cast<unsigned long long>(n));
      return buf;
    }
  }
  return {};
}

std::string lintMatchesMonitor(const cb::an::loc::LintReport& lint,
                               const cb::sampling::RunLog& log) {
  if (!lint.ok || lint.truncated) return "lint did not complete: " + lint.error;
  if (lint.predictedGets != log.commGets)
    return "GETs predicted " + str(lint.predictedGets) + " != monitored " + str(log.commGets);
  if (lint.predictedPuts != log.commPuts)
    return "PUTs predicted " + str(lint.predictedPuts) + " != monitored " + str(log.commPuts);
  if (lint.predictedOnForks != log.commOnForks)
    return "on-forks predicted " + str(lint.predictedOnForks) + " != monitored " +
           str(log.commOnForks);
  return {};
}

std::string causalMatchesRerun(uint64_t predicted, uint64_t rerunTotal) {
  if (predicted != rerunTotal)
    return "k=2 prediction " + str(predicted) + " != scaled re-run " + str(rerunTotal);
  return {};
}

std::string criticalPathBounded(uint64_t criticalPath, uint64_t totalCycles) {
  if (criticalPath == 0) return "empty critical path";
  if (criticalPath > totalCycles)
    return "critical path " + str(criticalPath) + " > total cycles " + str(totalCycles);
  return {};
}

std::string sameBytes(const std::string& what, const std::string& a, const std::string& b) {
  if (a == b) return {};
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return what + " differ at byte " + str(i) + " (" + str(a.size()) + " vs " + str(b.size()) +
         " bytes)";
}

bool parseSampleHeader(const std::string& text, uint64_t& user, uint64_t& total) {
  size_t dash = text.find("\xe2\x80\x94 ");  // "— N user samples (M total)"
  if (dash == std::string::npos) return false;
  unsigned long long u = 0, t = 0;
  if (std::sscanf(text.c_str() + dash + 4, "%llu user samples (%llu total)", &u, &t) != 2)
    return false;
  user = u;
  total = t;
  return true;
}

std::string roundTrip(const std::string& liveText, const std::string& streamedText,
                      uint64_t streamedSamples) {
  uint64_t user = 0, total = 0;
  if (!parseSampleHeader(liveText, user, total)) return "live output has no sample header";
  if (total != streamedSamples)
    return "live run sampled " + str(total) + ", streamed log holds " + str(streamedSamples);
  return sameBytes("live and streamed data-centric texts", liveText, streamedText);
}

std::string streamingEqualsBatch(const cb::pm::BlameReport& s, const cb::pm::BlameReport& b) {
  if (s == b) return {};
  if (s.totalUserSamples != b.totalUserSamples || s.totalRawSamples != b.totalRawSamples)
    return "sample totals differ: streaming " + str(s.totalUserSamples) + "/" +
           str(s.totalRawSamples) + ", batch " + str(b.totalUserSamples) + "/" +
           str(b.totalRawSamples);
  if (s.rows.size() != b.rows.size())
    return "row counts differ: streaming " + str(s.rows.size()) + ", batch " + str(b.rows.size());
  for (size_t i = 0; i < s.rows.size(); ++i)
    if (!(s.rows[i] == b.rows[i]))
      return "row " + str(i) + " differs: streaming " + s.rows[i].name + " (" +
             str(s.rows[i].sampleCount) + "), batch " + b.rows[i].name + " (" +
             str(b.rows[i].sampleCount) + ")";
  return "comm totals differ";
}

std::string allResidentHits(uint64_t hits, uint64_t misses, uint64_t jobs) {
  if (misses != 0 || hits != jobs)
    return str(hits) + " resident hits and " + str(misses) + " misses over " + str(jobs) +
           " timed jobs";
  return {};
}

}  // namespace perfbench::checks
