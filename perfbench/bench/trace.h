// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code, around the public call
// into each layer; the program under test carries no instrumentation. Every
// span has a name, a start, an end, the thread it ran on and its parent, and
// all spans of one job hang under that job's span. The spans stay in memory
// and are written once, at the end, as Chrome trace-event JSON (readable by
// Perfetto and chrome://tracing).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root (a job span)
  uint32_t thread = 0;
  Clock::time_point start;
  Clock::time_point end;
  double ms() const { return msBetween(start, end); }
};

class Tracer {
 public:
  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  /// Records a finished span and returns its id.
  uint64_t record(const std::string& name, uint64_t parent, uint32_t thread,
                  Clock::time_point start, Clock::time_point end);
  /// Reserves an id for a span whose end is not known yet (a job span, so
  /// its children can name it as parent before it closes).
  uint64_t reserve();
  void close(uint64_t id, const std::string& name, uint64_t parent, uint32_t thread,
             Clock::time_point start, Clock::time_point end);

  std::vector<Span> spans() const;
  /// Summed duration per span name.
  std::map<std::string, double> totalsMs() const;

  /// Writes {"traceEvents": [...], "otherData": {...}} with one complete
  /// ("X") event per span; `otherData` carries the given metric values.
  bool writeChromeJson(const std::string& path,
                       const std::map<std::string, double>& otherData) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  uint64_t nextId_ = 1;
  std::vector<Span> spans_;
};

}  // namespace perfbench
