#include "trace.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

uint64_t Tracer::record(const std::string& name, uint64_t parent, uint32_t thread,
                        Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = nextId_++;
  spans_.push_back({name, id, parent, thread, start, end});
  return id;
}

uint64_t Tracer::reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  return nextId_++;
}

void Tracer::close(uint64_t id, const std::string& name, uint64_t parent, uint32_t thread,
                   Clock::time_point start, Clock::time_point end) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, id, parent, thread, start, end});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> Tracer::totalsMs() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const Span& s : spans_) out[s.name] += s.ms();
  return out;
}

namespace {

std::string jsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o;
}

}  // namespace

bool Tracer::writeChromeJson(const std::string& path,
                             const std::map<std::string, double>& otherData) const {
  std::vector<Span> all = spans();
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) return false;
  auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  char buf[512];
  f << "{\"traceEvents\":[\n";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu}}%s\n",
                  jsonEscape(s.name).c_str(), s.parent == 0 ? "job" : "layer", s.thread,
                  us(s.start), us(s.end) - us(s.start), static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), i + 1 < all.size() ? "," : "");
    f << buf;
  }
  f << "],\n\"displayTimeUnit\":\"ms\",\n\"otherData\":{";
  bool first = true;
  for (const auto& [k, v] : otherData) {
    std::snprintf(buf, sizeof buf, "%s\"%s\":%.12g", first ? "" : ",", jsonEscape(k).c_str(), v);
    f << buf;
    first = false;
  }
  f << "}}\n";
  return static_cast<bool>(f);
}

}  // namespace perfbench
