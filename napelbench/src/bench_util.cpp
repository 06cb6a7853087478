#include "bench_util.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <functional>
#include <sstream>
#include <thread>

#include "common/cpuid.hpp"

#ifndef NAPELBENCH_BUILD_TYPE
#define NAPELBENCH_BUILD_TYPE "unknown"
#endif

namespace napelbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double self_peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double reference_seconds(unsigned threads) {
  constexpr std::size_t kWords = std::size_t{1} << 21;
  std::vector<std::uint64_t> sink(threads);
  std::vector<std::vector<std::uint64_t>> tables(
      threads, std::vector<std::uint64_t>(kWords));
  const auto t0 = Clock::now();
  std::vector<std::thread> ts;
  for (unsigned t = 0; t < threads; ++t)
    ts.emplace_back([&, t] {
      std::vector<std::uint64_t>& buf = tables[t];
      for (std::size_t i = 0; i < kWords; ++i)
        buf[i] = (i * 0x9E3779B97F4A7C15ULL) ^ t;
      std::uint64_t x = t;
      for (std::uint64_t r = 0; r < 3'000'000; ++r) {
        x = buf[x & (kWords - 1)] ^ (x * 0xff51afd7ed558ccdULL + r);
        buf[r & (kWords - 1)] += x;
      }
      sink[t] = x;
    });
  for (std::thread& t : ts) t.join();
  const double s = seconds_between(t0, Clock::now());
  std::uint64_t all = 0;
  for (const std::uint64_t v : sink) all ^= v;
  return all == 0x1234 ? s + 1e-12 : s;  // keeps the chains observable
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::int64_t SpanRecorder::begin(std::string name, std::int64_t parent) {
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.thread = std::hash<std::thread::id>{}(std::this_thread::get_id());
  s.start = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanRecorder::end(std::int64_t id) {
  const auto now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

std::map<std::string, double> SpanRecorder::self_seconds() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::vector<std::size_t>> children(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent >= 0)
      children[static_cast<std::size_t>(spans_[i].parent)].push_back(i);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent: children
    // may run on several threads at once, so they are merged, not summed.
    std::vector<std::pair<Clock::time_point, Clock::time_point>> iv;
    for (const std::size_t c : children[i])
      iv.emplace_back(std::max(spans_[c].start, s.start),
                      std::min(spans_[c].end, s.end));
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point cur_lo{}, cur_hi{};
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += seconds_between(cur_lo, cur_hi);
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += seconds_between(cur_lo, cur_hi);
    out[s.name] += seconds_between(s.start, s.end) - covered;
  }
  return out;
}

std::map<std::string, std::size_t> SpanRecorder::counts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::size_t> out;
  for (const Span& s : spans_) ++out[s.name];
  return out;
}

std::size_t SpanRecorder::span_count() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void SpanRecorder::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream os(path);
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\",\"id\":%zu,\"parent\":%lld,\"start_us\":%.3f,"
                  "\"end_us\":%.3f,\"thread\":%llu}\n",
                  i, static_cast<long long>(s.parent),
                  1e6 * seconds_between(t0_, s.start),
                  1e6 * seconds_between(t0_, s.end),
                  static_cast<unsigned long long>(s.thread % 100000));
    os << "{\"name\":\"" << json_escape(s.name) << buf;
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

namespace {

std::string fmt_value(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

std::string Report::result_json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, val] : metrics_) {
    if (!first) os << ", ";
    first = false;
    os << '"' << json_escape(name) << "\": {\"value\": " << fmt_value(val.v)
       << ", \"unit\": \"" << json_escape(val.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string Report::table() const {
  std::ostringstream os;
  char buf[160];
  for (const auto& [name, val] : metrics_) {
    std::snprintf(buf, sizeof buf, "  %-32s %16.6g %s\n", name.c_str(), val.v,
                  val.unit.c_str());
    os << buf;
  }
  return os.str();
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  return "unknown";
}

}  // namespace

std::string fingerprint_json(unsigned threads, const std::string& commit) {
  std::ostringstream os;
  os << "{\"cpu_model\": \"" << json_escape(cpu_model()) << "\""
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"simd_level\": \""
     << napel::simd_level_name(napel::resolved_simd_level()) << "\""
     << ", \"threads\": " << threads << ", \"build_type\": \""
     << NAPELBENCH_BUILD_TYPE << "\", \"commit\": \"" << json_escape(commit)
     << "\"}";
  return os.str();
}

}  // namespace napelbench
