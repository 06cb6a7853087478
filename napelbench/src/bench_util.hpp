// Small helpers shared by the benchmark program: clocks, order statistics,
// a span recorder with self-time derivation, row digests, the host/build
// fingerprint and the metric report.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace napelbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU time of the whole process (all threads), in seconds.
double process_cpu_seconds();
/// Peak resident set of this process since start or the last
/// reset_peak_rss(), in MiB (VmHWM).
double self_peak_rss_mib();
/// Returns freed heap to the kernel and restarts the peak-RSS mark, so
/// the next self_peak_rss_mib() covers only what runs in between.
void reset_peak_rss();

/// Seconds a fixed, library-independent kernel takes on `threads`
/// threads: each walks its own 16 MiB table along a dependent hash chain.
/// Run next to a pass, it shows how fast the host was at that moment.
double reference_seconds(unsigned threads);

/// Linear-interpolated quantile of `v` (copied, so callers keep order).
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Fastest (or, for rates, highest) of repeated measurements. Noise on a
/// shared host only ever adds time, so the best repetition is the
/// steadiest estimate of what the work costs.
inline double best_time(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}
inline double best_rate(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}
/// Cost of a pass from repeated timings of its steps (one vector per
/// step, one sample per pass): the sum of each step's fastest repetition.
/// Host slowdowns come and go within a pass, so taking the minimum per
/// step discards more of them than taking the fastest whole pass.
inline double sum_of_best(const std::vector<std::vector<double>>& steps) {
  double s = 0.0;
  for (const std::vector<double>& v : steps) s += best_time(v);
  return s;
}
/// As sum_of_best, with each step's median repetition. The minimum falls
/// as repetitions are added, and a faster host fits more of them into a
/// run, so across runs the minimum exaggerates how fast the host was; the
/// median does not drift with the count.
inline double sum_of_medians(const std::vector<std::vector<double>>& steps) {
  double s = 0.0;
  for (const std::vector<double>& v : steps) s += median(v);
  return s;
}

/// FNV-1a over raw bytes; the digest that pins collected rows.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    bytes("\0", 1);
  }
  template <typename T>
  void pod(const T& v) {
    bytes(&v, sizeof v);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// In-memory span recorder. A span is (name, parent, start, end, thread);
/// spans are kept until the run ends, then written out and reduced to
/// per-name self times. Recording is off unless enabled, so the
/// untraced run pays one branch per call site.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t parent = -1;
    Clock::time_point start{};
    Clock::time_point end{};
    std::uint64_t thread = 0;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  std::int64_t begin(std::string name, std::int64_t parent);
  void end(std::int64_t id);

  /// Per name: duration minus the union of its children's intervals.
  std::map<std::string, double> self_seconds() const;
  /// Number of spans per name.
  std::map<std::string, std::size_t> counts() const;
  std::size_t span_count() const;
  /// Writes every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& t, std::string name, std::int64_t parent = -1)
      : t_(t), id_(t.enabled() ? t.begin(std::move(name), parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) t_.end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  std::int64_t id() const { return id_; }

 private:
  SpanRecorder& t_;
  std::int64_t id_;
};

/// Named metrics of one run, printed with their units.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  /// The final result line: {"correct", "attempted", "failed", "metrics"}.
  std::string result_json(bool correct, std::uint64_t attempted,
                          std::uint64_t failed) const;
  /// Human-readable table, one metric per line.
  std::string table() const;

 private:
  struct Value {
    double v;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
};

/// Host and build fingerprint as one JSON object.
std::string fingerprint_json(unsigned threads, const std::string& commit);

std::string json_escape(const std::string& s);

}  // namespace napelbench
