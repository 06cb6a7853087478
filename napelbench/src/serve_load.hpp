// Load generation against a real `napel serve` child process over its
// stdin/stdout pipes: spawn/stop, a closed-loop burst, and an open-loop
// Poisson schedule with one writer thread and one reader thread.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace napelbench {

/// One request kind: a pre-rendered feature array and the response the
/// in-process model gives for it.
struct ServeRow {
  std::string features_json;  ///< "[f0,f1,...]" at round-trip precision
  double expect_ipc = 0.0;
  double expect_power = 0.0;
  double label_ipc = 0.0;     ///< simulator labels the row was collected with
  double label_power = 0.0;
};

/// A child process (`napel serve -m MODEL` with default flags, or the
/// benchmark's own set-up probe) spoken to over its stdin/stdout. The
/// destructor closes its stdin and reaps it, so no child outlives the
/// object.
class ChildProcess {
 public:
  ChildProcess(const std::vector<std::string>& argv,
               const std::string& stderr_path);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  void send(std::string_view line);  ///< writes line + '\n'
  /// Next response line; false on EOF or after `timeout_ms` of silence.
  bool read_line(std::string& line, int timeout_ms = 10000);
  /// CPU seconds the child has used so far (all its threads).
  double cpu_seconds() const;
  /// Closes stdin, drains stdout, reaps the child. Returns its peak RSS
  /// in MiB; `clean` is set when it exited with status 0.
  double finish(bool& clean);
  pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buf_;
  std::size_t buf_pos_ = 0;
};

/// Outcome of a stretch of traffic. Latencies are in milliseconds,
/// measured from each request's due time to its matched response.
struct LoadResult {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;  ///< how late the writer sent each request
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;       ///< ok:true, mode "full", values checked
  std::uint64_t failed = 0;   ///< not ok, not full, or missing
  std::uint64_t mismatched = 0;  ///< ok but differs from in-process model
  double wall_s = 0.0;
  double abs_rel_err_ipc = 0.0;  ///< sums over ok responses vs labels
  double abs_rel_err_power = 0.0;
  bool backlog_grew = false;
};

/// Sends `n` requests keeping at most `window` in flight; wall_s covers
/// first send to last response.
LoadResult closed_loop(ChildProcess& p, const std::vector<ServeRow>& rows,
                       std::size_t n, std::size_t window,
                       std::uint64_t& next_id, std::uint64_t seed);

/// Open loop: Poisson arrivals at `rate` per second for `seconds`, each
/// request a seeded pick from `rows`.
LoadResult open_loop(ChildProcess& p, const std::vector<ServeRow>& rows,
                     double rate, double seconds, std::uint64_t& next_id,
                     std::uint64_t seed);

/// Renders one predict request line.
std::string predict_line(std::uint64_t id, const ServeRow& row);

}  // namespace napelbench
