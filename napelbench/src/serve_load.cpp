#include "serve_load.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <stdexcept>
#include <thread>

#include "bench_util.hpp"
#include "serve/json.hpp"

namespace napelbench {

namespace {

using napel::serve::JsonValue;

[[noreturn]] void sys_fail(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

}  // namespace

ChildProcess::ChildProcess(const std::vector<std::string>& argv,
                           const std::string& stderr_path) {
  std::vector<char*> c_argv;
  for (const std::string& a : argv) c_argv.push_back(const_cast<char*>(a.c_str()));
  c_argv.push_back(nullptr);
  int in_pipe[2];
  int out_pipe[2];
  if (pipe2(in_pipe, O_CLOEXEC) != 0) sys_fail("pipe");
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    close(in_pipe[0]);
    close(in_pipe[1]);
    sys_fail("pipe");
  }
  const int err_fd =
      open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  // posix_spawn, not fork: the child shares the parent's memory until it
  // execs, so spawn time does not grow with the benchmark's own heap.
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
  posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
  if (err_fd >= 0) posix_spawn_file_actions_adddup2(&actions, err_fd, 2);
  const int rc = posix_spawn(&pid_, c_argv[0], &actions, nullptr, c_argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) {
    for (const int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1], err_fd})
      if (fd >= 0) close(fd);
    errno = rc;
    sys_fail("posix_spawn");
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  if (err_fd >= 0) close(err_fd);
  to_child_ = in_pipe[1];
  from_child_ = out_pipe[0];
  // Room for ~100 queued requests in the pipe, so the open-loop writer
  // blocks only under a real backlog, not on a brief reader stall.
  fcntl(to_child_, F_SETPIPE_SZ, 1 << 20);
}

ChildProcess::~ChildProcess() {
  if (pid_ <= 0) return;
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
  // EOF on stdin drains and exits the server; give it a moment, then force.
  for (int i = 0; i < 500; ++i) {
    if (waitpid(pid_, nullptr, WNOHANG) == pid_) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  kill(pid_, SIGKILL);
  waitpid(pid_, nullptr, 0);
}

void ChildProcess::send(std::string_view line) {
  std::string buf(line);
  buf += '\n';
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = write(to_child_, buf.data() + off, buf.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      sys_fail("write to napel serve");
    }
    off += static_cast<std::size_t>(n);
  }
}

bool ChildProcess::read_line(std::string& line, int timeout_ms) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', buf_pos_);
    if (nl != std::string::npos) {
      line.assign(buf_, buf_pos_, nl - buf_pos_);
      buf_pos_ = nl + 1;
      if (buf_pos_ > (1u << 16)) {
        buf_.erase(0, buf_pos_);
        buf_pos_ = 0;
      }
      return true;
    }
    pollfd pfd{from_child_, POLLIN, 0};
    const int r = poll(&pfd, 1, timeout_ms);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    char chunk[1 << 16];
    const ssize_t n = read(from_child_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

double ChildProcess::cpu_seconds() const {
  const std::string dir = "/proc/" + std::to_string(pid_) + "/task";
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0.0;
  double ns = 0.0;
  while (const dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    double on_cpu = 0.0;
    if (in >> on_cpu) ns += on_cpu;
  }
  closedir(d);
  return ns * 1e-9;
}

double ChildProcess::finish(bool& clean) {
  close(to_child_);
  to_child_ = -1;
  std::string line;
  while (read_line(line, 30000)) {
  }
  close(from_child_);
  from_child_ = -1;
  int status = 0;
  rusage ru{};
  if (wait4(pid_, &status, 0, &ru) != pid_) sys_fail("wait4");
  pid_ = -1;
  clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string predict_line(std::uint64_t id, const ServeRow& row) {
  std::string s = "{\"op\":\"predict\",\"id\":\"";
  s += std::to_string(id);
  s += "\",\"features\":";
  s += row.features_json;
  s += '}';
  return s;
}

namespace {

/// Matches responses to requests [base, base + n) and checks each one.
class ResponseBook {
 public:
  ResponseBook(const std::vector<ServeRow>& rows,
               const std::vector<std::uint32_t>& pick, std::uint64_t base)
      : rows_(rows), pick_(pick), base_(base), recv_(pick.size()),
        got_(pick.size(), 0) {}

  /// Returns false for a line that is no response to this stretch.
  bool record(const std::string& line, Clock::time_point at, LoadResult& r) {
    JsonValue v;
    try {
      v = JsonValue::parse(line);
    } catch (const std::exception&) {
      return false;
    }
    const JsonValue* id = v.is_object() ? v.find("id") : nullptr;
    if (id == nullptr || !id->is_string()) return false;
    const std::uint64_t k = std::strtoull(id->as_string().c_str(), nullptr, 10);
    if (k < base_ || k - base_ >= pick_.size() || got_[k - base_]) return false;
    const std::size_t i = k - base_;
    got_[i] = 1;
    recv_[i] = at;
    const JsonValue* ok = v.find("ok");
    const JsonValue* mode = v.find("mode");
    const JsonValue* ipc = v.find("ipc");
    const JsonValue* power = v.find("power_watts");
    if (ok == nullptr || !ok->is_bool() || !ok->as_bool() || mode == nullptr ||
        !mode->is_string() || mode->as_string() != "full" || ipc == nullptr ||
        !ipc->is_number() || power == nullptr || !power->is_number()) {
      ++r.failed;
      return true;
    }
    const ServeRow& row = rows_[pick_[i]];
    if (ipc->as_number() != row.expect_ipc ||
        power->as_number() != row.expect_power) {
      ++r.mismatched;
      return true;
    }
    ++r.ok;
    r.abs_rel_err_ipc +=
        std::abs(ipc->as_number() - row.label_ipc) / std::abs(row.label_ipc);
    r.abs_rel_err_power += std::abs(power->as_number() - row.label_power) /
                           std::abs(row.label_power);
    return true;
  }

  std::size_t received() const { return received_; }
  void count() { ++received_; }
  bool got(std::size_t i) const { return got_[i] != 0; }
  Clock::time_point recv(std::size_t i) const { return recv_[i]; }

 private:
  const std::vector<ServeRow>& rows_;
  const std::vector<std::uint32_t>& pick_;
  std::uint64_t base_;
  std::vector<Clock::time_point> recv_;
  std::vector<char> got_;
  std::size_t received_ = 0;
};

std::vector<std::uint32_t> pick_rows(std::size_t n, std::size_t n_rows,
                                     std::mt19937_64& rng) {
  std::uniform_int_distribution<std::uint32_t> d(
      0, static_cast<std::uint32_t>(n_rows - 1));
  std::vector<std::uint32_t> pick(n);
  for (auto& p : pick) p = d(rng);
  return pick;
}

void finish_result(LoadResult& r, const ResponseBook& book,
                   const std::vector<Clock::time_point>& due) {
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (!book.got(i)) {
      ++r.failed;
      continue;
    }
    r.latency_ms.push_back(1e3 * seconds_between(due[i], book.recv(i)));
  }
  // A growing backlog shows as latency climbing across the stretch.
  const std::size_t n = r.latency_ms.size();
  if (n >= 30) {
    const std::vector<double> head(r.latency_ms.begin(),
                                   r.latency_ms.begin() + n / 3);
    const std::vector<double> tail(r.latency_ms.end() - n / 3,
                                   r.latency_ms.end());
    r.backlog_grew = median(tail) > 2.0 * median(head) + 1.0;
  }
}

}  // namespace

LoadResult closed_loop(ChildProcess& p, const std::vector<ServeRow>& rows,
                       std::size_t n, std::size_t window,
                       std::uint64_t& next_id, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::vector<std::uint32_t> pick = pick_rows(n, rows.size(), rng);
  std::vector<std::string> lines(n);
  const std::uint64_t base = next_id;
  next_id += n;
  for (std::size_t i = 0; i < n; ++i)
    lines[i] = predict_line(base + i, rows[pick[i]]);

  LoadResult r;
  ResponseBook book(rows, pick, base);
  std::vector<Clock::time_point> due(n);
  std::size_t sent = 0;
  std::string line;
  const auto t0 = Clock::now();
  while (book.received() < n) {
    while (sent < n && sent - book.received() < window) {
      due[sent] = Clock::now();
      p.send(lines[sent]);
      ++sent;
    }
    if (!p.read_line(line)) break;
    if (book.record(line, Clock::now(), r)) book.count();
  }
  r.wall_s = seconds_between(t0, Clock::now());
  r.sent = sent;
  finish_result(r, book, due);
  return r;
}

LoadResult open_loop(ChildProcess& p, const std::vector<ServeRow>& rows,
                     double rate, double seconds, std::uint64_t& next_id,
                     std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  std::vector<double> offset_s;
  for (double t = gap(rng); t < seconds; t += gap(rng)) offset_s.push_back(t);
  const std::size_t n = offset_s.size();
  const std::vector<std::uint32_t> pick = pick_rows(n, rows.size(), rng);
  std::vector<std::string> lines(n);
  const std::uint64_t base = next_id;
  next_id += n;
  for (std::size_t i = 0; i < n; ++i)
    lines[i] = predict_line(base + i, rows[pick[i]]);

  LoadResult r;
  r.late_ms.resize(n);
  ResponseBook book(rows, pick, base);
  std::vector<Clock::time_point> due(n);
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  for (std::size_t i = 0; i < n; ++i)
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(offset_s[i]));

  // Writer: sends each request at its due time regardless of responses.
  // A blocked pipe delays later sends; that delay counts in their latency
  // because latency runs from the due time, and shows in late_ms.
  std::exception_ptr writer_error;
  std::thread writer([&] {
    try {
      for (std::size_t i = 0; i < n; ++i) {
        std::this_thread::sleep_until(due[i]);
        r.late_ms[i] = 1e3 * seconds_between(due[i], Clock::now());
        p.send(lines[i]);
      }
    } catch (...) {
      writer_error = std::current_exception();
    }
  });
  std::string line;
  while (book.received() < n) {
    if (!p.read_line(line)) break;
    if (book.record(line, Clock::now(), r)) book.count();
  }
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  r.wall_s = seconds_between(start, Clock::now());
  r.sent = n;
  finish_result(r, book, due);
  return r;
}

}  // namespace napelbench
