// napelbench — the NAPEL benchmark program.
//
//   napelbench run --workload train|dse|serve --seed N --seconds S
//                  --trace 0|1 --napel PATH --fixture DIR --out DIR
//                  [--scale bench|tiny] [--commit SHA] [--corrupt]
//   napelbench fixture --fixture DIR [--scale S]
//   napelbench setup-probe [--scale S]
//
// `run` measures one workload through the public entry points of the
// library (train, dse) or through a `napel serve` child process (serve),
// checks every output, and prints a metric table, the host and build
// fingerprint, and as its last line one JSON result object. With --trace 1
// it instead runs the layer sweep: spans around each layer's public calls,
// reduced to per-layer metrics. --corrupt deliberately damages one output
// so the smoke test can see its check fail. `fixture` trains the model the
// dse and serve workloads load. `setup-probe` is the child the train
// workload spawns to time set-up before the first DoE task.
//
// Exit status: 0 when every check passed, 1 when a check failed, 2 on
// usage or runtime errors.
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "napel/model_io.hpp"
#include "napel/napel.hpp"
#include "serve/server.hpp"
#include "serve_load.hpp"
#include "trace/trace_buffer.hpp"
#include "trace/trace_cache.hpp"

namespace {

using namespace napel;
using namespace napelbench;

// ---------------------------------------------------------------- options

struct Options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string napel_bin;
  std::string fixture_dir;
  std::string out_dir = ".";
  workloads::Scale scale = workloads::Scale::kBench;
  unsigned threads = ThreadPool::default_threads();  ///< as `napel train`
  std::string commit = "unknown";
  bool corrupt = false;
};

Options parse_options(int argc, char** argv) {
  Options o;
  if (argc >= 2) o.mode = argv[1];
  std::map<std::string, std::string> kv;
  for (int i = 2; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument: " + key);
    if (key == "--corrupt") {
      o.corrupt = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    kv[key.substr(2)] = argv[++i];
  }
  const auto get = [&](const char* k, const std::string& fallback) {
    const auto it = kv.find(k);
    return it == kv.end() ? fallback : it->second;
  };
  o.workload = get("workload", "");
  o.seed = std::stoull(get("seed", "1"));
  o.seconds = std::stod(get("seconds", "10"));
  o.trace = get("trace", "0") == "1";
  o.napel_bin = get("napel", "");
  o.fixture_dir = get("fixture", "");
  o.out_dir = get("out", ".");
  o.commit = get("commit", "unknown");
  const std::string scale = get("scale", "bench");
  if (scale == "tiny") {
    o.scale = workloads::Scale::kTiny;
  } else if (scale != "bench") {
    throw std::invalid_argument("unknown scale: " + scale);
  }
  return o;
}

// ------------------------------------------------- the train configuration

constexpr std::uint64_t kCollectSeed = 2019;  // the `napel train` default
constexpr std::uint64_t kFixtureForestSeed = 77;
constexpr std::uint64_t kArchPoolSalt = 0xa5c3f00dULL;  // as the pipeline

/// Recorded shape and digest of the rows `napel train` collects; any
/// change to a kernel, the profiler, the simulator or the feature schema
/// moves the digest and fails the train check.
struct CollectRef {
  std::size_t configs;
  std::size_t rows;
  std::uint64_t digest;
};

CollectRef collect_ref(workloads::Scale scale) {
  if (scale == workloads::Scale::kTiny) return {256, 768, 0xcbb388d942ed1e24ULL};
  return {256, 768, 0xc08f499c4c29487cULL};
}

std::span<const workloads::Workload* const> apps() {
  return workloads::all_workloads();
}

core::CollectOptions collect_options(const Options& o) {
  core::CollectOptions copt;
  copt.scale = o.scale;
  copt.archs_per_config = 3;
  copt.seed = kCollectSeed;
  copt.n_threads = o.threads;
  return copt;
}

core::NapelModel::Options model_options(const Options& o,
                                        std::uint64_t forest_seed) {
  core::NapelModel::Options mopt;
  mopt.tune = false;
  mopt.untuned_params.n_trees = 100;
  mopt.n_threads = o.threads;
  mopt.seed = forest_seed;
  return mopt;
}

std::uint64_t rows_digest(const std::vector<core::TrainingRow>& rows) {
  Digest d;
  for (const core::TrainingRow& r : rows) {
    d.str(r.app);
    d.str(r.params.to_string());
    d.str(r.arch.to_string());
    for (const double f : r.features) d.pod(f);
    d.pod(r.ipc);
    d.pod(r.energy_pj_per_instr);
    d.pod(r.power_watts);
    d.pod(r.instructions);
    d.pod(r.sim_time_seconds);
    d.pod(r.sim_energy_joules);
  }
  return d.value();
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------- fixture

struct FixtureRow {
  double ipc = 0.0;
  double power = 0.0;
  std::vector<double> features;
};

void save_rows(const std::vector<core::TrainingRow>& rows,
               const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  const std::uint64_t n = rows.size();
  const std::uint64_t p = rows.empty() ? 0 : rows[0].features.size();
  os.write(reinterpret_cast<const char*>(&n), sizeof n);
  os.write(reinterpret_cast<const char*>(&p), sizeof p);
  for (const core::TrainingRow& r : rows) {
    os.write(reinterpret_cast<const char*>(&r.ipc), sizeof r.ipc);
    os.write(reinterpret_cast<const char*>(&r.power_watts), sizeof r.power_watts);
    os.write(reinterpret_cast<const char*>(r.features.data()),
             static_cast<std::streamsize>(p * sizeof(double)));
  }
  if (!os) throw std::runtime_error("cannot write " + path);
}

std::vector<FixtureRow> load_rows(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::uint64_t n = 0, p = 0;
  is.read(reinterpret_cast<char*>(&n), sizeof n);
  is.read(reinterpret_cast<char*>(&p), sizeof p);
  if (!is || p != core::model_feature_names().size() || n == 0 || n > (1u << 20))
    throw std::runtime_error("bad fixture rows file " + path);
  std::vector<FixtureRow> rows(n);
  for (FixtureRow& r : rows) {
    r.features.resize(p);
    is.read(reinterpret_cast<char*>(&r.ipc), sizeof r.ipc);
    is.read(reinterpret_cast<char*>(&r.power), sizeof r.power);
    is.read(reinterpret_cast<char*>(r.features.data()),
            static_cast<std::streamsize>(p * sizeof(double)));
  }
  if (!is) throw std::runtime_error("truncated fixture rows file " + path);
  return rows;
}

std::string model_path(const Options& o) { return o.fixture_dir + "/model.txt"; }
std::string rows_path(const Options& o) { return o.fixture_dir + "/rows.bin"; }

int cmd_fixture(const Options& o) {
  trace::TraceCache cache(std::size_t{256} << 20);
  core::CollectOptions copt = collect_options(o);
  copt.trace_cache = &cache;
  std::vector<core::TrainingRow> rows;
  for (const auto* w : apps()) core::collect_training_data(*w, copt, rows);
  const CollectRef ref = collect_ref(o.scale);
  const std::uint64_t digest = rows_digest(rows);
  std::printf("fixture: %zu rows, digest %s\n", rows.size(), hex(digest).c_str());
  if (rows.size() != ref.rows || digest != ref.digest) {
    std::fprintf(stderr, "fixture: collected rows differ from the reference "
                         "(%zu rows, digest %s; expected %zu, %s)\n",
                 rows.size(), hex(digest).c_str(), ref.rows,
                 hex(ref.digest).c_str());
    return 1;
  }
  core::NapelModel model;
  model.train(rows, model_options(o, kFixtureForestSeed));
  core::save_model_file(model, model_path(o));
  save_rows(rows, rows_path(o));
  return 0;
}

int cmd_setup_probe(const Options& o) {
  // What `napel train` does before its first DoE task: start the pool,
  // size the trace cache, derive each app's design and the arch pool.
  parallel_for(4 * o.threads, o.threads, [](std::size_t) {});
  trace::TraceCache cache(std::size_t{256} << 20);
  std::size_t configs = 0;
  for (const auto* w : apps())
    configs += doe::central_composite(w->doe_space(o.scale)).size();
  Rng arch_rng(kCollectSeed ^ kArchPoolSalt);
  const auto pool = sim::sample_arch_configs(8, arch_rng);
  std::printf("ready %zu %zu\n", configs, pool.size());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------- the run

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) throw std::runtime_error("cannot resolve /proc/self/exe");
  return std::string(buf, static_cast<std::size_t>(n));
}

/// Shared state of one run: options, the metric report, the span
/// recorder and the outcome counters.
struct Run {
  Options o;
  Report report;
  SpanRecorder spans;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  explicit Run(Options opts) : o(std::move(opts)), spans(o.trace) {}

  void check(bool ok, const std::string& what) {
    if (ok) return;
    correct = false;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
  std::string out(const std::string& name) const { return o.out_dir + "/" + name; }
  /// The end-to-end timing pair for per-app queries: the median and the
  /// tail percentile `q` over the apps. The 12 apps differ in cost by
  /// orders of magnitude, so pooled samples cluster by app and a pooled
  /// quantile that falls between two clusters jumps with noise. Each app
  /// is first reduced to its time over the passes (`per_app_stat`: the
  /// median or the best); the quantiles are taken over those 12 values.
  /// `q` is chosen so that the samples of the apps beyond it number at
  /// least ten.
  void app_latency(const std::vector<std::vector<double>>& per_app, double q,
                   const char* what,
                   double (*per_app_stat)(const std::vector<double>&)) {
    std::vector<double> typical;
    std::size_t beyond = 0;
    for (const auto& v : per_app) typical.push_back(per_app_stat(v));
    const double cut = quantile(typical, q);
    for (std::size_t i = 0; i < per_app.size(); ++i)
      if (typical[i] > cut) beyond += per_app[i].size();
    check(beyond >= 10, std::string(what) + ": fewer than ten samples beyond p" +
                            std::to_string(static_cast<int>(100 * q)));
    report.set("latency_p50_ms", median(typical), "ms");
    report.set("latency_tail_ms", cut, "ms");
    std::printf("%s: %zu apps, p50 %.4f ms, p%.0f %.4f ms\n", what,
                per_app.size(), median(typical), 100.0 * q, cut);
  }
};

// ------------------------------------------------------------------ train

struct TrainPass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double collect_wall_s = 0.0;
  double collect_cpu_s = 0.0;
  std::vector<double> app_ms;   ///< per app: collect_training_data wall
  std::vector<double> app_cpu;  ///< per app: process CPU over that call
  double fit_s = 0.0;           ///< NapelModel::train (fit, compile, certify)
  double fit_cpu_s = 0.0;
  std::size_t configs = 0;
  std::size_t dropped = 0;
  std::vector<core::TrainingRow> rows;
  core::NapelModel model;
};

/// One `napel train` pass: collect every app, then fit, compile and
/// certify both forests.
TrainPass train_pass(Run& run, std::uint64_t forest_seed) {
  TrainPass p;
  trace::TraceCache cache(std::size_t{256} << 20);  // fresh: no carry-over
  core::CollectOptions copt = collect_options(run.o);
  copt.trace_cache = &cache;
  const ScopedSpan pass(run.spans, "train.pass");
  const auto t0 = Clock::now();
  const double c0 = process_cpu_seconds();
  for (const auto* w : apps()) {
    const ScopedSpan s(run.spans, "napel.collect", pass.id());
    const auto ta = Clock::now();
    const double ca = process_cpu_seconds();
    const core::CollectStats st = core::collect_training_data(*w, copt, p.rows);
    p.app_ms.push_back(1e3 * seconds_between(ta, Clock::now()));
    p.app_cpu.push_back(process_cpu_seconds() - ca);
    p.configs += st.n_input_configs;
    p.dropped += st.n_failed;
  }
  p.collect_wall_s = seconds_between(t0, Clock::now());
  p.collect_cpu_s = process_cpu_seconds() - c0;
  const auto tf = Clock::now();
  {
    const ScopedSpan s(run.spans, "napel.train_model", pass.id());
    p.model.train(p.rows, model_options(run.o, forest_seed));
  }
  p.fit_s = seconds_between(tf, Clock::now());
  p.fit_cpu_s = process_cpu_seconds() - c0 - p.collect_cpu_s;
  p.wall_s = seconds_between(t0, Clock::now());
  p.cpu_s = process_cpu_seconds() - c0;
  return p;
}

void check_train_pass(Run& run, TrainPass& p) {
  if (run.o.corrupt) p.rows[0].ipc = std::nextafter(p.rows[0].ipc, 1e300);
  const CollectRef ref = collect_ref(run.o.scale);
  const std::uint64_t digest = rows_digest(p.rows);
  const bool ok = p.configs == ref.configs && p.rows.size() == ref.rows &&
                  digest == ref.digest && p.dropped == 0;
  run.check(ok, "train rows: " + std::to_string(p.configs) + " configs, " +
                    std::to_string(p.rows.size()) + " rows, digest " +
                    hex(digest) + " (expected " + std::to_string(ref.configs) +
                    ", " + std::to_string(ref.rows) + ", " + hex(ref.digest) +
                    ")");
  run.attempted += p.configs;
  run.failed += ok ? p.dropped : p.configs;
}

/// Set-up before the first DoE task, as a fresh process pays it: spawn
/// the probe child and wait for its "ready" line.
double train_setup_once(const Run& run) {
  const auto t0 = Clock::now();
  ChildProcess child({self_exe(), "setup-probe", "--scale",
                      run.o.scale == workloads::Scale::kTiny ? "tiny" : "bench"},
                     run.out("setup_probe.stderr"));
  std::string line;
  if (!child.read_line(line) || line.rfind("ready", 0) != 0)
    throw std::runtime_error("setup probe did not report ready");
  const double s = seconds_between(t0, Clock::now());
  bool clean = false;
  child.finish(clean);
  if (!clean) throw std::runtime_error("setup probe exited uncleanly");
  return s;
}

void run_train(Run& run) {
  // The inputs are the fixed `napel train` configuration (collect seed
  // 2019, pinned by the recorded digest; the CLI's forest seed), so the
  // out-of-bag errors are exact accuracy guards.
  const std::uint64_t forest_seed = kFixtureForestSeed;
  const std::size_t n_apps = apps().size();
  // Steps of a pass: one collect call per app, then the model fit.
  std::vector<std::vector<double>> app_ms(n_apps), step_s(n_apps + 1),
      step_cpu(n_apps + 1);
  std::vector<double> setup, rss;
  std::size_t passes = 0;
  std::size_t rows = 0;
  train_setup_once(run);  // warm-up
  // An untimed first pass faults in the code and the heap; it ran 10-25%
  // slower than the passes after it.
  TrainPass last = train_pass(run, forest_seed);
  check_train_pass(run, last);
  const auto start = Clock::now();
  // Passes until the time budget is spent, at least five so the per-app
  // latency tail (p90 of 12 apps x passes) keeps ten samples beyond it.
  // Set-up probes run between passes, so their best is taken across the
  // whole run.
  while (passes < 5 || seconds_between(start, Clock::now()) *
                               (1.0 + 1.0 / static_cast<double>(passes)) <
                           run.o.seconds) {
    for (int k = 0; k < 8; ++k) setup.push_back(train_setup_once(run));
    reset_peak_rss();
    TrainPass p = train_pass(run, forest_seed);
    rss.push_back(self_peak_rss_mib());
    check_train_pass(run, p);
    ++passes;
    rows = p.rows.size();
    for (std::size_t i = 0; i < n_apps; ++i) {
      app_ms[i].push_back(p.app_ms[i]);
      step_s[i].push_back(p.app_ms[i] / 1e3);
      step_cpu[i].push_back(p.app_cpu[i]);
    }
    step_s[n_apps].push_back(p.fit_s);
    step_cpu[n_apps].push_back(p.fit_cpu_s);
    std::printf("train pass %zu: wall %.3f s, cpu %.3f s, collect %.3f s\n",
                passes, p.wall_s, p.cpu_s, p.collect_wall_s);
    last = std::move(p);
  }
  const std::vector<std::vector<double>> collect_steps(step_s.begin(),
                                                       step_s.begin() + n_apps);
  // Set-up probes are milliseconds long, so the fastest of them is the
  // steadiest. The pass steps take seconds: a slow host slows every pass
  // of a run alike, and a faster host fits more passes into it, which
  // pulls their minimum down further still, so their medians are used.
  run.report.set("setup_s", best_time(setup), "s");
  run.report.set("wall_s", sum_of_medians(step_s), "s");
  run.report.set("cpu_s", sum_of_medians(step_cpu), "s");
  run.report.set("rate_per_s",
                 static_cast<double>(rows) / sum_of_medians(collect_steps), "1/s");
  run.app_latency(app_ms, 0.9, "per-app collect", median);
  run.report.set("mre_ipc_pct", 100.0 * last.model.ipc_forest().oob_mre(), "%");
  run.report.set("mre_power_pct", 100.0 * last.model.energy_forest().oob_mre(),
                 "%");
  // Peak RSS of a pass; which tasks overlap in time varies, so the
  // smallest of the passes' peaks is reported.
  run.report.set("peak_rss_mb", best_time(rss), "MiB");
}

// -------------------------------------------------------------------- dse

core::DseGrid dense_grid() {
  core::DseGrid g;
  g.n_pes = {8, 16, 32, 64};
  g.core_freq_ghz = {0.8, 1.0, 1.25, 1.6, 2.0};
  g.cache_lines = {2, 4, 8, 16, 32};
  g.cache_line_bytes = {32, 64, 128};
  g.dram_layers = {4, 8, 16};
  return g;
}

bool same_prediction(const core::Prediction& a, const core::Prediction& b) {
  return std::memcmp(&a.ipc, &b.ipc, sizeof a.ipc) == 0 &&
         std::memcmp(&a.power_watts, &b.power_watts, sizeof a.ipc) == 0 &&
         std::memcmp(&a.energy_pj_per_instr, &b.energy_pj_per_instr,
                     sizeof a.ipc) == 0 &&
         std::memcmp(&a.time_seconds, &b.time_seconds, sizeof a.ipc) == 0 &&
         std::memcmp(&a.energy_joules, &b.energy_joules, sizeof a.ipc) == 0 &&
         std::memcmp(&a.edp, &b.edp, sizeof a.ipc) == 0;
}

bool same_point(const core::DsePoint& a, const core::DsePoint& b) {
  return same_prediction(a.pred, b.pred) &&
         a.arch.to_string() == b.arch.to_string() &&
         std::memcmp(&a.ipc_interval, &b.ipc_interval, sizeof a.ipc_interval) == 0;
}

struct DseInput {
  const workloads::Workload* w;
  workloads::WorkloadParams params;
  std::uint64_t data_seed;
};

std::vector<DseInput> dse_inputs(const Options& o) {
  std::vector<DseInput> in;
  std::uint64_t i = 0;
  for (const auto* w : apps())
    in.push_back({w, workloads::WorkloadParams::test_input(w->doe_space(o.scale)),
                  o.seed * 1000 + i++});
  return in;
}

double load_once(const Run& run) {
  const auto t0 = Clock::now();
  const core::NapelModel m = core::load_model_file(model_path(run.o));
  return seconds_between(t0, Clock::now());
}

struct DsePass {
  double wall_s = 0.0;
  std::vector<double> app_ms;     ///< per app: profile + predict
  std::vector<double> app_s;      ///< per app: profile + predict + explore
  std::vector<double> app_cpu;    ///< per app: process CPU over the same
  std::vector<double> explore_s;  ///< per app: explore
  std::size_t points = 0;         ///< per app
  std::vector<core::Prediction> preds;  ///< per input, paper-default arch
};

DsePass dse_pass(Run& run, const core::NapelModel& model,
                 const std::vector<DseInput>& inputs,
                 const std::vector<sim::ArchConfig>& cands, bool full_check,
                 std::mt19937_64& rng) {
  DsePass p;
  const ScopedSpan pass(run.spans, "dse.pass");
  const auto t0 = Clock::now();
  for (const DseInput& in : inputs) {
    const auto ta = Clock::now();
    const double ca = process_cpu_seconds();
    profiler::Profile prof;
    {
      const ScopedSpan s(run.spans, "profiler.profile", pass.id());
      prof = core::profile_workload(*in.w, in.params, in.data_seed);
    }
    {
      const ScopedSpan s(run.spans, "napel.predict", pass.id());
      p.preds.push_back(model.predict(prof, sim::ArchConfig::paper_default()));
    }
    p.app_ms.push_back(1e3 * seconds_between(ta, Clock::now()));
    const auto te = Clock::now();
    std::vector<core::DsePoint> pts;
    {
      const ScopedSpan s(run.spans, "napel.explore", pass.id());
      pts = core::explore(model, prof, cands, run.o.threads);
    }
    p.explore_s.push_back(seconds_between(te, Clock::now()));
    p.app_s.push_back(seconds_between(ta, Clock::now()));
    p.app_cpu.push_back(process_cpu_seconds() - ca);
    p.points = pts.size();

    // Output checks (untimed work inside the pass, so kept small): sampled
    // points equal NapelModel::predict bit-for-bit, and on the first pass
    // the single-threaded explore gives identical points.
    if (run.o.corrupt) pts[0].pred.ipc = std::nextafter(pts[0].pred.ipc, 1e300);
    std::size_t bad = 0;
    std::uniform_int_distribution<std::size_t> pick(0, pts.size() - 1);
    for (int k = 0; k < 16; ++k) {
      const std::size_t i = k == 0 ? 0 : pick(rng);
      if (!same_prediction(model.predict(prof, pts[i].arch), pts[i].pred)) ++bad;
    }
    if (full_check) {
      const auto serial = core::explore(model, prof, cands, 1);
      for (std::size_t i = 0; i < pts.size(); ++i)
        if (!same_point(serial[i], pts[i])) ++bad;
    }
    run.check(bad == 0, "dse " + std::string(in.w->name()) + ": " +
                            std::to_string(bad) + " points differ");
    run.attempted += pts.size();
    run.failed += bad;
  }
  p.wall_s = seconds_between(t0, Clock::now());
  return p;
}

void dse_accuracy(Run& run, const std::vector<DseInput>& inputs,
                  const std::vector<core::Prediction>& preds) {
  double e_ipc = 0.0, e_pow = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const sim::SimResult r =
        core::simulate_workload(*inputs[i].w, inputs[i].params,
                                sim::ArchConfig::paper_default(),
                                inputs[i].data_seed);
    const double power = r.energy_joules / r.time_seconds;
    e_ipc += std::abs(preds[i].ipc - r.ipc) / r.ipc;
    e_pow += std::abs(preds[i].power_watts - power) / power;
  }
  const auto n = static_cast<double>(inputs.size());
  run.report.set("mre_ipc_pct", 100.0 * e_ipc / n, "%");
  run.report.set("mre_power_pct", 100.0 * e_pow / n, "%");
}

void run_dse(Run& run) {
  load_once(run);  // warm-up
  const core::NapelModel model = core::load_model_file(model_path(run.o));
  const std::vector<sim::ArchConfig> cands = core::enumerate_grid(dense_grid());
  run.check(cands.size() == 900,
            "dse grid has " + std::to_string(cands.size()) + " points, not 900");
  const std::vector<DseInput> inputs = dse_inputs(run.o);
  std::mt19937_64 rng(run.o.seed);

  const auto start = Clock::now();
  const std::size_t n_apps = apps().size();
  std::vector<std::vector<double>> app_ms(n_apps), app_s(n_apps), app_cpu(n_apps),
      explore_s(n_apps);
  std::vector<double> setup, wall;
  std::size_t points = 0;
  // The first pass also runs the single-threaded explore check; it warms
  // up and is not measured. Then at least nine measured passes, so the
  // p90 of 12 apps x passes keeps ten samples beyond it. One model load
  // precedes each pass, so the best load is taken across the whole run.
  const DsePass first = dse_pass(run, model, inputs, cands, true, rng);
  while (wall.size() < 9 ||
         seconds_between(start, Clock::now()) + median(wall) < run.o.seconds) {
    setup.push_back(load_once(run));
    const DsePass p = dse_pass(run, model, inputs, cands, false, rng);
    wall.push_back(p.wall_s);
    points = p.points;
    for (std::size_t i = 0; i < n_apps; ++i) {
      app_ms[i].push_back(p.app_ms[i]);
      app_s[i].push_back(p.app_s[i]);
      app_cpu[i].push_back(p.app_cpu[i]);
      explore_s[i].push_back(p.explore_s[i]);
    }
  }
  std::printf("dse: %zu passes, pass wall best %.4f s, median %.4f s\n",
              wall.size(), best_time(wall), median(wall));
  run.report.set("setup_s", best_time(setup), "s");
  run.report.set("wall_s", sum_of_best(app_s), "s");
  run.report.set("cpu_s", sum_of_best(app_cpu), "s");
  run.report.set("rate_per_s",
                 static_cast<double>(points * n_apps) / sum_of_best(explore_s),
                 "1/s");
  run.app_latency(app_ms, 0.9, "predict app (profile + predict)", best_time);
  dse_accuracy(run, inputs, first.preds);
  run.report.set("peak_rss_mb", self_peak_rss_mib(), "MiB");
}

// ------------------------------------------------------------------ serve

std::vector<ServeRow> serve_rows(const core::NapelModel& model,
                                 const std::vector<FixtureRow>& rows) {
  std::vector<ServeRow> out;
  out.reserve(rows.size());
  char buf[40];
  for (const FixtureRow& r : rows) {
    ServeRow s;
    s.features_json = "[";
    for (std::size_t i = 0; i < r.features.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", r.features[i]);
      if (i) s.features_json += ',';
      s.features_json += buf;
    }
    s.features_json += ']';
    s.expect_ipc = model.predict_ipc(r.features);
    s.expect_power = model.predict_power_watts(r.features);
    s.label_ipc = r.ipc;
    s.label_power = r.power;
    out.push_back(std::move(s));
  }
  return out;
}

/// Starts `napel serve -m model_file` and waits for its first response;
/// `setup_s` receives the time from spawn to that response.
std::unique_ptr<ChildProcess> spawn_server(const Run& run,
                                           const std::string& model_file,
                                           double* setup_s) {
  const auto t0 = Clock::now();
  auto p = std::make_unique<ChildProcess>(
      std::vector<std::string>{run.o.napel_bin, "serve", "-m", model_file},
      run.out("serve.stderr"));
  p->send(R"({"op":"stats"})");
  std::string line;
  if (!p->read_line(line, 60000) || line.find("\"op\":\"stats\"") == std::string::npos)
    throw std::runtime_error("napel serve did not answer its first request");
  if (setup_s) *setup_s = seconds_between(t0, Clock::now());
  return p;
}

/// The child's {"op":"stats"} counters.
std::map<std::string, double> server_stats(ChildProcess& p) {
  p.send(R"({"op":"stats"})");
  std::string line;
  std::map<std::string, double> out;
  while (p.read_line(line)) {
    if (line.find("\"op\":\"stats\"") == std::string::npos) continue;
    const serve::JsonValue v = serve::JsonValue::parse(line);
    for (const char* k : {"admitted", "shed", "batched_predicts"})
      if (const serve::JsonValue* x = v.find(k); x && x->is_number())
        out[k] = x->as_number();
    break;
  }
  return out;
}

struct ServeTotals {
  std::uint64_t ok = 0;
  double err_ipc = 0.0;
  double err_power = 0.0;
};

/// Adds a stretch of traffic to the run's counts. Responses that are not
/// ok count as failed, except under `overload`, where shedding is the
/// designed answer; any ok response must match the model either way.
void account(Run& run, const LoadResult& r, ServeTotals& t, const char* what,
             bool overload) {
  if (!overload) {
    run.attempted += r.sent;
    run.failed += r.failed;
  }
  run.check(r.mismatched == 0, std::string(what) + ": " +
                                   std::to_string(r.mismatched) +
                                   " responses differ from the in-process model");
  t.ok += r.ok;
  t.err_ipc += r.abs_rel_err_ipc;
  t.err_power += r.abs_rel_err_power;
}

/// Open-loop traffic at one rate as back-to-back windows of at least a
/// thousand requests, so each window's p99 keeps ten samples beyond it.
/// Latencies are read from the best window: a stall of a shared host
/// spoils the windows it hits, while a cost the server pays on every
/// request shows in all of them.
struct Windows {
  std::vector<double> latency_ms;
  std::vector<std::size_t> window_n;
  std::vector<double> window_p50;
  std::vector<double> window_p90;
  std::vector<double> window_p99;
  std::vector<char> window_backlog;
  std::vector<double> late_ms;
  std::uint64_t failed = 0;
  std::size_t best() const {
    return static_cast<std::size_t>(
        std::min_element(window_p99.begin(), window_p99.end()) - window_p99.begin());
  }
  double p50() const { return window_p50[best()]; }
  double p99() const { return window_p99[best()]; }
  bool meets(double limit_ms) const {
    return p99() <= limit_ms && failed == 0 && !window_backlog[best()];
  }
};

/// Appends `n` windows at `rate` to `w`.
void add_windows(Run& run, ChildProcess& p, const std::vector<ServeRow>& rows,
                 std::uint64_t& next_id, double rate, int n, double window_s,
                 ServeTotals& totals, const std::string& what, bool overload,
                 Windows& w) {
  for (int i = 0; i < n; ++i) {
    const LoadResult r = open_loop(p, rows, rate, window_s, next_id,
                                   run.o.seed * 7919 + next_id);
    account(run, r, totals, what.c_str(), overload);
    w.latency_ms.insert(w.latency_ms.end(), r.latency_ms.begin(),
                        r.latency_ms.end());
    w.late_ms.insert(w.late_ms.end(), r.late_ms.begin(), r.late_ms.end());
    w.window_n.push_back(r.latency_ms.size());
    w.window_p50.push_back(median(r.latency_ms));
    w.window_p90.push_back(quantile(r.latency_ms, 0.90));
    w.window_p99.push_back(quantile(r.latency_ms, 0.99));
    w.window_backlog.push_back(r.backlog_grew ? 1 : 0);
    w.failed += r.failed;
  }
}

void print_windows(const Windows& w, const std::string& what, double rate) {
  std::printf("%s %6.0f req/s: best of %zu windows p50 %.4f ms, p99 %.4f ms%s; "
              "all windows p50 %.4f ms, p99 %.4f ms; generator late p99 "
              "%.4f ms, failed %llu\n",
              what.c_str(), rate, w.window_p99.size(), w.p50(), w.p99(),
              w.window_backlog[w.best()] ? " (backlog grew)" : "",
              median(w.latency_ms), quantile(w.latency_ms, 0.99),
              quantile(w.late_ms, 0.99), static_cast<unsigned long long>(w.failed));
}

Windows run_windows(Run& run, ChildProcess& p, const std::vector<ServeRow>& rows,
                    std::uint64_t& next_id, double rate, int n, double window_s,
                    ServeTotals& totals, const std::string& what,
                    bool overload = false) {
  Windows w;
  add_windows(run, p, rows, next_id, rate, n, window_s, totals, what, overload, w);
  print_windows(w, what, rate);
  return w;
}

/// Highest open-loop rate with p99 <= 5 ms, no failures and no growing
/// backlog. Starting from the 2000 req/s result, steps of x1.2 bracket the
/// limit, two geometric bisections narrow it, and the p99 is interpolated
/// log-linearly across the final bracket, so the estimate is not
/// quantised to ladder steps.
double rate_ladder(Run& run, ChildProcess& p, const std::vector<ServeRow>& rows,
                   std::uint64_t& next_id, double window_s, const Windows& r2000,
                   ServeTotals& totals) {
  constexpr double kLimitMs = 5.0;
  constexpr int kWindows = 4;
  // A step that misses the limit is run once more and judged by its
  // better attempt, so one slow stretch of the host does not end the climb.
  const auto step = [&](double rate) {
    Windows w = run_windows(run, p, rows, next_id, rate, kWindows, window_s,
                            totals, "serve ladder", true);
    if (!w.meets(kLimitMs)) {
      Windows again = run_windows(run, p, rows, next_id, rate, kWindows, window_s,
                                  totals, "serve ladder (again)", true);
      if (again.meets(kLimitMs) || again.p99() < w.p99()) w = std::move(again);
    }
    return w;
  };
  double lo = 0.0, lo_p99 = 0.0, hi = 0.0, hi_p99 = 0.0;
  bool hi_by_latency = true;
  const auto take = [&](double rate, const Windows& w) {
    if (w.meets(kLimitMs)) {
      lo = rate;
      lo_p99 = w.p99();
    } else {
      hi = rate;
      hi_p99 = w.p99();
      hi_by_latency = w.p99() > kLimitMs;
    }
  };
  take(2000.0, r2000);
  for (int i = 0; i < 8 && (lo == 0.0 || hi == 0.0); ++i) {
    const double rate = lo == 0.0 ? (hi / 1.2) : (lo * 1.2);
    take(rate, step(rate));
  }
  if (lo == 0.0) return hi;  // even the lowest rung missed the limit
  if (hi == 0.0) return lo;  // the limit lies beyond the ladder
  for (int i = 0; i < 2; ++i) {
    const double mid = std::sqrt(lo * hi);
    take(mid, step(mid));
  }
  if (!hi_by_latency || lo_p99 <= 0.0) return lo;
  const double f = (std::log(kLimitMs) - std::log(lo_p99)) /
                   (std::log(hi_p99) - std::log(lo_p99));
  return lo + std::clamp(f, 0.0, 1.0) * (hi - lo);
}

/// Serve's latency pair: p50 and p90 of the window with the lowest p90.
/// The p99 is logged but not reported: on a host that stalls the whole VM
/// for milliseconds it measures the stalls (the generator itself runs that
/// late), and it swung five-fold between runs of the same code.
void report_serve_latency(Run& run, const Windows& w) {
  const auto i = static_cast<std::size_t>(
      std::min_element(w.window_p90.begin(), w.window_p90.end()) -
      w.window_p90.begin());
  run.check(w.window_n[i] >= 100,
            "serve r1000: fewer than 100 samples in the reported window");
  run.report.set("latency_p50_ms", w.window_p50[i], "ms");
  run.report.set("latency_tail_ms", w.window_p90[i], "ms");
  std::printf("serve r1000 reported window: p50 %.4f ms, p90 %.4f ms\n",
              w.window_p50[i], w.window_p90[i]);
}

void run_serve(Run& run) {
  const core::NapelModel model = core::load_model_file(model_path(run.o));
  std::vector<ServeRow> rows = serve_rows(model, load_rows(rows_path(run.o)));
  if (run.o.corrupt) rows[0].expect_ipc = std::nextafter(rows[0].expect_ipc, 1e300);

  // Set-up is spawn to first response. An untimed first spawn pages the
  // binary and the model in; later spawns are timed between the traffic
  // phases, so the best one is taken across the whole run.
  std::vector<double> setup;
  const auto probe_setup = [&] {
    for (int i = 0; i < 2; ++i) {
      double s = 0.0;
      bool clean = false;
      spawn_server(run, model_path(run.o), &s)->finish(clean);
      run.check(clean, "napel serve exited uncleanly");
      setup.push_back(s);
    }
  };
  bool warm_clean = false;
  spawn_server(run, model_path(run.o), nullptr)->finish(warm_clean);
  setup.emplace_back();
  std::unique_ptr<ChildProcess> p = spawn_server(run, model_path(run.o), &setup.back());

  // Phase lengths scale with the budget: the rounds below take about 24
  // windows (a window is 1.25 s at 30 s). Each round is a closed-loop burst and one open-loop window at
  // 1000 req/s, so both sample the whole run rather than one stretch of
  // it. The latency metrics come from 1000 req/s (about 30% of
  // saturation): at 60% the queueing delay doubles any slowdown of the
  // host, so the 2000 req/s figures are only logged. The p99 <= 5 ms rate
  // ladder runs in the traced run, where a host stall cannot fail a bound.
  const double window_s = std::max(0.7, run.o.seconds / 24.0);
  const auto burst = static_cast<std::size_t>(3000 * window_s);
  std::uint64_t next_id = 0;
  ServeTotals totals;
  std::vector<double> wall, cpu;
  Windows r1000;
  for (int round = 0; round < 9; ++round) {
    const double c0 = p->cpu_seconds();
    const LoadResult r = closed_loop(*p, rows, burst, 32, next_id, run.o.seed + round);
    account(run, r, totals, "serve burst", false);
    if (round == 0) continue;  // warm-up
    wall.push_back(r.wall_s);
    cpu.push_back(p->cpu_seconds() - c0);
    add_windows(run, *p, rows, next_id, 1000.0, 3, 0.5 * window_s, totals,
                "serve r1000", false, r1000);
    if (round % 3 == 0) probe_setup();
  }
  std::printf("serve burst: wall %.4f s, server cpu %.4f s (best of %zu)\n",
              best_time(wall), best_time(cpu), wall.size());
  run.report.set("wall_s", best_time(wall), "s");
  run.report.set("cpu_s", best_time(cpu), "s");
  // Saturation throughput: what the server sustains with a full pipe.
  run.report.set("rate_per_s", static_cast<double>(burst) / best_time(wall), "1/s");
  print_windows(r1000, "serve r1000", 1000.0);
  report_serve_latency(run, r1000);
  run_windows(run, *p, rows, next_id, 2000.0, 3, window_s, totals, "serve r2000");
  probe_setup();
  run.report.set("setup_s", best_time(setup), "s");

  const auto st = server_stats(*p);
  std::printf("serve stats: admitted %.0f, shed %.0f, batched %.0f\n",
              st.count("admitted") ? st.at("admitted") : 0.0,
              st.count("shed") ? st.at("shed") : 0.0,
              st.count("batched_predicts") ? st.at("batched_predicts") : 0.0);
  bool clean = false;
  run.report.set("peak_rss_mb", p->finish(clean), "MiB");
  run.check(clean, "napel serve exited uncleanly");
  const double n = static_cast<double>(std::max<std::uint64_t>(1, totals.ok));
  run.report.set("mre_ipc_pct", 100.0 * totals.err_ipc / n, "%");
  run.report.set("mre_power_pct", 100.0 * totals.err_power / n, "%");
}

// ------------------------------------------------------------ layer sweep
//
// The traced run. Spans wrap each layer's public calls from this file;
// they are kept in memory, written to spans.jsonl at the end and reduced
// to per-layer self times. Layers on the workload's own path are measured
// at full size on its inputs; every other layer gets a small probe, so
// each run prints every per-layer metric.

std::vector<FixtureRow> to_fixture_rows(const std::vector<core::TrainingRow>& rows) {
  std::vector<FixtureRow> out;
  for (const core::TrainingRow& r : rows) out.push_back({r.ipc, r.power_watts, r.features});
  return out;
}

ml::Dataset dataset(const std::vector<FixtureRow>& rows, bool power) {
  ml::Dataset d(core::model_feature_names().size(), core::model_feature_names());
  for (const FixtureRow& r : rows) d.add_row(r.features, power ? r.power : r.ipc);
  return d;
}

struct CollectCounts {
  std::uint64_t events = 0;
  std::uint64_t bytes = 0;
  std::uint64_t sched_events = 0;
  std::uint64_t sims = 0;
  std::uint64_t shared = 0;
  std::uint64_t configs = 0;
};

/// Every DoE task of the train configuration, split into its layer calls:
/// kernel execution into a counting sink, capture into a TraceBuffer,
/// decode, profiling, simulator ingest and timing. Tasks fan out over the
/// pool as collect does. `max_configs` (0 = all) limits configs per app;
/// with all configs the rebuilt rows must match the recorded digest.
CollectCounts collect_layers(Run& run, std::int64_t parent, std::size_t max_configs,
                             std::vector<core::TrainingRow>* rows_out) {
  struct Task {
    const workloads::Workload* w;
    workloads::WorkloadParams params;
    std::size_t ci;
  };
  std::vector<Task> tasks;
  for (const auto* w : apps()) {
    const auto configs = doe::central_composite(w->doe_space(run.o.scale));
    for (std::size_t ci = 0; ci < configs.size(); ++ci)
      if (max_configs == 0 || ci < max_configs) tasks.push_back({w, configs[ci], ci});
  }
  Rng arch_rng(kCollectSeed ^ kArchPoolSalt);
  const std::vector<sim::ArchConfig> pool = sim::sample_arch_configs(8, arch_rng);
  constexpr std::size_t kPer = 3;
  std::vector<core::TrainingRow> rows(tasks.size() * kPer);
  std::vector<CollectCounts> part(tasks.size());

  parallel_for(tasks.size(), run.o.threads, [&](std::size_t t) {
    const Task& task = tasks[t];
    const std::uint64_t seed = kCollectSeed + task.ci;
    CollectCounts& c = part[t];
    {
      const ScopedSpan s(run.spans, "workloads.exec", parent);
      trace::Tracer tracer;
      trace::CountingSink sink;
      tracer.attach(sink);
      task.w->run(tracer, task.params, seed);
    }
    trace::TraceBuffer buf;
    {
      const ScopedSpan s(run.spans, "trace.capture", parent);
      trace::Tracer tracer;
      tracer.attach(buf);
      task.w->run(tracer, task.params, seed);
    }
    c.events = buf.event_count();
    c.bytes = buf.memory_bytes();
    {
      const ScopedSpan s(run.spans, "trace.replay_decode", parent);
      trace::CountingSink sink;
      buf.replay(sink);
    }
    profiler::Profile prof;
    {
      const ScopedSpan s(run.spans, "profiler.ingest", parent);
      profiler::ProfileBuilder builder;
      buf.replay(builder);
      prof = builder.build();
    }
    // The pipeline's arch pairing and stream sharing: slot 0 is the paper
    // design, the rest rotate through the pool; simulators with equal
    // n_pes compile identical streams, so one ingests and the rest adopt.
    std::vector<std::unique_ptr<sim::NmcSimulator>> sims;
    std::vector<std::size_t> rep(kPer);
    for (std::size_t a = 0; a < kPer; ++a) {
      sims.push_back(std::make_unique<sim::NmcSimulator>(
          a == 0 ? pool[0]
                 : pool[1 + (task.ci * (kPer - 1) + a - 1) % (pool.size() - 1)]));
      rep[a] = a;
      for (std::size_t b = 0; b < a; ++b)
        if (sims[b]->config().n_pes == sims[a]->config().n_pes) {
          rep[a] = b;
          break;
        }
    }
    {
      const ScopedSpan s(run.spans, "sim.ingest", parent);
      for (std::size_t a = 0; a < kPer; ++a)
        if (rep[a] == a) buf.replay(*sims[a]);
    }
    {
      const ScopedSpan s(run.spans, "sim.timing", parent);
      for (std::size_t a = 0; a < kPer; ++a)
        if (rep[a] != a) sims[a]->share_stream_from(*sims[rep[a]]);
      for (std::size_t a = 0; a < kPer; ++a) sims[a]->result();
    }
    c.configs = 1;
    for (std::size_t a = 0; a < kPer; ++a) {
      const sim::SimResult& r = sims[a]->result();
      c.sims += 1;
      c.shared += rep[a] != a;
      c.sched_events += r.sched_events;
      core::TrainingRow& row = rows[t * kPer + a];
      row.app = std::string(task.w->name());
      row.params = task.params;
      row.arch = sims[a]->config();
      row.features = core::model_features(prof, row.arch);
      row.ipc = r.ipc;
      row.instructions = r.instructions;
      row.energy_pj_per_instr =
          r.instructions == 0
              ? 0.0
              : r.energy_joules * 1e12 / static_cast<double>(r.instructions);
      row.power_watts = r.time_seconds == 0.0 ? 0.0 : r.energy_joules / r.time_seconds;
      row.sim_time_seconds = r.time_seconds;
      row.sim_energy_joules = r.energy_joules;
    }
  });
  CollectCounts total;
  for (const CollectCounts& c : part) {
    total.events += c.events;
    total.bytes += c.bytes;
    total.sched_events += c.sched_events;
    total.sims += c.sims;
    total.shared += c.shared;
    total.configs += c.configs;
  }
  if (rows_out) *rows_out = std::move(rows);
  return total;
}

/// Fit, compile and certify both forests on `rows`.
void fit_layers(Run& run, std::int64_t parent, const std::vector<FixtureRow>& rows,
                std::uint64_t forest_seed) {
  const ml::Dataset ipc = dataset(rows, false);
  const ml::Dataset power = dataset(rows, true);
  ml::RandomForestParams prm;
  prm.n_trees = 100;
  prm.seed = forest_seed;
  prm.n_threads = run.o.threads;
  ml::RandomForest rf_ipc(prm), rf_power(prm);
  {
    const ScopedSpan s(run.spans, "ml.fit_ipc", parent);
    rf_ipc.fit(ipc);
  }
  {
    const ScopedSpan s(run.spans, "ml.fit_power", parent);
    rf_power.fit(power);
  }
  ml::FlatForest flat_ipc, flat_power;
  {
    const ScopedSpan s(run.spans, "ml.compile", parent);
    flat_ipc = ml::FlatForest(rf_ipc);
    flat_power = ml::FlatForest(rf_power);
  }
  {
    const ScopedSpan s(run.spans, "verify.certify", parent);
    flat_ipc.certify();
    flat_power.certify();
  }
  run.report.set("ml.fit_nodes",
                 static_cast<double>(flat_ipc.node_count() + flat_power.node_count()),
                 "count");
}

/// `explore` on each profile, then its parts: feature rows, the IPC
/// forest's vote batch, the intervals and the power batch; then single-row
/// walks as serve does them one request at a time.
void explore_layers(Run& run, std::int64_t parent, const core::NapelModel& model,
                    const std::vector<profiler::Profile>& profiles) {
  const std::vector<sim::ArchConfig> cands = core::enumerate_grid(dense_grid());
  const std::size_t n = cands.size();
  const std::size_t p = core::model_feature_names().size();
  const ml::FlatForest& ipc = model.ipc_flat();
  const std::size_t nt = ipc.tree_count();
  std::vector<double> X(n * p), votes(n * nt), power(n);
  for (const profiler::Profile& prof : profiles) {
    {
      const ScopedSpan s(run.spans, "napel.explore", parent);
      core::explore(model, prof, cands, run.o.threads);
    }
    {
      const ScopedSpan s(run.spans, "napel.features", parent);
      for (std::size_t i = 0; i < n; ++i) {
        const std::vector<double> f = core::model_features(prof, cands[i]);
        std::copy(f.begin(), f.end(), X.begin() + static_cast<std::ptrdiff_t>(i * p));
      }
    }
    {
      const ScopedSpan s(run.spans, "ml.votes_batch", parent);
      ipc.predict_votes_batch(X, n, votes, run.o.threads);
    }
    {
      const ScopedSpan s(run.spans, "ml.interval", parent);
      for (std::size_t i = 0; i < n; ++i)
        ml::FlatForest::interval_from_trees(std::span<double>(votes.data() + i * nt, nt));
    }
    {
      const ScopedSpan s(run.spans, "ml.power_predict", parent);
      model.energy_flat().predict_batch(X, n, power, run.o.threads);
    }
  }
  double sum = 0.0;
  {
    const ScopedSpan s(run.spans, "ml.single_row", parent);
    for (std::size_t i = 0; i < n; ++i)
      sum += ipc.predict(std::span<const double>(X.data() + i * p, p));
  }
  run.check(std::isfinite(sum), "single-row predictions are not finite");
  run.report.set("ml.rows_per_s",
                 static_cast<double>(n * profiles.size()) /
                     run.spans.self_seconds()["ml.votes_batch"],
                 "1/s");
  run.report.set("ml.single_row_us",
                 1e6 * run.spans.self_seconds()["ml.single_row"] / static_cast<double>(n),
                 "us");
}

/// The in-process serving path over `n` request lines: read through
/// IoStreamTransport on std::cin fed from a request file, parse, handle
/// in slices of 16 as a worker does, and write through IoStreamTransport
/// to a response file. Each response is checked against the model.
void serve_layers(Run& run, std::int64_t parent, const std::string& model_file,
                  const std::vector<ServeRow>& rows, std::size_t n) {
  {
    std::ofstream req(run.out("serve_requests.jsonl"));
    for (std::size_t i = 0; i < n; ++i) req << predict_line(i, rows[i % rows.size()]) << '\n';
  }
  std::ifstream req(run.out("serve_requests.jsonl"));
  std::ofstream resp_file(run.out("serve_responses.jsonl"));
  std::streambuf* cin_buf = std::cin.rdbuf(req.rdbuf());
  serve::IoStreamTransport transport(std::cin, resp_file);
  std::vector<std::string> lines(n);
  std::size_t got = 0;
  {
    const ScopedSpan s(run.spans, "serve.read", parent);
    while (got < n && transport.read_line(lines[got])) ++got;
  }
  std::cin.rdbuf(cin_buf);
  run.check(got == n, "serve layer: request file read short");
  {
    const ScopedSpan s(run.spans, "serve.parse", parent);
    for (std::size_t i = 0; i < got; ++i) serve::JsonValue::parse(lines[i]);
  }
  serve::Server server(serve::ServerOptions{},
                       serve::ServedModel::make(core::load_model_file(model_file), 1,
                                                model_file));
  std::vector<std::string> responses;
  {
    const ScopedSpan s(run.spans, "serve.handle", parent);
    for (std::size_t i = 0; i < got; i += 16) {
      const std::vector<std::string> slice(
          lines.begin() + static_cast<std::ptrdiff_t>(i),
          lines.begin() + static_cast<std::ptrdiff_t>(std::min(got, i + 16)));
      for (std::string& r : server.handle_lines(slice)) responses.push_back(std::move(r));
    }
  }
  {
    const ScopedSpan s(run.spans, "serve.write", parent);
    for (const std::string& r : responses) transport.write_line(r);
  }
  std::size_t bad = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const serve::JsonValue v = serve::JsonValue::parse(responses[i]);
    const serve::JsonValue* ipc = v.find("ipc");
    if (ipc == nullptr || !ipc->is_number() ||
        ipc->as_number() != rows[i % rows.size()].expect_ipc)
      ++bad;
  }
  run.check(bad == 0, "serve layer: " + std::to_string(bad) +
                          " in-process responses differ from the model");
  const auto self = run.spans.self_seconds();
  const auto per = [&](const char* span) {
    return 1e6 * self.at(span) / static_cast<double>(std::max<std::size_t>(1, got));
  };
  run.report.set("serve.read_us", per("serve.read"), "us");
  run.report.set("serve.parse_us", per("serve.parse"), "us");
  run.report.set("serve.handle_us", per("serve.handle"), "us");
  run.report.set("serve.write_us", per("serve.write"), "us");
}

/// Open-loop traffic at 2000 req/s against a `napel serve` child, with the
/// child's stats across it (micro-batched share of rows, shed count) and
/// the generator's lateness; then the p99 <= 5 ms rate ladder.
void serve_child_layers(Run& run, ChildProcess& p, const std::vector<ServeRow>& rows,
                        std::uint64_t& next_id, int windows, double window_s) {
  ServeTotals totals;
  const auto before = server_stats(p);
  const Windows w = run_windows(run, p, rows, next_id, 2000.0, windows, window_s,
                                totals, "serve r2000 (traced)");
  const auto after = server_stats(p);
  const auto delta = [&](const char* k) {
    return (after.count(k) ? after.at(k) : 0.0) - (before.count(k) ? before.at(k) : 0.0);
  };
  run.report.set("serve.micro_batch_rows_ratio",
                 delta("admitted") > 0 ? delta("batched_predicts") / delta("admitted")
                                       : 0.0,
                 "ratio");
  run.report.set("serve.shed", delta("shed"), "count");
  run.report.set("bench.gen_late_p99_ms", quantile(w.late_ms, 0.99), "ms");
  const double max_rps = rate_ladder(run, p, rows, next_id, 0.5, w, totals);
  std::printf("serve max rate at p99 <= 5 ms: %.1f req/s\n", max_rps);
  run.report.set("serve.max_rps_p99_5ms", max_rps, "1/s");
}

/// A one-second serve_child_layers run for workloads that do not serve.
void serve_child_probe(Run& run, const std::string& model_file,
                       const std::vector<ServeRow>& rows) {
  const std::unique_ptr<ChildProcess> p = spawn_server(run, model_file, nullptr);
  std::uint64_t next_id = 0;
  serve_child_layers(run, *p, rows, next_id, 1, 1.0);
  bool clean = false;
  p->finish(clean);
  run.check(clean, "napel serve exited uncleanly");
}

/// Per-app collect calls with CPU accounting: busy pool time against
/// wall time times threads.
void collect_call_layers(Run& run, double wall_s, double cpu_s) {
  run.report.set("napel.collect_wall_s", wall_s, "s");
  run.report.set("napel.collect_cpu_s", cpu_s, "s");
  run.report.set("common.pool_idle_s", wall_s * run.o.threads - cpu_s, "s");
}

/// One collect call for the smallest app, for workloads that do not
/// collect.
void collect_probe(Run& run, std::int64_t parent) {
  trace::TraceCache cache(std::size_t{256} << 20);
  core::CollectOptions copt = collect_options(run.o);
  copt.trace_cache = &cache;
  std::vector<core::TrainingRow> rows;
  const auto t0 = Clock::now();
  const double c0 = process_cpu_seconds();
  {
    const ScopedSpan s(run.spans, "napel.collect", parent);
    core::collect_training_data(workloads::workload("atax"), copt, rows);
  }
  collect_call_layers(run, seconds_between(t0, Clock::now()), process_cpu_seconds() - c0);
}

std::vector<profiler::Profile> profile_probe(Run& run, std::int64_t parent,
                                             std::size_t n_apps) {
  std::vector<profiler::Profile> out;
  const std::vector<DseInput> inputs = dse_inputs(run.o);
  for (std::size_t i = 0; i < std::min(n_apps, inputs.size()); ++i) {
    const ScopedSpan s(run.spans, "profiler.profile", parent);
    out.push_back(core::profile_workload(*inputs[i].w, inputs[i].params,
                                         inputs[i].data_seed));
  }
  return out;
}

void load_model_layer(Run& run, std::int64_t parent, const std::string& file,
                      core::NapelModel* out) {
  const ScopedSpan s(run.spans, "napel.load_model", parent);
  core::NapelModel m = core::load_model_file(file);
  if (out) *out = std::move(m);
}

void report_layers(Run& run, const CollectCounts& cc, double overhead_s,
                   const char* pass_span) {
  const auto self = run.spans.self_seconds();
  const auto counts = run.spans.counts();
  const auto get = [&](const char* k) { return self.count(k) ? self.at(k) : 0.0; };
  run.report.set("workloads.exec_s", get("workloads.exec"), "s");
  run.report.set("trace.capture_s", get("trace.capture"), "s");
  run.report.set("trace.replay_decode_s", get("trace.replay_decode"), "s");
  run.report.set("trace.events", static_cast<double>(cc.events), "count");
  run.report.set("trace.bytes_per_event",
                 static_cast<double>(cc.bytes) / static_cast<double>(cc.events), "B");
  run.report.set("profiler.ingest_s", get("profiler.ingest"), "s");
  run.report.set("profiler.events_per_s",
                 static_cast<double>(cc.events) / get("profiler.ingest"), "1/s");
  run.report.set("profiler.profile_ms",
                 1e3 * get("profiler.profile") /
                     static_cast<double>(counts.at("profiler.profile")),
                 "ms");
  run.report.set("sim.ingest_s", get("sim.ingest"), "s");
  run.report.set("sim.timing_s", get("sim.timing"), "s");
  run.report.set("sim.sched_events", static_cast<double>(cc.sched_events), "count");
  run.report.set("sim.shared_stream_ratio",
                 static_cast<double>(cc.shared) / static_cast<double>(cc.sims), "ratio");
  run.report.set("doe.configs", static_cast<double>(cc.configs), "count");
  run.report.set("napel.features_s", get("napel.features"), "s");
  run.report.set("napel.explore_s", get("napel.explore"), "s");
  run.report.set("napel.load_model_s",
                 get("napel.load_model") /
                     static_cast<double>(counts.at("napel.load_model")),
                 "s");
  run.report.set("ml.fit_ipc_s", get("ml.fit_ipc"), "s");
  run.report.set("ml.fit_power_s", get("ml.fit_power"), "s");
  run.report.set("ml.compile_s", get("ml.compile"), "s");
  run.report.set("verify.certify_s", get("verify.certify"), "s");
  run.report.set("ml.votes_batch_s", get("ml.votes_batch"), "s");
  run.report.set("ml.interval_s", get("ml.interval"), "s");
  run.report.set("ml.power_predict_s", get("ml.power_predict"), "s");
  run.report.set("bench.trace_overhead_s", overhead_s, "s");
  run.report.set("bench.pass_self_s", get(pass_span), "s");
  run.report.set("bench.spans", static_cast<double>(run.spans.span_count()), "count");
}

/// A second recorder that stays off: the untraced twin of a traced pass.
Run untraced_twin(const Run& run) {
  Options o = run.o;
  o.trace = false;
  return Run(o);
}

void sweep_train(Run& run) {
  Run plain = untraced_twin(run);
  train_pass(plain, kFixtureForestSeed);  // warm-up: the first pass runs cold
  const TrainPass untraced = train_pass(plain, kFixtureForestSeed);
  TrainPass p = train_pass(run, kFixtureForestSeed);
  check_train_pass(run, p);
  collect_call_layers(run, p.collect_wall_s, p.collect_cpu_s);
  std::printf("train pass: untraced %.3f s, traced %.3f s\n", untraced.wall_s, p.wall_s);
  const ScopedSpan sweep(run.spans, "bench.sweep");
  std::vector<core::TrainingRow> rows;
  const CollectCounts cc = collect_layers(run, sweep.id(), 0, &rows);
  const CollectRef ref = collect_ref(run.o.scale);
  run.check(rows_digest(rows) == ref.digest,
            "layer-split collect rows differ from the recorded digest");
  fit_layers(run, sweep.id(), to_fixture_rows(p.rows), kFixtureForestSeed);
  const std::string model_file = run.out("train_model.txt");
  core::save_model_file(p.model, model_file);
  load_model_layer(run, sweep.id(), model_file, nullptr);
  explore_layers(run, sweep.id(), p.model, profile_probe(run, sweep.id(), 1));
  std::vector<ServeRow> rows_s = serve_rows(p.model, to_fixture_rows(p.rows));
  serve_layers(run, sweep.id(), model_file, rows_s, 512);
  serve_child_probe(run, model_file, rows_s);
  report_layers(run, cc, p.wall_s - untraced.wall_s, "train.pass");
}

void sweep_dse(Run& run) {
  const ScopedSpan sweep(run.spans, "bench.sweep");
  core::NapelModel model;
  load_model_layer(run, sweep.id(), model_path(run.o), &model);
  const std::vector<sim::ArchConfig> cands = core::enumerate_grid(dense_grid());
  const std::vector<DseInput> inputs = dse_inputs(run.o);
  std::mt19937_64 rng(run.o.seed);
  Run plain = untraced_twin(run);
  dse_pass(plain, model, inputs, cands, true, rng);  // warm-up and full check
  const DsePass untraced = dse_pass(plain, model, inputs, cands, false, rng);
  const DsePass traced = dse_pass(run, model, inputs, cands, false, rng);
  run.attempted += plain.attempted;
  run.failed += plain.failed;
  run.correct = run.correct && plain.correct;
  std::vector<profiler::Profile> profiles;
  for (const DseInput& in : inputs)
    profiles.push_back(core::profile_workload(*in.w, in.params, in.data_seed));
  explore_layers(run, sweep.id(), model, profiles);
  const CollectCounts cc = collect_layers(run, sweep.id(), 1, nullptr);
  collect_probe(run, sweep.id());
  fit_layers(run, sweep.id(), load_rows(rows_path(run.o)), kFixtureForestSeed);
  const std::vector<ServeRow> rows = serve_rows(model, load_rows(rows_path(run.o)));
  serve_layers(run, sweep.id(), model_path(run.o), rows, 512);
  serve_child_probe(run, model_path(run.o), rows);
  report_layers(run, cc, traced.wall_s - untraced.wall_s, "dse.pass");
}

void sweep_serve(Run& run) {
  const ScopedSpan sweep(run.spans, "bench.sweep");
  core::NapelModel model;
  load_model_layer(run, sweep.id(), model_path(run.o), &model);
  const std::vector<ServeRow> rows = serve_rows(model, load_rows(rows_path(run.o)));
  std::unique_ptr<ChildProcess> p = spawn_server(run, model_path(run.o), nullptr);
  std::uint64_t next_id = 0;
  ServeTotals totals;
  double untraced = 0.0, traced = 0.0;
  // Warm-up, untraced and traced bursts; the traced one runs inside a
  // span, as a traced pass of the other workloads does.
  for (int rep = 0; rep < 3; ++rep) {
    std::unique_ptr<ScopedSpan> span;
    if (rep == 2) span = std::make_unique<ScopedSpan>(run.spans, "serve.pass", sweep.id());
    const LoadResult r = closed_loop(*p, rows, 3000, 32, next_id, run.o.seed + rep);
    span.reset();
    account(run, r, totals, "serve burst", false);
    (rep == 1 ? untraced : traced) = r.wall_s;
  }
  serve_child_layers(run, *p, rows, next_id, 3, 1.0);
  bool clean = false;
  p->finish(clean);
  run.check(clean, "napel serve exited uncleanly");
  serve_layers(run, sweep.id(), model_path(run.o), rows, 4000);
  const CollectCounts cc = collect_layers(run, sweep.id(), 1, nullptr);
  collect_probe(run, sweep.id());
  fit_layers(run, sweep.id(), load_rows(rows_path(run.o)), kFixtureForestSeed);
  explore_layers(run, sweep.id(), model, profile_probe(run, sweep.id(), 1));
  report_layers(run, cc, traced - untraced, "serve.pass");
}

void run_layer_sweep(Run& run) {
  // How fast the host was during this run, from a kernel that no change
  // to the library can move: compare it across runs before comparing
  // layer times.
  std::vector<double> ref;
  for (int i = 0; i < 3; ++i) ref.push_back(reference_seconds(run.o.threads));
  run.report.set("bench.host_ref_s", median(ref), "s");
  if (run.o.workload == "train") {
    sweep_train(run);
  } else if (run.o.workload == "dse") {
    sweep_dse(run);
  } else {
    sweep_serve(run);
  }
  run.spans.write_jsonl(run.out("spans.jsonl"));
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dead child shows as EPIPE, not death
  try {
    const Options o = parse_options(argc, argv);
    if (o.mode == "fixture") return cmd_fixture(o);
    if (o.mode == "setup-probe") return cmd_setup_probe(o);
    if (o.mode != "run")
      throw std::invalid_argument("usage: napelbench run|fixture|setup-probe ...");
    if (o.workload != "train" && o.workload != "dse" && o.workload != "serve")
      throw std::invalid_argument("unknown workload: " + o.workload);
    Run run(o);
    std::printf("napelbench %s: seed %llu, %.0f s, trace %d, scale %s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0,
                o.scale == workloads::Scale::kTiny ? "tiny" : "bench");
    if (o.trace) {
      run_layer_sweep(run);
    } else if (o.workload == "train") {
      run_train(run);
    } else if (o.workload == "dse") {
      run_dse(run);
    } else {
      run_serve(run);
    }
    std::printf("fingerprint: %s\n", fingerprint_json(o.threads, o.commit).c_str());
    std::printf("%s", run.report.table().c_str());
    std::printf("%s\n",
                run.report.result_json(run.correct, std::max<std::uint64_t>(1, run.attempted),
                                       run.failed)
                    .c_str());
    std::fflush(stdout);
    return run.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "napelbench: %s\n", e.what());
    return 2;
  }
}
