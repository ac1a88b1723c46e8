// The repository benchmark: three seeded workloads driven through the
// program's public entry points, with end-to-end metrics from untraced runs
// and per-layer metrics from a separate traced run. README.md in this
// directory describes the workloads, every metric and how to read a traced
// run; run.py builds this program and forwards its output.
//
//   isoee_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--golden FILE] [--record-golden] [--work-dir DIR]
//   isoee_perfbench --manifest        print BENCHMARK.json
//
// A run repeats whole passes of its workload until --seconds have elapsed.
// Every pass starts cold (a fresh result-cache directory), so every pass does
// identical work: its output digest and its exact counts must equal those of
// every other pass, traced or not, and at the default seed the digest must
// equal the one recorded in --golden. Each mismatch is a failed operation
// and makes the run exit non-zero. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/study.hpp"
#include "analysis/surface.hpp"
#include "exec/codec.hpp"
#include "exec/executor.hpp"
#include "npb/classes.hpp"
#include "npb/fft.hpp"
#include "obs/metrics.hpp"
#include "obs/sched_profiler.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

// Timing an unoptimized or instrumented build measures the build, not the
// program; refuse to produce such a binary at all.
#if !defined(__OPTIMIZE__) || !defined(NDEBUG)
#error "perfbench times optimized builds only: configure with -DCMAKE_BUILD_TYPE=Release"
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#error "perfbench refuses to time a sanitizer build"
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#error "perfbench refuses to time a sanitizer build"
#endif
#endif

namespace {

using namespace isoee;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- fixed settings ----------------------------------------------------------
// Every host-thread count is explicit: automatic values would make the
// numbers depend on the host.

constexpr std::uint64_t kDefaultSeed = 42;  // the seed the golden digests are recorded at
constexpr int kJobs = 1;             // exec::ExecConfig::jobs of the studies
constexpr int kEngineWorkers = 1;    // fiber-engine workers per simulation
constexpr int kServiceJobs = 1;      // the service's simulation-tier thread budget
constexpr int kRequestsPerPass = 4000;
constexpr int kMeasuredPool = 12;    // distinct measured points per whatif_tcp pass
constexpr int kRunSeconds = 30;      // BENCHMARK.json run_seconds
constexpr std::uint64_t kProfileIntervalUs = 250;

int host_nproc() {
  cpu_set_t set;
  if (::sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

// --- workloads and metrics -----------------------------------------------------

struct WorkloadInfo {
  const char* name;
  const char* why;
};

const WorkloadInfo kWorkloads[] = {
    {"study_ft",
     "cold FT EnergyStudy: numerics-bound (npb::fft1d), few messages, so FFT work shows "
     "and mailbox work does not"},
    {"study_cg_wide",
     "cold CG EnergyStudy validated up to p=128 at small n: messages grow ~p^2, so "
     "engine mailbox, dispatch and smpi bookkeeping show"},
    {"whatif_tcp",
     "closed-loop TCP client of the what-if service: transport, protocol, model tier "
     "and cache reads/writes; little engine work"},
};

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher" (end-to-end only)
  double bound = 0.0;  // end-to-end only
};

// On a shared 4-core host these spread up to ~0.15 (IQR/median over ten seeded
// runs of the same code), and sets of runs taken minutes apart move by about as
// much, so every metric gets the largest bound.
const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", "s", "lower", 0.25},
      {"wall_s", "s", "lower", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.25},
      {"events_per_s", "1/s", "higher", 0.25},
      {"qps", "1/s", "higher", 0.25},
      {"measured_p50_ms", "ms", "lower", 0.25},
      {"measured_p99_ms", "ms", "lower", 0.25},
  };
  return metrics;
}

// --- the studies ---------------------------------------------------------------

struct StudySpec {
  const char* workload;
  std::function<std::unique_ptr<analysis::BenchmarkAdapter>()> adapter;
  std::vector<double> calib_ns;
  std::vector<int> calib_ps;
  double n;  // validation and surface problem size
  std::vector<int> validate_ps;
  std::vector<int> surface_ps;
  std::vector<double> surface_fs;
};

const std::vector<StudySpec>& study_specs() {
  static const std::vector<StudySpec> specs = [] {
    const std::vector<int> ps = {1, 2, 4, 8, 16, 32, 64, 128, 256};
    const std::vector<double> fs = {1.6, 1.8, 2.0, 2.2, 2.4, 2.6, 2.8};
    std::vector<StudySpec> out;
    out.push_back({"study_ft",
                   [] {
                     const npb::FtConfig cfg = npb::ft_class(npb::ProblemClass::B);
                     return analysis::make_ft_adapter(cfg);
                   },
                   {16.0 * 16 * 16, 32.0 * 32 * 32, 64.0 * 64 * 64},
                   {2, 4, 8},
                   64.0 * 64 * 64,
                   {1, 2, 4, 8, 16},
                   ps,
                   fs});
    out.push_back({"study_cg_wide",
                   [] {
                     npb::CgConfig cfg = npb::cg_class(npb::ProblemClass::S);
                     cfg.n = 4096;
                     cfg.outer = 2;
                     cfg.inner = 10;
                     return analysis::make_cg_adapter(cfg);
                   },
                   {1000, 2000, 4000},
                   {2, 4, 8, 16},
                   4096,
                   {1, 16, 32, 64, 128},
                   ps,
                   fs});
    return out;
  }();
  return specs;
}

std::string kernel_of(const StudySpec& spec) { return spec.adapter()->name(); }

std::string validate_metric(const std::string& kernel, int p) {
  return "analysis.validate_s." + kernel + ".p" + std::to_string(p);
}

struct LayerMetric {
  std::string name;
  std::string unit;
};

const std::vector<LayerMetric>& per_layer_metrics() {
  static const std::vector<LayerMetric> metrics = [] {
    std::vector<LayerMetric> m = {
        {"sim.runs", "count"},
        {"sim.events", "count"},
        {"sim.messages", "count"},
        {"sim.bytes", "bytes"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.sched.fiber_run_pct", "%"},
        {"sim.sched.heap_dispatch_pct", "%"},
        {"sim.sched.mailbox_wait_pct", "%"},
        {"sim.sched.idle_pct", "%"},
        {"smpi.collective_calls", "count"},
        {"smpi.collective_bytes", "bytes"},
        {"smpi.tags_acquired", "count"},
        {"smpi.tag_max_in_flight", "count"},
        {"npb.fft1d_ns_per_point", "ns"},
        {"analysis.machine_calibrate_s", "s"},
        {"analysis.calibrate_s", "s"},
        {"analysis.validate_s", "s"},
        {"analysis.surface_s", "s"},
        {"analysis.energy_error_pct", "%"},
    };
    for (const StudySpec& spec : study_specs()) {
      for (int p : spec.validate_ps) {
        m.push_back({validate_metric(kernel_of(spec), p), "s"});
      }
    }
    const std::vector<LayerMetric> rest = {
        {"model.points_per_s", "1/s"},
        {"exec.cases_started", "count"},
        {"exec.cache_hits", "count"},
        {"exec.cache_misses", "count"},
        {"exec.cache_stores", "count"},
        {"exec.cache_hit_ratio", "ratio"},
        {"service.jobs_run", "count"},
        {"service.tier_model", "count"},
        {"service.tier_cache", "count"},
        {"service.tier_sim", "count"},
        {"service.coalesced", "count"},
        {"service.rejected", "count"},
        {"service.errors", "count"},
        {"service.handle_p50_us.model", "us"},
        {"service.handle_p50_us.cache", "us"},
        {"service.transport_p50_us", "us"},
        {"service.transport_p99_us", "us"},
        {"trace.overhead_pct", "%"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return metrics;
}

// --- obs::metrics() snapshots ----------------------------------------------------

/// A benchmark metric read from the program's own metrics registry. An exact
/// one repeats bit for bit at a seed. The service's tier and coalescing
/// counts are not: a request may coalesce onto an identical job that has
/// answered but that the scheduler has not yet released.
struct Probe {
  const char* metric;
  const char* source;
  enum Kind { kCounter, kGauge, kHistogramSum } kind;
  bool exact = true;
};

const Probe kProbes[] = {
    {"sim.runs", "sim.runs_started", Probe::kCounter},
    {"sim.events", "engine.events_processed", Probe::kCounter},
    {"sim.messages", "sim.messages_sent", Probe::kCounter},
    {"sim.bytes", "sim.bytes_sent", Probe::kCounter},
    {"smpi.collective_calls", "smpi.collective_calls", Probe::kCounter},
    {"smpi.collective_bytes", "smpi.collective_bytes", Probe::kHistogramSum},
    {"smpi.tags_acquired", "smpi.tags_acquired", Probe::kCounter},
    {"smpi.tag_max_in_flight", "smpi.tag_max_in_flight", Probe::kGauge},
    {"exec.cases_started", "exec.cases_started", Probe::kCounter},
    {"exec.cache_hits", "exec.result_cache_hits", Probe::kCounter, false},
    {"exec.cache_misses", "exec.result_cache_misses", Probe::kCounter},
    {"exec.cache_stores", "exec.result_cache_stores", Probe::kCounter},
    {"service.jobs_run", "service.jobs_run", Probe::kCounter, false},
    {"service.tier_model", "service.tier_model", Probe::kCounter},
    {"service.tier_cache", "service.tier_cache", Probe::kCounter, false},
    {"service.tier_sim", "service.tier_sim", Probe::kCounter, false},
    {"service.coalesced", "service.coalesced", Probe::kCounter, false},
    {"service.rejected", "service.rejected", Probe::kCounter},
    {"service.errors", "service.errors", Probe::kCounter},
};

using Snapshot = std::map<std::string, double>;

Snapshot snapshot() {
  Snapshot s;
  for (const Probe& p : kProbes) {
    switch (p.kind) {
      case Probe::kCounter:
        s[p.metric] = static_cast<double>(obs::metrics().counter(p.source).value());
        break;
      case Probe::kGauge:
        s[p.metric] = obs::metrics().gauge(p.source).value();
        break;
      case Probe::kHistogramSum:
        s[p.metric] =
            obs::metrics().histogram(p.source, obs::default_size_buckets()).sum();
        break;
    }
  }
  return s;
}

/// The snapshot value of `metric`, 0 when the pass failed before snapshotting.
double count_of(const Snapshot& s, const std::string& metric) {
  const auto it = s.find(metric);
  return it == s.end() ? 0.0 : it->second;
}

/// Counter deltas; gauges are high-water marks, so their value is taken as is.
Snapshot delta(const Snapshot& before, const Snapshot& after) {
  Snapshot d;
  for (const Probe& p : kProbes) {
    const double now = after.at(p.metric);
    d[p.metric] = p.kind == Probe::kGauge ? now : now - before.at(p.metric);
  }
  return d;
}

// --- small helpers -----------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

std::string g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// A new, empty result-cache directory under `work_dir`. Each set-up gets its
/// own, and passes delete theirs after their timed part, so no set-up times
/// the deletion of an earlier cache.
std::filesystem::path new_cache_dir(const std::filesystem::path& work_dir) {
  static int made = 0;
  const std::filesystem::path dir = work_dir / ("cache-" + std::to_string(made++));
  std::filesystem::create_directories(dir);
  return dir;
}

/// Incremental FNV-1a over a sequence of fragments.
class Digest {
 public:
  void add(std::string_view bytes) {
    h_ = exec::fnv1a(bytes, h_);
    h_ = exec::fnv1a("\n", h_);
  }
  void add(double v) { add(g17(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --- one pass ------------------------------------------------------------------------

struct Pass {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double timed_events = 0.0;  // engine events inside the timed part
  double queries = 0.0;       // queries answered inside the timed part
  std::uint64_t digest = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> model_s;     // whatif_tcp: model-tier round trips
  std::vector<double> measured_s;  // validate calls; whatif_tcp: measured round trips
  Snapshot counts;                 // obs::metrics() deltas over the whole pass
  std::map<std::string, double> layer;  // per-layer timings of this pass
  std::map<std::string, double> sched;  // profiler samples per phase (traced only)
  std::vector<std::string> fragments;   // whatif_tcp: per-request result fragments
};

struct RunContext {
  std::uint64_t seed = kDefaultSeed;
  std::filesystem::path work_dir;
};

void start_profiler() {
  obs::sched_profiler().reset();
  obs::SchedProfiler::Options opts;
  opts.interval_us = kProfileIntervalUs;
  obs::sched_profiler().start(opts);
}

std::map<std::string, double> stop_profiler() {
  obs::sched_profiler().stop();
  std::map<std::string, double> phases;
  for (const obs::SchedProfiler::Row& row : obs::sched_profiler().report()) {
    phases[obs::sched_phase_name(row.phase)] += static_cast<double>(row.samples);
  }
  return phases;
}

/// The noise process of the simulated machine is the study's seeded input.
sim::MachineSpec study_machine(std::uint64_t seed) {
  sim::MachineSpec machine = sim::system_g();
  machine.noise.enabled = true;
  machine.noise.seed = exec::case_seed(seed, 0);
  return machine;
}

Pass run_study_pass(const StudySpec& spec, const RunContext& ctx, bool traced) {
  Pass pass;
  pass.traced = traced;
  if (traced) start_profiler();
  const Snapshot before = snapshot();

  // Set-up, as in the figure drivers: an empty result cache, the study object
  // (whose constructor calibrates the machine vector with the microbenchmark
  // tools) and the workload fit from small runs. After it the study can
  // answer queries.
  exec::ExecConfig exec_cfg;
  exec_cfg.jobs = kJobs;
  const auto t_setup = Clock::now();
  const std::filesystem::path cache = new_cache_dir(ctx.work_dir);
  exec_cfg.cache_dir = cache.string();
  auto t0 = Clock::now();
  auto study = std::make_unique<analysis::EnergyStudy>(study_machine(ctx.seed),
                                                       spec.adapter(), true, exec_cfg);
  pass.layer["analysis.machine_calibrate_s"] = since(t0);
  const Snapshot after_ctor = snapshot();
  t0 = Clock::now();
  study->calibrate(spec.calib_ns, spec.calib_ps);
  pass.layer["analysis.calibrate_s"] = since(t0);
  pass.setup_s = since(t_setup);
  ++pass.attempted;
  const Snapshot after_setup = snapshot();

  // The queries: validation against simulation at each p (Figs 3-4), then
  // one EE(p, f) surface at the validation size (Figs 5-9).
  Digest digest;
  const auto t_pass = Clock::now();
  double validate_s = 0.0;
  double error_sum = 0.0;
  for (int p : spec.validate_ps) {
    t0 = Clock::now();
    const analysis::ValidationPoint v = study->validate(spec.n, p);
    const double dt = since(t0);
    validate_s += dt;
    pass.measured_s.push_back(dt);
    pass.layer[validate_metric(v.benchmark, p)] = dt;
    ++pass.attempted;
    const double outputs[] = {v.actual_j, v.predicted_j, v.actual_s, v.predicted_s};
    for (double x : outputs) digest.add(x);
    error_sum += v.error_pct;
    if (!std::all_of(std::begin(outputs), std::end(outputs),
                     [](double x) { return std::isfinite(x) && x > 0; })) {
      ++pass.failed;
    }
  }
  t0 = Clock::now();
  const analysis::EeSurface surface = analysis::ee_surface_pf(
      study->machine_params(), study->workload(), spec.n, spec.surface_ps, spec.surface_fs,
      exec_cfg);
  const double surface_s = since(t0);
  pass.wall_s = since(t_pass);
  ++pass.attempted;
  std::size_t points = 0;
  bool surface_ok = true;
  for (const std::vector<double>& row : surface.ee) {
    for (double ee : row) {
      digest.add(ee);
      surface_ok = surface_ok && std::isfinite(ee) && ee > 0.0;
      ++points;
    }
  }
  if (!surface_ok) ++pass.failed;
  const Snapshot after = snapshot();
  if (traced) pass.sched = stop_profiler();

  pass.layer["analysis.validate_s"] = validate_s;
  pass.layer["analysis.energy_error_pct"] =
      error_sum / static_cast<double>(spec.validate_ps.size());
  pass.layer["analysis.surface_s"] = surface_s;
  pass.layer["model.points_per_s"] = static_cast<double>(points) / surface_s;
  pass.queries = static_cast<double>(spec.validate_ps.size() + 1);
  pass.counts = delta(before, after);
  pass.timed_events = after.at("sim.events") - after_setup.at("sim.events");
  const double sim_events = after.at("sim.events") - after_ctor.at("sim.events");
  const double sim_s = pass.layer["analysis.calibrate_s"] + validate_s;
  pass.layer["sim.host_ns_per_event"] = sim_s * 1e9 / std::max(1.0, sim_events);
  pass.digest = digest.value();
  study.reset();
  std::filesystem::remove_all(cache);
  return pass;
}

// --- the what-if service over TCP ----------------------------------------------------

/// A blocking line-oriented client connection; it reads every reply.
class Connection {
 public:
  explicit Connection(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
  }
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  std::string roundtrip(const std::string& line) {
    const std::string out = line + "\n";
    std::size_t off = 0;
    while (off < out.size()) {
      const ssize_t n = ::send(fd_, out.data() + off, out.size() - off, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("short write to the service");
      off += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t newline = buffer_.find('\n', scanned_);
      if (newline != std::string::npos) {
        std::string response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return response;
      }
      scanned_ = buffer_.size();
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n <= 0) throw std::runtime_error("the service closed the connection");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
  std::size_t scanned_ = 0;
};

struct Request {
  enum Kind { kModel, kMeasured } kind;
  std::string line;
};

/// The seeded pool of distinct small EP/CG measured points. Each slot fixes
/// the app and p and draws n from a narrow band, so every seed's pool costs
/// about the same to simulate; the CG slots share one p, so the slowest
/// simulations, which set measured_p99_ms, cost about the same as each other.
std::vector<std::string> measured_pool(std::uint64_t seed) {
  struct Slot {
    const char* app;
    int p;
    double n0, step;
  };
  static const Slot kSlots[] = {{"EP", 1, 36000, 1000}, {"CG", 4, 1400, 20},
                                {"EP", 2, 36000, 1000}, {"CG", 4, 1400, 20},
                                {"EP", 4, 36000, 1000}, {"CG", 4, 1400, 20}};
  util::Xoshiro256 rng(exec::case_seed(seed, ~0ULL));
  std::set<std::string> seen;
  std::vector<std::string> pool;
  while (pool.size() < static_cast<std::size_t>(kMeasuredPool)) {
    const Slot& slot = kSlots[pool.size() % std::size(kSlots)];
    const double n = slot.n0 + slot.step * static_cast<double>(rng() % 9);
    const std::string params = R"({"machine":"system_g","app":")" +
                               std::string(slot.app) + R"(","n":)" +
                               service::json_num(n) + R"(,"p":)" +
                               std::to_string(slot.p) + R"(,"measured":true})";
    if (seen.insert(params).second) pool.push_back(params);
  }
  return pool;
}

/// The 70/10/10/10 predict/optimize/iso_contour/measured mix of
/// bench/service_load, with measured queries drawn from the seeded pool.
std::vector<Request> request_stream(std::uint64_t seed) {
  static const char* kMachines[] = {"system_g", "dori"};
  static const char* kApps[] = {"EP", "FT", "CG", "IS"};
  const std::vector<std::string> pool = measured_pool(seed);
  std::vector<Request> out;
  for (int i = 0; i < kRequestsPerPass; ++i) {
    util::Xoshiro256 rng(exec::case_seed(seed, static_cast<std::uint64_t>(i)));
    const double roll = rng.uniform();
    const std::string id = std::to_string(i);
    const std::string machine = kMachines[rng() % 2];
    const std::string app = kApps[rng() % 4];
    const double n = 1e5 * std::pow(10.0, 3.0 * rng.uniform());
    const int p = 1 << (rng() % 9);
    const std::string head = R"({"id":)" + id + R"(,"method":")";
    const std::string target = R"("machine":")" + machine + R"(","app":")" + app + "\"";
    Request r{Request::kModel, ""};
    if (roll < 0.70) {
      r.line = head + R"(predict","params":{)" + target + R"(,"n":)" +
               service::json_num(n) + R"(,"p":)" + std::to_string(p) + "}}";
    } else if (roll < 0.80) {
      const bool cap = (rng() % 2) == 0;
      r.line = head + R"(optimize","params":{)" + target + R"(,"n":)" +
               service::json_num(n) + R"(,"objective":")" +
               (cap ? "min_time_under_cap" : "min_energy_under_deadline") + "\"," +
               (cap ? R"("cap_w":)" + service::json_num(500.0 + 4000.0 * rng.uniform())
                    : R"("deadline_s":)" + service::json_num(0.05 + rng.uniform())) +
               "}}";
    } else if (roll < 0.90) {
      r.line = head + R"(iso_contour","params":{)" + target + R"(,"target_ee":)" +
               service::json_num(0.3 + 0.6 * rng.uniform()) + R"(,"ps":[2,4,8,16]}})";
    } else {
      r.kind = Request::kMeasured;
      r.line = head + R"(predict","params":)" + pool[rng() % pool.size()] + "}";
    }
    out.push_back(std::move(r));
  }
  return out;
}

/// The part of a response that must be deterministic: everything from
/// `"result":` / `"error":` on (tier and coalesced depend on timing).
std::string stable_fragment(const std::string& response) {
  std::size_t pos = response.find("\"result\":");
  if (pos == std::string::npos) pos = response.find("\"error\":");
  return pos == std::string::npos ? response : response.substr(pos);
}

bool response_ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

struct Reply {
  std::string response;  // empty when the request went unanswered
  double latency_s = 0.0;
};

Pass run_whatif_pass(const std::vector<Request>& stream, const RunContext& ctx,
                     bool traced) {
  Pass pass;
  pass.traced = traced;
  if (traced) start_profiler();
  const Snapshot before = snapshot();

  // Set-up: an empty cache, a service listening on an ephemeral port, and the
  // client's connection. One closed-loop client: with a second one, its
  // model-tier requests ran beside the first one's simulations and their
  // p99 followed the host's load.
  std::vector<Reply> replies(stream.size());
  const auto t_setup = Clock::now();
  const std::filesystem::path cache = new_cache_dir(ctx.work_dir);
  service::ServiceConfig config;
  config.jobs = kServiceJobs;
  config.cache_dir = cache.string();
  service::Service service(config);
  service::TcpServer server(service, 0);
  std::thread serving([&server] { server.serve(); });
  try {
    Connection conn(server.port());
    pass.setup_s = since(t_setup);
    const auto t_pass = Clock::now();
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto t0 = Clock::now();
      replies[i].response = conn.roundtrip(stream[i].line);
      replies[i].latency_s = since(t0);
    }
    pass.wall_s = since(t_pass);
  } catch (const std::exception& e) {
    // The connection is unusable; unanswered requests count as failed below.
    std::printf("FAILED: whatif_tcp client: %s\n", e.what());
  }
  const Snapshot after = snapshot();
  if (traced) pass.sched = stop_profiler();

  // A well-behaved caller: the client's connection is closed; now ask for
  // shutdown.
  try {
    Connection control(server.port());
    control.roundtrip(R"({"method":"shutdown"})");
  } catch (const std::exception& e) {
    std::printf("FAILED: shutdown request: %s\n", e.what());
    ++pass.failed;
  }
  serving.join();

  Digest digest;
  pass.fragments.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Reply& r = replies[i];
    ++pass.attempted;
    const bool ok = response_ok(r.response);
    if (!ok) ++pass.failed;
    pass.fragments.push_back(stable_fragment(r.response));
    digest.add(pass.fragments.back());
    if (ok) {
      (stream[i].kind == Request::kModel ? pass.model_s : pass.measured_s)
          .push_back(r.latency_s);
    }
  }
  pass.digest = digest.value();
  pass.queries = static_cast<double>(stream.size());
  pass.counts = delta(before, after);
  pass.timed_events = pass.counts.at("sim.events");
  pass.layer["sim.host_ns_per_event"] =
      pass.wall_s * 1e9 / std::max(1.0, pass.timed_events);

  if (traced) {
    // The same stream in-process against the now-warm service: model-tier
    // and cache-tier cost without the transport.
    std::vector<double> model_us;
    std::vector<double> cache_us;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      const auto t0 = Clock::now();
      const std::string response = service.handle_line(stream[i].line);
      const double us = since(t0) * 1e6;
      if (stable_fragment(response) != pass.fragments[i]) ++pass.failed;
      (stream[i].kind == Request::kModel ? model_us : cache_us).push_back(us);
    }
    pass.layer["service.handle_p50_us.model"] = median(model_us);
    pass.layer["service.handle_p50_us.cache"] = median(cache_us);
    pass.layer["service.transport_p50_us"] =
        median(pass.model_s) * 1e6 - median(model_us);
    pass.layer["service.transport_p99_us"] =
        quantile(pass.model_s, 0.99) * 1e6 - quantile(model_us, 0.99);
  }
  std::filesystem::remove_all(cache);
  return pass;
}

// --- the FFT probe ---------------------------------------------------------------------

/// Host ns per point of npb::fft1d over lines of FT's lengths (the grid sides
/// study_ft's runs use). Checks that the inverse transform restores the input.
double fft_probe_ns_per_point(const StudySpec& spec, std::uint64_t seed, bool* ok) {
  std::set<std::size_t> lengths;
  auto side = [](double n) {
    return static_cast<std::size_t>(std::lround(std::cbrt(n)));
  };
  for (double n : spec.calib_ns) lengths.insert(side(n));
  lengths.insert(side(spec.n));
  constexpr std::size_t kPoints = 1 << 19;
  util::Xoshiro256 rng(exec::case_seed(seed, 1));
  std::vector<std::complex<double>> input(kPoints);
  for (auto& z : input) z = {rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)};
  std::vector<double> reps;
  for (int rep = 0; rep < 5; ++rep) {
    double ns = 0.0;
    std::size_t points = 0;
    for (std::size_t len : lengths) {
      std::vector<std::complex<double>> data = input;
      const std::span<std::complex<double>> all(data);
      const auto t0 = Clock::now();
      for (std::size_t off = 0; off + len <= kPoints; off += len) {
        npb::fft1d(all.subspan(off, len), false);
      }
      ns += since(t0) * 1e9;
      points += kPoints;
      for (std::size_t off = 0; off + len <= kPoints; off += len) {
        npb::fft1d(all.subspan(off, len), true);
      }
      const double scale = 1.0 / static_cast<double>(len);
      for (std::size_t i = 0; i < kPoints; ++i) {
        if (std::abs(data[i] * scale - input[i]) > 1e-9) *ok = false;
      }
    }
    reps.push_back(ns / static_cast<double>(points));
  }
  return median(reps);
}

// --- the run --------------------------------------------------------------------------

struct Golden {
  std::map<std::string, std::string> entries;  // "<workload> <seed>" -> hex digest

  static Golden load(const std::string& path) {
    Golden g;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream fields(line);
      std::string workload, seed, digest;
      if (line.empty() || line[0] == '#') continue;
      if (fields >> workload >> seed >> digest) g.entries[workload + " " + seed] = digest;
    }
    return g;
  }

  bool save(const std::string& path) const {
    std::ofstream out(path);
    out << "# workload seed digest (perfbench golden digests; rewrite with run.py "
           "--record-golden)\n";
    for (const auto& [key, digest] : entries) out << key << " " << digest << "\n";
    return static_cast<bool>(out);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = kRunSeconds;
  bool trace = false;
  std::string golden;
  bool record_golden = false;
  std::string work_dir;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: isoee_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--golden FILE] [--record-golden] "
               "[--work-dir DIR] | --manifest\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& s, const char* flag) {
  std::size_t used = 0;
  unsigned long long v = 0;
  try {
    v = std::stoull(s, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != s.size()) {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

std::string manifest() {
  std::ostringstream out;
  out << "{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n"
      << "  \"paths\": [\"perfbench\"],\n  \"run_seconds\": " << kRunSeconds << ",\n"
      << "  \"workloads\": [\n";
  const std::size_t nw = std::size(kWorkloads);
  for (std::size_t i = 0; i < nw; ++i) {
    out << "    {\"name\": " << json_str(kWorkloads[i].name)
        << ", \"why\": " << json_str(kWorkloads[i].why) << "}" << (i + 1 < nw ? "," : "")
        << "\n";
  }
  out << "  ],\n  \"end_to_end\": [\n";
  const auto& e2e = end_to_end_metrics();
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    out << "    {\"name\": " << json_str(e2e[i].name)
        << ", \"unit\": " << json_str(e2e[i].unit)
        << ", \"better\": " << json_str(e2e[i].better) << ", \"bound\": " << e2e[i].bound
        << "}" << (i + 1 < e2e.size() ? "," : "") << "\n";
  }
  out << "  ],\n  \"per_layer\": [\n";
  const auto& layer = per_layer_metrics();
  for (std::size_t i = 0; i < layer.size(); ++i) {
    // Counts and shares say nothing about better or worse on their own; the
    // direction that serves the user is the one that lowers host time.
    const bool higher = layer[i].name == "model.points_per_s" ||
                        layer[i].name == "exec.cache_hit_ratio" ||
                        layer[i].name == "exec.cache_hits";
    out << "    {\"name\": " << json_str(layer[i].name)
        << ", \"unit\": " << json_str(layer[i].unit)
        << ", \"better\": " << (higher ? "\"higher\"" : "\"lower\"") << "}"
        << (i + 1 < layer.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

/// Operations that broke the repeat invariant: every pass does the same work,
/// so digests and exact counts must repeat.
std::uint64_t repeat_mismatches(const std::vector<Pass>& passes) {
  std::uint64_t mismatches = 0;
  const Pass& first = passes.front();
  for (std::size_t k = 1; k < passes.size(); ++k) {
    const Pass& p = passes[k];
    if (p.digest != first.digest) {
      std::printf("MISMATCH: pass %zu digest %s != %s\n", k, hex64(p.digest).c_str(),
                  hex64(first.digest).c_str());
      ++mismatches;
    }
    for (const Probe& probe : kProbes) {
      if (!probe.exact) continue;
      const double got = count_of(p.counts, probe.metric);
      const double want = count_of(first.counts, probe.metric);
      if (got != want) {
        std::printf("MISMATCH: pass %zu exact count %s %s != %s\n", k, probe.metric,
                    g17(got).c_str(), g17(want).c_str());
        ++mismatches;
      }
    }
  }
  return mismatches;
}

/// Checks (or with --record-golden, records) the digest against --golden.
/// The default seed must have a recorded digest; other seeds are checked
/// when one was recorded.
std::uint64_t golden_mismatches(const Options& opt, const std::string& digest) {
  if (opt.golden.empty()) return 0;
  Golden golden = Golden::load(opt.golden);
  const std::string key = opt.workload + " " + std::to_string(opt.seed);
  if (opt.record_golden) {
    golden.entries[key] = digest;
    if (golden.save(opt.golden)) return 0;
    std::printf("MISMATCH: cannot write %s\n", opt.golden.c_str());
    return 1;
  }
  const auto it = golden.entries.find(key);
  if (it == golden.entries.end()) {
    if (opt.seed != kDefaultSeed) return 0;
    std::printf("MISMATCH: no recorded digest for %s\n", key.c_str());
    return 1;
  }
  if (it->second == digest) return 0;
  std::printf("MISMATCH: digest %s != recorded %s\n", digest.c_str(), it->second.c_str());
  return 1;
}

/// One reported metric; `samples` is the count behind a median or percentile.
struct Value {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

template <typename F>
std::vector<double> per_pass(const std::vector<Pass>& passes, F field) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(field(p));
  return v;
}

/// A latency percentile in ms: the median over passes of each pass's own
/// percentile, so a host hiccup that slows a few passes does not set it.
double percentile_ms(const std::vector<Pass>& passes, std::vector<double> Pass::*field,
                     double q) {
  return median(per_pass(passes, [&](const Pass& p) { return quantile(p.*field, q); })) *
         1e3;
}

std::vector<Value> end_to_end_values(const std::vector<Pass>& passes) {
  std::size_t measured = 0;
  for (const Pass& p : passes) measured += p.measured_s.size();
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  const std::size_t n = passes.size();
  const std::map<std::string, std::pair<double, std::size_t>> v = {
      {"setup_s", {median(per_pass(passes, [](const Pass& p) { return p.setup_s; })), n}},
      {"wall_s", {median(per_pass(passes, [](const Pass& p) { return p.wall_s; })), n}},
      {"peak_rss_mb", {static_cast<double>(ru.ru_maxrss) / 1024.0, 0}},
      {"events_per_s",
       {median(per_pass(passes, [](const Pass& p) { return p.timed_events / p.wall_s; })),
        n}},
      {"qps",
       {median(per_pass(passes, [](const Pass& p) { return p.queries / p.wall_s; })), n}},
      {"measured_p50_ms", {percentile_ms(passes, &Pass::measured_s, 0.50), measured}},
      {"measured_p99_ms", {percentile_ms(passes, &Pass::measured_s, 0.99), measured}},
  };
  std::vector<Value> out;
  for (const Metric& m : end_to_end_metrics()) {
    out.push_back({m.name, v.at(m.name).first, m.unit, v.at(m.name).second});
  }
  return out;
}

/// Per-layer values from the traced passes; `fft_ns` is the FFT probe's
/// result (0 when the workload runs no FT).
std::vector<Value> per_layer_values(const std::vector<Pass>& untraced,
                                    const std::vector<Pass>& traced, double fft_ns) {
  std::map<std::string, std::pair<double, std::size_t>> v;
  for (const Probe& probe : kProbes) {
    v[probe.metric] = {count_of(traced.front().counts, probe.metric), 0};
  }
  const double hits = v["exec.cache_hits"].first;
  const double lookups = hits + v["exec.cache_misses"].first;
  v["exec.cache_hit_ratio"] = {lookups > 0 ? hits / lookups : 0.0, 0};

  std::set<std::string> timed;
  for (const Pass& p : traced) {
    for (const auto& [name, value] : p.layer) timed.insert(name);
  }
  for (const std::string& name : timed) {
    v[name] = {median(per_pass(traced,
                               [&](const Pass& p) {
                                 const auto it = p.layer.find(name);
                                 return it == p.layer.end() ? 0.0 : it->second;
                               })),
               traced.size()};
  }

  std::map<std::string, double> phases;
  double samples = 0.0;
  for (const Pass& p : traced) {
    for (const auto& [phase, n] : p.sched) {
      phases[phase] += n;
      samples += n;
    }
  }
  for (const char* phase : {"fiber_run", "heap_dispatch", "mailbox_wait", "idle"}) {
    v[std::string("sim.sched.") + phase + "_pct"] = {
        samples > 0 ? 100.0 * phases[phase] / samples : 0.0,
        static_cast<std::size_t>(samples)};
  }
  v["npb.fft1d_ns_per_point"] = {fft_ns, 0};
  auto wall = [](const Pass& p) { return p.wall_s; };
  const double wall_u = median(per_pass(untraced, wall));
  const double wall_t = median(per_pass(traced, wall));
  v["trace.overhead_pct"] = {100.0 * (wall_t - wall_u) / wall_u, 0};

  std::vector<Value> out;
  for (const LayerMetric& m : per_layer_metrics()) {
    const auto it = v.find(m.name);  // absent: the workload does not exercise it
    out.push_back({m.name, it == v.end() ? 0.0 : it->second.first, m.unit,
                   it == v.end() ? 0 : it->second.second});
  }
  return out;
}

int run(const Options& opt) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads) {
    if (opt.workload == w.name) info = &w;
  }
  if (info == nullptr) usage(("unknown workload " + opt.workload).c_str());
  const StudySpec* study = nullptr;
  for (const StudySpec& s : study_specs()) {
    if (opt.workload == s.workload) study = &s;
  }

  RunContext ctx;
  ctx.seed = opt.seed;
  ctx.work_dir = opt.work_dir.empty()
                     ? std::filesystem::path(".bench_build") /
                           ("perfbench-work-" + std::to_string(::getpid()))
                     : std::filesystem::path(opt.work_dir);
  const int nproc = host_nproc();
  sim::set_default_engine_workers(kEngineWorkers);
  std::filesystem::create_directories(ctx.work_dir);

  std::printf("perfbench: workload=%s seed=%llu seconds=%g trace=%d\n", info->name,
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("settings: nproc=%d build=%s jobs=%d engine_workers=%d service_jobs=%d "
              "clients=1 requests_per_pass=%d measured_pool=%d\n",
              nproc, PERFBENCH_BUILD_TYPE, kJobs, kEngineWorkers, kServiceJobs,
              kRequestsPerPass, kMeasuredPool);

  std::vector<Request> stream;
  if (study == nullptr) stream = request_stream(opt.seed);

  // Passes until --seconds elapse; a traced run alternates untraced and traced
  // passes so the tracing overhead is measured under the same conditions.
  std::vector<Pass> passes;
  const auto t_run = Clock::now();
  const std::size_t min_passes = opt.trace ? 2 : 1;
  while (passes.size() < min_passes || since(t_run) < opt.seconds) {
    const bool traced = opt.trace && passes.size() % 2 == 1;
    Pass pass;
    try {
      pass = study != nullptr ? run_study_pass(*study, ctx, traced)
                              : run_whatif_pass(stream, ctx, traced);
    } catch (const std::exception& e) {
      std::printf("FAILED: pass %zu: %s\n", passes.size(), e.what());
      pass.traced = traced;
      pass.attempted = pass.failed = 1;
    }
    // Each request whose answer differs from the first pass's is a failure;
    // only the first pass keeps its answers, as the reference.
    if (!passes.empty()) {
      const std::vector<std::string>& reference = passes.front().fragments;
      for (std::size_t i = 0; i < pass.fragments.size() && i < reference.size(); ++i) {
        if (pass.fragments[i] != reference[i]) ++pass.failed;
      }
      pass.fragments = {};
    }
    std::printf("pass %zu%s: setup %.4fs wall %.4fs digest %s failed %llu/%llu\n",
                passes.size(), traced ? " (traced)" : "", pass.setup_s,
                pass.wall_s, hex64(pass.digest).c_str(),
                static_cast<unsigned long long>(pass.failed),
                static_cast<unsigned long long>(pass.attempted));
    passes.push_back(std::move(pass));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Pass& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
  }
  const std::string digest = hex64(passes.front().digest);
  failed += repeat_mismatches(passes);
  failed += golden_mismatches(opt, digest);

  std::vector<Pass> untraced;
  std::vector<Pass> traced;
  for (Pass& p : passes) (p.traced ? traced : untraced).push_back(std::move(p));
  std::vector<Value> values;
  if (!opt.trace) {
    values = end_to_end_values(untraced);
  } else {
    double fft_ns = 0.0;
    if (study != nullptr && kernel_of(*study) == "FT") {
      bool fft_ok = true;
      fft_ns = fft_probe_ns_per_point(*study, opt.seed, &fft_ok);
      ++attempted;
      if (!fft_ok) {
        std::printf("MISMATCH: fft1d inverse does not restore its input\n");
        ++failed;
      }
    }
    values = per_layer_values(untraced, traced, fft_ns);
  }
  std::filesystem::remove_all(ctx.work_dir);

  std::printf("failed_frac = %s (%llu/%llu)\n",
              g17(static_cast<double>(failed) / static_cast<double>(attempted)).c_str(),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  std::printf("digest = %s\n", digest.c_str());
  std::string metrics_json;
  for (const Value& v : values) {
    std::printf("%-36s %s %s", v.name.c_str(), g17(v.value).c_str(), v.unit.c_str());
    if (v.samples > 0) std::printf(" (n=%zu)", v.samples);
    std::printf("\n");
    if (!metrics_json.empty()) metrics_json += ", ";
    metrics_json += json_str(v.name) + ": {\"value\": " +
                    g17(std::isfinite(v.value) ? v.value : 0.0) +
                    ", \"unit\": " + json_str(v.unit) + "}";
  }
  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::set_log_level(util::LogLevel::kWarn);
  Options opt;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--manifest") {
      std::fputs(manifest().c_str(), stdout);
      return 0;
    } else if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = parse_u64(value(), "--seed");
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = static_cast<double>(parse_u64(value(), "--seconds"));
      have_seconds = true;
    } else if (arg == "--trace") {
      const std::string t = value();
      if (t != "0" && t != "1") usage("--trace takes 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (arg == "--golden") {
      opt.golden = value();
    } else if (arg == "--record-golden") {
      opt.record_golden = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds and --trace are required");
  }
  return run(opt);
}
