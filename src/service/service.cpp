#include "service/service.hpp"

#include <chrono>
#include <cmath>
#include <map>
#include <span>
#include <utility>
#include <vector>

#include "analysis/policy.hpp"
#include "analysis/study.hpp"
#include "benchtools/calibrate.hpp"
#include "model/isocontour.hpp"
#include "model/model.hpp"
#include "model/serialize.hpp"
#include "obs/drift.hpp"
#include "obs/obs.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"
#include "util/log.hpp"

namespace isoee::service {

namespace {

struct ServiceMetrics {
  obs::Counter& requests = obs::metrics().counter("service.requests");
  obs::Counter& errors = obs::metrics().counter("service.errors");
  obs::Counter& tier_model = obs::metrics().counter("service.tier_model");
  obs::Counter& tier_cache = obs::metrics().counter("service.tier_cache");
  obs::Counter& tier_sim = obs::metrics().counter("service.tier_sim");
  obs::Histogram& latency_model_s =
      obs::metrics().histogram("service.latency_model_s", obs::default_time_buckets_s());
  obs::Histogram& latency_cache_s =
      obs::metrics().histogram("service.latency_cache_s", obs::default_time_buckets_s());
  obs::Histogram& latency_sim_s =
      obs::metrics().histogram("service.latency_sim_s", obs::default_time_buckets_s());

  static ServiceMetrics& get() {
    static ServiceMetrics m;
    return m;
  }
};

[[noreturn]] void fail(ErrorCode code, const std::string& message) {
  throw RequestError(code, message);
}

sim::MachineSpec spec_for(const std::string& name) {
  try {
    return sim::machine_preset(name);
  } catch (const std::invalid_argument& e) {
    fail(ErrorCode::kUnknownMachine, e.what());
  }
}

std::unique_ptr<analysis::BenchmarkAdapter> adapter_for(const std::string& app) {
  try {
    return analysis::make_adapter(app);
  } catch (const std::invalid_argument& e) {
    fail(ErrorCode::kUnknownApp, e.what());
  }
}

/// Stock fitted models (the workloads.hpp defaults) for the apps whose
/// coefficients ship pre-fitted. MG/CKPT/SWEEP default to all-zero fitted
/// coefficients, so they have no stock model — calibrate first.
std::shared_ptr<const model::WorkloadModel> stock_workload(const std::string& app) {
  static const std::map<std::string, std::shared_ptr<const model::WorkloadModel>> stock = {
      {"EP", std::make_shared<const model::EpWorkload>()},
      {"FT", std::make_shared<const model::FtWorkload>()},
      {"CG", std::make_shared<const model::CgWorkload>()},
      {"IS", std::make_shared<const model::IsWorkload>()}};
  const auto it = stock.find(app);
  return it == stock.end() ? nullptr : it->second;
}

bool is_pow2(int p) { return p >= 1 && (p & (p - 1)) == 0; }

/// FT and MG decompose on power-of-two grids; other p values would make the
/// backing simulation throw, so they are rejected up front as a client error.
void require_valid_sim_point(const std::string& app, const sim::MachineSpec& spec, int p) {
  if (p > spec.total_cores()) {
    fail(ErrorCode::kInvalidParams, "p exceeds " + spec.name + "'s " +
                                        std::to_string(spec.total_cores()) + " cores");
  }
  if ((app == "FT" || app == "MG") && !is_pow2(p)) {
    fail(ErrorCode::kInvalidParams, "app '" + app + "' requires a power-of-two p");
  }
}

std::string json_field(const char* key, double v) {
  return std::string("\"") + key + "\":" + json_num(v);
}

std::string json_field(const char* key, std::uint64_t v) {
  return std::string("\"") + key + "\":" + std::to_string(v);
}

/// Power-of-two processor counts 2..cap (the default search grid for the
/// optimize / iso_contour sweeps when the request names no `ps`).
std::vector<int> pow2_ps(int cap) {
  std::vector<int> ps;
  for (int p = 2; p <= cap; p *= 2) ps.push_back(p);
  if (ps.empty()) ps.push_back(1);
  return ps;
}

double host_now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

/// Runs a study plan as one scheduler job and folds its results. The job's
/// coalescing key is its cases' content addresses: equal keys, equal work.
template <class T>
T run_job(SimScheduler& scheduler, analysis::Plan<T> plan, std::string* tier,
          bool* coalesced) {
  std::string key;
  for (const exec::Case& c : plan.cases) key += c.cache_key + '\x1e';
  SimScheduler::Ticket ticket = scheduler.submit(key, std::move(plan.cases));
  if (ticket.rejected) {
    fail(ErrorCode::kOverloaded, "simulation queue is full; retry later");
  }
  *coalesced = ticket.coalesced;
  const Outcome& outcome = ticket.result.get();
  *tier = outcome.simulated ? "sim" : "cache";
  try {
    return plan.fold(outcome.results);
  } catch (const std::exception& e) {
    fail(ErrorCode::kSimFailed, e.what());
  }
}

}  // namespace

Service::Service(ServiceConfig config) : config_(std::move(config)) {
  SchedulerConfig sched;
  sched.jobs = config_.jobs;
  sched.max_pending = config_.max_pending;
  sched.cache_dir = config_.cache_dir;
  sched.cache_max_bytes = config_.cache_max_bytes;
  scheduler_ = std::make_unique<SimScheduler>(sched);
}

Service::~Service() = default;

std::string Service::handle_line(const std::string& line) {
  ServiceMetrics& metrics = ServiceMetrics::get();
  metrics.requests.inc();
  const double t0 = host_now_s();
  std::string id_json = "null";
  std::string method = "?";
  std::string tier = "model";
  std::string response;
  try {
    const Request req = parse_request(line, &id_json);
    id_json = req.id_json;
    bool coalesced = false;
    std::string fragment;
    switch (req.method) {
      case Method::kPredict:
        method = "predict";
        fragment = handle_predict(req, &tier, &coalesced);
        break;
      case Method::kCalibrate:
        method = "calibrate";
        fragment = handle_calibrate(req, &tier, &coalesced);
        break;
      case Method::kOptimize:
        method = "optimize";
        fragment = handle_optimize(req);
        break;
      case Method::kIsoContour:
        method = "iso_contour";
        fragment = handle_iso_contour(req);
        break;
      case Method::kInstall:
        method = "install";
        fragment = handle_install(req);
        break;
      case Method::kStats:
        method = "stats";
        fragment = handle_stats();
        break;
      case Method::kMetrics:
        method = "metrics";
        fragment = handle_metrics();
        break;
      case Method::kShutdown:
        method = "shutdown";
        shutdown_.store(true);
        fragment = "{\"stopping\":true}";
        break;
    }
    response = render_ok(id_json, tier, coalesced, fragment);
    if (tier == "model") {
      metrics.tier_model.inc();
    } else if (tier == "cache") {
      metrics.tier_cache.inc();
    } else {
      metrics.tier_sim.inc();
    }
  } catch (const RequestError& e) {
    metrics.errors.inc();
    tier = "error";
    response = render_error(id_json, e.code(), e.what());
  } catch (const std::exception& e) {
    metrics.errors.inc();
    tier = "error";
    response = render_error(id_json, ErrorCode::kInternal, e.what());
  }

  const double dur = host_now_s() - t0;
  if (tier == "sim") {
    metrics.latency_sim_s.observe(dur);
  } else if (tier == "cache") {
    metrics.latency_cache_s.observe(dur);
  } else if (tier == "model") {
    metrics.latency_model_s.observe(dur);
  }
  // Per-method × per-tier latency ("error" counts as a tier here: failed
  // requests should not pollute the success distributions). The name lookup
  // takes the registry mutex, which is fine at request granularity.
  obs::metrics()
      .histogram("service.latency_s." + method + "." + tier,
                 obs::default_time_buckets_s())
      .observe(dur);
  if (config_.slow_request_s > 0.0 && dur > config_.slow_request_s) {
    ISOEE_WARN("service: slow request method=%s tier=%s dur_ms=%.3f id=%s",
               method.c_str(), tier.c_str(), dur * 1e3, id_json.c_str());
  }
  // Service spans run on *host* time (there is no virtual clock spanning
  // requests); they land under cat "service" so trace tooling can tell them
  // apart from the simulators' virtual-time spans.
  if (obs::TraceSink* sink = obs::global_sink()) {
    obs::emit_span(*sink, 0, "service", method, t0, dur, {obs::arg_str("tier", tier)});
  }
  return response;
}

Service::Calibration Service::resolve_model(const Request& req) const {
  const sim::MachineSpec spec = spec_for(req.machine);
  (void)adapter_for(req.app);  // validates the app name
  if (req.calibrated) {
    std::lock_guard<std::mutex> lock(cal_mu_);
    const auto it = calibrations_.find(req.machine + '\x1f' + req.app);
    if (it == calibrations_.end()) {
      fail(ErrorCode::kNotCalibrated,
           "no calibration for (" + req.machine + ", " + req.app + "); call calibrate first");
    }
    return it->second;
  }
  Calibration cal;
  cal.machine = tools::nominal_machine_params(spec);
  cal.workload = stock_workload(req.app);
  if (cal.workload == nullptr) {
    fail(ErrorCode::kNotCalibrated,
         "app '" + req.app + "' ships no stock model; calibrate it, then pass calibrated:true");
  }
  return cal;
}

std::string Service::handle_predict(const Request& req, std::string* tier, bool* coalesced) {
  if (!req.measured) {
    const Calibration cal = resolve_model(req);
    const double f = req.f_ghz > 0.0 ? req.f_ghz : cal.machine.base_ghz;
    const model::IsoEnergyModel m(cal.machine.at_frequency(f));
    const model::AppParams app = cal.workload->at(req.n, req.p);
    const model::PerfPrediction perf = m.predict_performance(app);
    const model::EnergyPrediction energy = m.predict_energy(app);
    return "{" + json_field("n", req.n) + "," + json_field("p", double(req.p)) + "," +
           json_field("f_ghz", f) + "," + json_field("T1", perf.T1) + "," +
           json_field("Tp", perf.Tp) + "," + json_field("T_net", perf.T_net) + "," +
           json_field("speedup", perf.speedup) + "," +
           json_field("perf_efficiency", perf.perf_efficiency) + "," +
           json_field("E1", energy.E1) + "," + json_field("Ep", energy.Ep) + "," +
           json_field("Eo", energy.Eo) + "," + json_field("EEF", energy.EEF) + "," +
           json_field("EE", energy.EE) + "}";
  }

  // Measured tier: one full simulation through the scheduler (coalesced,
  // admission-controlled, warm-cache short-circuited inside run_batch) —
  // the same case, and cache entry, as analysis::EnergyStudy::validate.
  const sim::MachineSpec spec = spec_for(req.machine);
  std::shared_ptr<const analysis::BenchmarkAdapter> adapter = adapter_for(req.app);
  require_valid_sim_point(req.app, spec, req.p);
  const double f = req.f_ghz > 0.0 ? req.f_ghz : spec.cpu.base_ghz;
  const analysis::Measurement actual = run_job(
      *scheduler_, analysis::measure_plan(spec, std::move(adapter), req.n, req.p, f), tier,
      coalesced);

  // A measured request is the one place a live service produces both a
  // closed-form prediction and a simulated actual for the same operating
  // point — feed the pair to the drift watchdog when a model is resolvable
  // (cache-tier answers included: the model may have drifted since the
  // simulation was cached).
  try {
    const Calibration cal = resolve_model(req);
    const model::IsoEnergyModel m(cal.machine.at_frequency(f));
    const model::AppParams app = cal.workload->at(actual.n, req.p);
    const model::PerfPrediction perf = m.predict_performance(app);
    const model::EnergyPrediction energy = m.predict_energy(app);
    obs::drift().record({req.machine, req.app, req.p, f, "energy_j"}, energy.Ep,
                        actual.energy_j);
    obs::drift().record({req.machine, req.app, req.p, f, "time_s"}, perf.Tp, actual.time_s);
  } catch (const RequestError&) {
    // No stock or fitted model for this app: nothing to compare against.
  }

  return "{" + json_field("n", actual.n) + "," + json_field("p", double(req.p)) + "," +
         json_field("f_ghz", f) + "," + json_field("energy_j", actual.energy_j) + "," +
         json_field("time_s", actual.time_s) + "," + json_field("alpha", actual.alpha) + "}";
}

std::string Service::handle_calibrate(const Request& req, std::string* tier, bool* coalesced) {
  const sim::MachineSpec spec = spec_for(req.machine);
  std::shared_ptr<const analysis::BenchmarkAdapter> adapter = adapter_for(req.app);
  std::vector<double> ns = req.ns;
  if (ns.empty()) {
    const double d = adapter->default_n();
    ns = {d / 4.0, d / 2.0, d};
  }
  std::vector<int> ps = req.ps;
  if (ps.empty()) ps = {2, 4};
  for (int p : ps) require_valid_sim_point(req.app, spec, p);

  // The machine-vector case plus the counter-sample cases: the same cases,
  // and cache entries, as analysis::EnergyStudy's constructor and calibrate.
  analysis::Plan<analysis::Calibration> plan =
      analysis::calibration_plan(spec, std::move(adapter), ns, ps);
  const std::size_t samples = plan.cases.size() - 1;
  analysis::Calibration fitted = run_job(*scheduler_, std::move(plan), tier, coalesced);
  const std::string machine_text = model::serialize(fitted.machine);
  const std::string workload_text = model::serialize(*fitted.workload);

  Calibration cal;
  cal.machine = std::move(fitted.machine);
  cal.workload = std::shared_ptr<const model::WorkloadModel>(std::move(fitted.workload));
  {
    std::lock_guard<std::mutex> lock(cal_mu_);
    calibrations_[req.machine + '\x1f' + req.app] = cal;
  }
  ISOEE_INFO("service: calibrated (%s, %s) from %zu points", req.machine.c_str(),
             req.app.c_str(), samples);

  return std::string("{\"machine\":\"") + req.machine + "\",\"app\":\"" + req.app + "\"," +
         json_field("samples", static_cast<std::uint64_t>(samples)) +
         ",\"machine_params\":\"" + obs::json_escape(machine_text) + "\",\"workload\":\"" +
         obs::json_escape(workload_text) + "\"}";
}

std::string Service::handle_optimize(const Request& req) {
  const Calibration cal = resolve_model(req);
  const sim::MachineSpec spec = spec_for(req.machine);
  const double f = req.f_ghz > 0.0 ? req.f_ghz : cal.machine.base_ghz;
  const std::vector<double>& gears = spec.cpu.gears_ghz;
  const std::vector<int> ps =
      req.ps.empty() ? pow2_ps(std::min(spec.total_cores(), 1024)) : req.ps;

  const std::string head = std::string("{\"objective\":\"") + req.objective + "\"," +
                           json_field("n", req.n) + ",";
  if (req.objective == "max_p") {
    const int p = model::max_processors(cal.machine, *cal.workload, req.n, f,
                                        req.target_ee, req.p_max);
    const double ee = model::ee_at(cal.machine, *cal.workload, req.n, p, f);
    return head + json_field("p", double(p)) + "," + json_field("f_ghz", f) + "," +
           json_field("target_ee", req.target_ee) + "," + json_field("ee", ee) + "}";
  }
  if (req.objective == "best_f_ee" || req.objective == "best_f_energy") {
    const double best =
        req.objective == "best_f_ee"
            ? model::best_frequency_for_ee(cal.machine, *cal.workload, req.n, req.p, gears)
            : model::best_frequency_for_energy(cal.machine, *cal.workload, req.n, req.p,
                                               gears);
    const model::IsoEnergyModel m(cal.machine.at_frequency(best));
    const model::EnergyPrediction energy =
        m.predict_energy(cal.workload->at(req.n, req.p));
    return head + json_field("p", double(req.p)) + "," + json_field("f_ghz", best) + "," +
           json_field("energy_j", energy.Ep) + "," + json_field("ee", energy.EE) + "}";
  }

  const analysis::PolicyChoice choice =
      req.objective == "min_time_under_cap"
          ? analysis::best_under_power_cap(cal.machine, *cal.workload, req.n, ps, gears,
                                           req.cap_w)
          : analysis::best_energy_under_deadline(cal.machine, *cal.workload, req.n, ps,
                                                 gears, req.deadline_s);
  return head + json_field("p", double(choice.p)) + "," +
         json_field("f_ghz", choice.f_ghz) + "," + json_field("time_s", choice.time_s) +
         "," + json_field("energy_j", choice.energy_j) + "," +
         json_field("avg_power_w", choice.avg_power_w) + "," +
         json_field("ee", choice.ee) + ",\"feasible\":" +
         (choice.feasible ? "true" : "false") + "}";
}

std::string Service::handle_iso_contour(const Request& req) {
  const Calibration cal = resolve_model(req);
  const sim::MachineSpec spec = spec_for(req.machine);
  const double f = req.f_ghz > 0.0 ? req.f_ghz : cal.machine.base_ghz;
  const std::vector<int> ps =
      req.ps.empty() ? pow2_ps(std::min(spec.total_cores(), 256)) : req.ps;
  const std::vector<model::ContourPoint> contour = model::iso_ee_contour(
      cal.machine, *cal.workload, req.target_ee, ps, f, req.n_lo, req.n_hi);

  std::string out = "{" + json_field("target_ee", req.target_ee) + "," +
                    json_field("f_ghz", f) + ",\"points\":[";
  for (std::size_t i = 0; i < contour.size(); ++i) {
    if (i != 0) out += ',';
    out += "{" + json_field("p", double(contour[i].p)) + "," +
           json_field("n", contour[i].n) + "," + json_field("ee", contour[i].ee) + "}";
  }
  return out + "]}";
}

std::string Service::handle_install(const Request& req) {
  spec_for(req.machine);  // validates the machine name
  (void)adapter_for(req.app);  // validates the app name
  const std::optional<model::MachineParams> mp = model::parse_machine(req.machine_params);
  if (!mp) fail(ErrorCode::kInvalidParams, "param 'machine_params' is not parsable");
  std::unique_ptr<model::WorkloadModel> workload = model::parse_workload(req.workload);
  if (workload == nullptr) fail(ErrorCode::kInvalidParams, "param 'workload' is not parsable");

  Calibration cal;
  cal.machine = *mp;
  cal.workload = std::shared_ptr<const model::WorkloadModel>(std::move(workload));
  {
    std::lock_guard<std::mutex> lock(cal_mu_);
    calibrations_[req.machine + '\x1f' + req.app] = cal;
  }
  ISOEE_INFO("service: installed calibration for (%s, %s)", req.machine.c_str(),
             req.app.c_str());
  return std::string("{\"machine\":\"") + req.machine + "\",\"app\":\"" + req.app +
         "\",\"installed\":true}";
}

std::string Service::handle_metrics() {
  // One compact JSON object per the line-protocol contract: responses are
  // single lines, so this re-renders the snapshot without the pretty-printed
  // newlines write_json uses.
  std::string out = "{";
  const auto snap = obs::metrics().snapshot();
  for (std::size_t i = 0; i < snap.size(); ++i) {
    if (i != 0) out += ',';
    out += "\"" + obs::json_escape(snap[i].name) + "\":{\"kind\":\"" + snap[i].kind +
           "\",\"value\":" + snap[i].value + "}";
  }
  return out + "}";
}

std::string Service::handle_stats() {
  const ServiceMetrics& m = ServiceMetrics::get();
  const exec::ResultCache& cache = scheduler_->cache();
  return "{" + json_field("runs_started", sim::Engine::total_runs_started()) + "," +
         json_field("requests", m.requests.value()) + "," +
         json_field("errors", m.errors.value()) + "," +
         json_field("tier_model", m.tier_model.value()) + "," +
         json_field("tier_cache", m.tier_cache.value()) + "," +
         json_field("tier_sim", m.tier_sim.value()) + "," +
         json_field("coalesced", obs::metrics().counter("service.coalesced").value()) +
         "," + json_field("rejected", obs::metrics().counter("service.rejected").value()) +
         "," + json_field("cache_hits", cache.hits()) + "," +
         json_field("cache_misses", cache.misses()) + "," +
         json_field("cache_stores", cache.stores()) + "," +
         json_field("cache_pruned", cache.pruned()) + "," +
         // Fiber-engine throughput (rank-scale rearchitecture): totals over
         // every simulation this process ran, plus the most recent run's
         // simulated-rank-seconds per host second.
         json_field("engine_ranks_simulated",
                    obs::metrics().counter("engine.ranks_simulated").value()) +
         "," +
         json_field("engine_events_processed",
                    obs::metrics().counter("engine.events_processed").value()) +
         "," +
         json_field("engine_rank_seconds_per_sec",
                    obs::metrics().gauge("engine.rank_seconds_per_sec").value()) +
         "," +
         // Model-drift watchdog (obs::DriftMonitor): degraded while any
         // (machine, app, p, gear, quantity) key's EWMA |relative error|
         // exceeds the configured threshold after min_samples pairs.
         std::string("\"model_health\":\"") +
         (obs::drift().degraded() ? "degraded" : "ok") + "\"," +
         json_field("drift_samples",
                    obs::metrics().counter("drift.samples").value()) +
         "," +
         json_field("drift_degraded_keys",
                    static_cast<std::uint64_t>(obs::drift().degraded_count())) +
         "," +
         json_field("drift_max_ewma_abs_err",
                    obs::metrics().gauge("drift.max_ewma_abs_err").value()) +
         "}";
}

}  // namespace isoee::service
