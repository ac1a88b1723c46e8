#include "analysis/study.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>

#include "exec/cache.hpp"
#include "exec/codec.hpp"
#include "obs/drift.hpp"
#include "sim/engine.hpp"
#include "util/log.hpp"
#include "util/stats.hpp"

namespace isoee::analysis {

namespace {

/// Digest of the collective-stack settings a kernel config carries; part of
/// every adapter fingerprint (algorithm choice changes counters and timing).
/// A set tuning table is summarized by presence only — the study drivers use
/// the stock presets, which are identical whenever this flag is.
std::string collectives_fp(const smpi::CollectiveConfig& c) {
  return std::to_string(static_cast<int>(c.alltoall)) + "," +
         std::to_string(static_cast<int>(c.allreduce)) + "," +
         std::to_string(static_cast<int>(c.bcast)) + "," +
         std::to_string(static_cast<int>(c.allgather)) + "," +
         (c.tuning ? "tuned" : "fixed") + "," + exec::encode_f64(c.comm_gear_ghz);
}

/// Key of one simulated point: `kind` ("calibrate" or "measure") + machine
/// and adapter fingerprints + (n, p, f).
std::string study_key(const char* kind, const std::string& machine_fp,
                      const std::string& adapter_fp, double n, int p, double f_ghz) {
  return std::string(kind) + '\x1f' + machine_fp + '\x1f' + adapter_fp + '\x1f' +
         exec::encode_f64(n) + '\x1f' + std::to_string(p) + '\x1f' + exec::encode_f64(f_ghz);
}

/// Key of the machine-parameter vector: microbenchmark-measured or nominal.
std::string machine_params_key(const std::string& machine_fp, bool measured) {
  return std::string("machine-params\x1f") + machine_fp + '\x1f' +
         (measured ? "measured" : "nominal");
}

/// The payload of a finished case; a failed case's error becomes the throw.
const std::string& payload_of(const exec::CaseResult& r) {
  if (!r.ok()) throw std::runtime_error(r.error);
  return r.payload;
}

std::string encode_machine_params(const model::MachineParams& m) {
  return m.name + '\x1f' +
         exec::encode_doubles({m.cpi, m.f_ghz, m.base_ghz, m.t_m, m.t_s, m.t_w,
                               m.p_sys_idle, m.dp_c_base, m.dp_m, m.dp_io, m.gamma,
                               m.poll_factor, m.f_comm_ghz});
}

model::MachineParams decode_machine_params(const std::string& text) {
  const std::size_t sep = text.find('\x1f');
  if (sep == std::string::npos) throw std::invalid_argument("machine-params entry: no name");
  const std::vector<double> v = exec::decode_doubles(std::string_view(text).substr(sep + 1));
  if (v.size() != 13) throw std::invalid_argument("machine-params entry: wrong arity");
  model::MachineParams m;
  m.name = text.substr(0, sep);
  m.cpi = v[0];
  m.f_ghz = v[1];
  m.base_ghz = v[2];
  m.t_m = v[3];
  m.t_s = v[4];
  m.t_w = v[5];
  m.p_sys_idle = v[6];
  m.dp_c_base = v[7];
  m.dp_m = v[8];
  m.dp_io = v[9];
  m.gamma = v[10];
  m.poll_factor = v[11];
  m.f_comm_ghz = v[12];
  return m;
}

std::string encode_sample(const CounterSample& s) {
  return exec::encode_doubles({s.n, static_cast<double>(s.p), s.instructions,
                               s.mem_accesses, s.mem_time, s.io_time, s.makespan,
                               s.messages, s.bytes, s.alpha});
}

CounterSample decode_sample(const std::string& text) {
  const std::vector<double> v = exec::decode_doubles(text);
  if (v.size() != 10) throw std::invalid_argument("counter-sample entry: wrong arity");
  CounterSample s;
  s.n = v[0];
  s.p = static_cast<int>(v[1]);
  s.instructions = v[2];
  s.mem_accesses = v[3];
  s.mem_time = v[4];
  s.io_time = v[5];
  s.makespan = v[6];
  s.messages = v[7];
  s.bytes = v[8];
  s.alpha = v[9];
  return s;
}

// --- per-kernel pieces ----------------------------------------------------------
//
// What differs between kernels, as overloads on the config type: the name,
// `config_fp` (the kernel's own fingerprint fields), `sized` (the base config
// snapped to problem size ~n on p ranks), `problem_size` (the n a config
// runs) and the workload fit.

using Samples = std::span<const CounterSample>;
using Fitted = std::unique_ptr<model::WorkloadModel>;

const char* kernel_name(const npb::EpConfig&) { return "EP"; }
std::string config_fp(const npb::EpConfig& c) {
  return "trials=" + std::to_string(c.trials) + ";seed=" + exec::encode_f64(c.seed);
}
npb::EpConfig sized(npb::EpConfig c, double n, int) {
  c.trials = static_cast<std::uint64_t>(n);
  return c;
}
double problem_size(const npb::EpConfig& c) { return static_cast<double>(c.trials); }
Fitted fit(const npb::EpConfig&, Samples samples, double t_m) {
  return std::make_unique<model::EpWorkload>(fit_ep_workload(samples, t_m));
}

const char* kernel_name(const npb::FtConfig&) { return "FT"; }
std::string config_fp(const npb::FtConfig& c) {
  return "nx=" + std::to_string(c.nx) + ";ny=" + std::to_string(c.ny) +
         ";nz=" + std::to_string(c.nz) + ";iters=" + std::to_string(c.iters) +
         ";alpha=" + exec::encode_f64(c.evolve_alpha) + ";seed=" + exec::encode_f64(c.seed);
}
/// Snaps n to a power-of-two cubic grid with sides >= p (slab constraint).
npb::FtConfig sized(npb::FtConfig c, double n, int p) {
  int side = 4;
  while (static_cast<double>(side) * side * side * 8.0 <= n && side < 1024) side *= 2;
  // side^3 <= n < (2*side)^3: choose the closer one in log space.
  if (n > 0 && std::log2(n) - 3.0 * std::log2(side) > 1.5) side *= 2;
  while (side < p) side *= 2;  // decomposition requires nx, nz >= p
  c.nx = c.ny = c.nz = side;
  return c;
}
double problem_size(const npb::FtConfig& c) { return static_cast<double>(c.total_points()); }
Fitted fit(const npb::FtConfig& c, Samples samples, double t_m) {
  return std::make_unique<model::FtWorkload>(fit_ft_workload(samples, c.iters, t_m));
}

const char* kernel_name(const npb::CgConfig&) { return "CG"; }
std::string config_fp(const npb::CgConfig& c) {
  return "n=" + std::to_string(c.n) + ";offsets=" + std::to_string(c.offsets) +
         ";outer=" + std::to_string(c.outer) + ";inner=" + std::to_string(c.inner) +
         ";shift=" + exec::encode_f64(c.shift) + ";seed=" + std::to_string(c.seed);
}
npb::CgConfig sized(npb::CgConfig c, double n, int p) {
  c.n = std::max(static_cast<int>(n), 4 * p);
  return c;
}
double problem_size(const npb::CgConfig& c) { return static_cast<double>(c.n); }
Fitted fit(const npb::CgConfig& c, Samples samples, double t_m) {
  return std::make_unique<model::CgWorkload>(
      fit_cg_workload(samples, c.outer, c.inner, 2.0 * c.offsets + 1.0, t_m));
}

const char* kernel_name(const npb::IsConfig&) { return "IS"; }
std::string config_fp(const npb::IsConfig& c) {
  return "nkeys=" + std::to_string(c.n_keys) + ";bits=" + std::to_string(c.key_bits) +
         ";seed=" + exec::encode_f64(c.seed);
}
npb::IsConfig sized(npb::IsConfig c, double n, int) {
  c.n_keys = static_cast<std::uint64_t>(n);
  return c;
}
double problem_size(const npb::IsConfig& c) { return static_cast<double>(c.n_keys); }
Fitted fit(const npb::IsConfig&, Samples samples, double t_m) {
  return std::make_unique<model::IsWorkload>(fit_is_workload(samples, t_m));
}

const char* kernel_name(const npb::MgConfig&) { return "MG"; }
std::string config_fp(const npb::MgConfig& c) {
  return "nx=" + std::to_string(c.nx) + ";ny=" + std::to_string(c.ny) +
         ";nz=" + std::to_string(c.nz) + ";cycles=" + std::to_string(c.cycles) +
         ";pre=" + std::to_string(c.pre_smooth) + ";post=" + std::to_string(c.post_smooth) +
         ";maxlev=" + std::to_string(c.max_levels) + ";seed=" + exec::encode_f64(c.seed);
}
/// Snaps n to a cubic power-of-two grid with nz/p >= 2, and pins the level
/// hierarchy so predictions stay comparable across p.
npb::MgConfig sized(npb::MgConfig c, double n, int p) {
  int side = 8;
  while (static_cast<double>(side) * side * side * 8.0 <= n && side < 1024) side *= 2;
  if (n > 0 && std::log2(n) - 3.0 * std::log2(side) > 1.5) side *= 2;
  while (side < 2 * p) side *= 2;  // slab constraint nz/p >= 2
  c.nx = c.ny = c.nz = side;
  if (c.max_levels == 0) c.max_levels = 3;
  return c;
}
double problem_size(const npb::MgConfig& c) { return static_cast<double>(c.total_points()); }
Fitted fit(const npb::MgConfig& c, Samples samples, double t_m) {
  return std::make_unique<model::MgWorkload>(fit_mg_workload(samples, c.cycles, t_m));
}

const char* kernel_name(const npb::CkptConfig&) { return "CKPT"; }
std::string config_fp(const npb::CkptConfig& c) {
  return "elements=" + std::to_string(c.elements) +
         ";iterations=" + std::to_string(c.iterations) +
         ";every=" + std::to_string(c.ckpt_every) + ";seed=" + exec::encode_f64(c.seed);
}
npb::CkptConfig sized(npb::CkptConfig c, double n, int) {
  c.elements = static_cast<std::uint64_t>(n);
  return c;
}
double problem_size(const npb::CkptConfig& c) { return static_cast<double>(c.elements); }
Fitted fit(const npb::CkptConfig& c, Samples samples, double t_m) {
  return std::make_unique<model::CkptWorkload>(
      fit_ckpt_workload(samples, c.iterations, c.ckpt_every, t_m));
}

const char* kernel_name(const npb::SweepConfig&) { return "SWEEP"; }
std::string config_fp(const npb::SweepConfig& c) {
  return "nx=" + std::to_string(c.nx) + ";ny=" + std::to_string(c.ny) +
         ";sweeps=" + std::to_string(c.sweeps) + ";tile=" + std::to_string(c.tile_w) +
         ";seed=" + exec::encode_f64(c.seed);
}
/// Square grid with side a multiple of tile_w and >= p rows.
npb::SweepConfig sized(npb::SweepConfig c, double n, int p) {
  int side = c.tile_w;
  while (static_cast<double>(side + c.tile_w) * (side + c.tile_w) <= n) side += c.tile_w;
  while (side < p) side += c.tile_w;
  c.nx = c.ny = side;
  return c;
}
double problem_size(const npb::SweepConfig& c) { return static_cast<double>(c.total_cells()); }
Fitted fit(const npb::SweepConfig& c, Samples samples, double t_m) {
  return std::make_unique<model::SweepWorkload>(
      fit_sweep_workload(samples, c.sweeps, c.tile_w, t_m));
}

/// The adapter of every kernel, built from the overloads above.
template <class Config>
class KernelAdapter final : public BenchmarkAdapter {
 public:
  explicit KernelAdapter(Config base) : base_(std::move(base)) {}
  std::string name() const override { return kernel_name(base_); }
  std::string fingerprint() const override {
    return name() + ";" + config_fp(base_) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    const Config cfg = sized(base_, n, p);
    if (snapped_n != nullptr) *snapped_n = problem_size(cfg);
    return analysis::run(machine, cfg, p, options);
  }

  Fitted fit(Samples samples, double t_m) const override {
    return analysis::fit(base_, samples, t_m);
  }

  double default_n() const override { return problem_size(base_); }

 private:
  Config base_;
};

template <class Config>
std::unique_ptr<BenchmarkAdapter> adapt(Config base) {
  return std::make_unique<KernelAdapter<Config>>(std::move(base));
}

}  // namespace

std::unique_ptr<BenchmarkAdapter> make_ep_adapter(npb::EpConfig c) { return adapt(c); }
std::unique_ptr<BenchmarkAdapter> make_ft_adapter(npb::FtConfig c) { return adapt(c); }
std::unique_ptr<BenchmarkAdapter> make_cg_adapter(npb::CgConfig c) { return adapt(c); }
std::unique_ptr<BenchmarkAdapter> make_is_adapter(npb::IsConfig c) { return adapt(c); }
std::unique_ptr<BenchmarkAdapter> make_mg_adapter(npb::MgConfig c) { return adapt(c); }
std::unique_ptr<BenchmarkAdapter> make_ckpt_adapter(npb::CkptConfig c) { return adapt(c); }
std::unique_ptr<BenchmarkAdapter> make_sweep_adapter(npb::SweepConfig c) { return adapt(c); }

std::unique_ptr<BenchmarkAdapter> make_adapter(const std::string& app) {
  if (app == "EP") return make_ep_adapter();
  if (app == "FT") return make_ft_adapter();
  if (app == "CG") return make_cg_adapter();
  if (app == "IS") return make_is_adapter();
  if (app == "MG") return make_mg_adapter();
  if (app == "CKPT") return make_ckpt_adapter();
  if (app == "SWEEP") return make_sweep_adapter();
  throw std::invalid_argument("unknown app '" + app +
                              "' (have: EP, FT, CG, IS, MG, CKPT, SWEEP)");
}

Plan<model::MachineParams> machine_plan(const sim::MachineSpec& machine, bool measured) {
  Plan<model::MachineParams> plan;
  exec::Case c;
  c.threads = sim::resolve_engine_workers(0, 2);  // mpptest ping-pong: 2 ranks
  c.cache_key = machine_params_key(exec::machine_fingerprint(machine), measured);
  c.run = [machine, measured] {
    return encode_machine_params(measured ? tools::calibrate_machine(machine)
                                          : tools::nominal_machine_params(machine));
  };
  plan.cases.push_back(std::move(c));
  plan.fold = [](std::span<const exec::CaseResult> results) {
    return decode_machine_params(payload_of(results.front()));
  };
  return plan;
}

Plan<Calibration> calibration_plan(const sim::MachineSpec& machine,
                                   std::shared_ptr<const BenchmarkAdapter> adapter,
                                   std::span<const double> ns, std::span<const int> ps,
                                   const model::MachineParams* machine_params) {
  Plan<Calibration> plan;
  if (machine_params == nullptr) plan.cases = machine_plan(machine, true).cases;
  const std::string machine_fp = exec::machine_fingerprint(machine);
  const std::string adapter_fp = adapter->fingerprint();
  const auto add_point = [&](double n, int p) {
    exec::Case c;
    // Cost = fiber-scheduler workers, not ranks: a p=1024 case occupies a
    // worker or two of the host, so sweeps genuinely parallelize.
    c.threads = sim::resolve_engine_workers(0, p);
    c.cache_key = study_key("calibrate", machine_fp, adapter_fp, n, p, 0.0);
    c.run = [machine, adapter, n, p] {
      double snapped = n;
      const sim::RunResult run = adapter->run(machine, n, p, RunOptions(), &snapped);
      return encode_sample(make_sample(run, snapped, p));
    };
    plan.cases.push_back(std::move(c));
  };
  for (double n : ns) add_point(n, 1);
  const double n_par = ns.empty() ? adapter->default_n() : ns.back();
  for (int p : ps) {
    if (p > 1) add_point(n_par, p);
  }

  std::optional<model::MachineParams> known;
  if (machine_params != nullptr) known = *machine_params;
  plan.fold = [adapter, known](std::span<const exec::CaseResult> results) {
    for (const exec::CaseResult& r : results) {
      if (!r.ok()) throw std::runtime_error("calibration case failed: " + r.error);
    }
    Calibration cal;
    cal.machine = known ? *known : decode_machine_params(results.front().payload);
    std::vector<CounterSample> samples;
    for (const exec::CaseResult& r : results.subspan(known ? 0 : 1)) {
      samples.push_back(decode_sample(r.payload));
    }
    cal.workload = adapter->fit(samples, cal.machine.t_m);
    return cal;
  };
  return plan;
}

Plan<Measurement> measure_plan(const sim::MachineSpec& machine,
                               std::shared_ptr<const BenchmarkAdapter> adapter, double n,
                               int p, double f_ghz) {
  Plan<Measurement> plan;
  exec::Case c;
  c.threads = sim::resolve_engine_workers(0, p);
  c.cache_key = study_key("measure", exec::machine_fingerprint(machine), adapter->fingerprint(),
                          n, p, f_ghz);
  c.run = [machine, adapter, n, p, f_ghz] {
    RunOptions options;
    options.f_ghz = f_ghz;
    double snapped = n;
    const sim::RunResult run = adapter->run(machine, n, p, options, &snapped);
    return exec::encode_doubles({snapped, run.total_energy_j(), run.makespan, run.mean_alpha()});
  };
  plan.cases.push_back(std::move(c));
  plan.fold = [](std::span<const exec::CaseResult> results) {
    const std::vector<double> v = exec::decode_doubles(payload_of(results.front()));
    if (v.size() != 4) throw std::invalid_argument("measure entry: wrong arity");
    return Measurement{v[0], v[1], v[2], v[3]};
  };
  return plan;
}

namespace {

/// Runs a plan on the study's executor settings; run_batch owns the caching.
template <class T>
T run_plan(const Plan<T>& plan, const exec::ExecConfig& exec, exec::ResultCache* cache) {
  exec::BatchOptions batch;
  batch.thread_budget = exec.jobs;
  batch.cache = cache->enabled() ? cache : nullptr;
  return plan.fold(exec::run_batch(plan.cases, batch));
}

}  // namespace

EnergyStudy::EnergyStudy(sim::MachineSpec machine, std::unique_ptr<BenchmarkAdapter> adapter,
                         bool measured_calibration, exec::ExecConfig exec)
    : machine_(std::move(machine)),
      adapter_(std::move(adapter)),
      exec_(std::move(exec)),
      cache_(std::make_unique<exec::ResultCache>(exec_.cache_dir, exec_.cache_max_bytes)),
      // The microbenchmark pass itself runs simulations, so it is cached too —
      // otherwise a "warm" figure rerun would still simulate its calibration.
      machine_params_(run_plan(machine_plan(machine_, measured_calibration), exec_,
                               cache_.get())) {}

void EnergyStudy::calibrate(std::span<const double> ns, std::span<const int> ps) {
  const Plan<Calibration> plan = calibration_plan(machine_, adapter_, ns, ps, &machine_params_);
  workload_ = run_plan(plan, exec_, cache_.get()).workload;
  ISOEE_INFO("%s: fitted workload model from %zu samples", adapter_->name().c_str(),
             plan.cases.size());
}

model::EnergyPrediction EnergyStudy::predict(double n, int p, double f_ghz) const {
  if (!workload_) throw std::logic_error("EnergyStudy: calibrate() before predict()");
  const double f = f_ghz > 0.0 ? f_ghz : machine_params_.base_ghz;
  model::IsoEnergyModel model(machine_params_.at_frequency(f));
  return model.predict_energy(workload_->at(n, p));
}

model::PerfPrediction EnergyStudy::predict_performance(double n, int p, double f_ghz) const {
  if (!workload_) throw std::logic_error("EnergyStudy: calibrate() before predict()");
  const double f = f_ghz > 0.0 ? f_ghz : machine_params_.base_ghz;
  model::IsoEnergyModel model(machine_params_.at_frequency(f));
  return model.predict_performance(workload_->at(n, p));
}

ValidationPoint EnergyStudy::validate(double n, int p, double f_ghz) const {
  if (!workload_) throw std::logic_error("EnergyStudy: calibrate() before validate()");
  ValidationPoint point;
  point.benchmark = adapter_->name();
  point.p = p;
  point.f_ghz = f_ghz > 0.0 ? f_ghz : machine_params_.base_ghz;

  const Measurement actual =
      run_plan(measure_plan(machine_, adapter_, n, p, point.f_ghz), exec_, cache_.get());
  point.n = actual.n;
  point.actual_j = actual.energy_j;
  point.actual_s = actual.time_s;

  const model::EnergyPrediction energy = predict(point.n, p, point.f_ghz);
  const model::PerfPrediction perf = predict_performance(point.n, p, point.f_ghz);
  point.predicted_j = energy.Ep;
  point.predicted_s = perf.Tp;
  point.error_pct = util::ape(point.actual_j, point.predicted_j);

  // Every validation pair feeds the always-on model-drift watchdog (cache
  // hits included: the prediction may have changed since the actual was
  // cached, which is exactly the drift we want to see).
  obs::drift().record({machine_.name, point.benchmark, p, point.f_ghz, "energy_j"},
                      point.predicted_j, point.actual_j);
  obs::drift().record({machine_.name, point.benchmark, p, point.f_ghz, "time_s"},
                      point.predicted_s, point.actual_s);
  return point;
}

}  // namespace isoee::analysis
