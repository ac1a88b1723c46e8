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

class EpAdapter final : public BenchmarkAdapter {
 public:
  explicit EpAdapter(npb::EpConfig base) : base_(base) {}
  std::string name() const override { return "EP"; }

  std::string fingerprint() const override {
    return "EP;trials=" + std::to_string(base_.trials) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::EpConfig cfg = base_;
    cfg.trials = static_cast<std::uint64_t>(n);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.trials);
    return run_ep(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::EpWorkload>(fit_ep_workload(samples, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.trials); }

 private:
  npb::EpConfig base_;
};

class FtAdapter final : public BenchmarkAdapter {
 public:
  explicit FtAdapter(npb::FtConfig base) : base_(base) {}
  std::string name() const override { return "FT"; }

  std::string fingerprint() const override {
    return "FT;nx=" + std::to_string(base_.nx) + ";ny=" + std::to_string(base_.ny) +
           ";nz=" + std::to_string(base_.nz) + ";iters=" + std::to_string(base_.iters) +
           ";alpha=" + exec::encode_f64(base_.evolve_alpha) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    const npb::FtConfig cfg = config_for(n, p);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.total_points());
    return run_ft(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::FtWorkload>(fit_ft_workload(samples, base_.iters, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.total_points()); }

  /// Snaps n to a power-of-two cubic grid with sides >= p (slab constraint).
  npb::FtConfig config_for(double n, int p) const {
    npb::FtConfig cfg = base_;
    int side = 4;
    while (static_cast<double>(side) * side * side * 8.0 <= n && side < 1024) side *= 2;
    // side^3 <= n < (2*side)^3: choose the closer one in log space.
    if (n > 0 && std::log2(n) - 3.0 * std::log2(side) > 1.5) side *= 2;
    while (side < p) side *= 2;  // decomposition requires nx, nz >= p
    cfg.nx = cfg.ny = cfg.nz = side;
    return cfg;
  }

 private:
  npb::FtConfig base_;
};

class CgAdapter final : public BenchmarkAdapter {
 public:
  explicit CgAdapter(npb::CgConfig base) : base_(base) {}
  std::string name() const override { return "CG"; }

  std::string fingerprint() const override {
    return "CG;n=" + std::to_string(base_.n) + ";offsets=" + std::to_string(base_.offsets) +
           ";outer=" + std::to_string(base_.outer) + ";inner=" + std::to_string(base_.inner) +
           ";shift=" + exec::encode_f64(base_.shift) + ";seed=" + std::to_string(base_.seed) +
           ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::CgConfig cfg = base_;
    cfg.n = std::max(static_cast<int>(n), 4 * p);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.n);
    return run_cg(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::CgWorkload>(fit_cg_workload(
        samples, base_.outer, base_.inner, 2.0 * base_.offsets + 1.0, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.n); }

 private:
  npb::CgConfig base_;
};

class IsAdapter final : public BenchmarkAdapter {
 public:
  explicit IsAdapter(npb::IsConfig base) : base_(base) {}
  std::string name() const override { return "IS"; }

  std::string fingerprint() const override {
    return "IS;nkeys=" + std::to_string(base_.n_keys) +
           ";bits=" + std::to_string(base_.key_bits) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::IsConfig cfg = base_;
    cfg.n_keys = static_cast<std::uint64_t>(n);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.n_keys);
    return run_is(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::IsWorkload>(fit_is_workload(samples, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.n_keys); }

 private:
  npb::IsConfig base_;
};

class MgAdapter final : public BenchmarkAdapter {
 public:
  explicit MgAdapter(npb::MgConfig base) : base_(base) {}
  std::string name() const override { return "MG"; }

  std::string fingerprint() const override {
    return "MG;nx=" + std::to_string(base_.nx) + ";ny=" + std::to_string(base_.ny) +
           ";nz=" + std::to_string(base_.nz) + ";cycles=" + std::to_string(base_.cycles) +
           ";pre=" + std::to_string(base_.pre_smooth) +
           ";post=" + std::to_string(base_.post_smooth) +
           ";maxlev=" + std::to_string(base_.max_levels) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    const npb::MgConfig cfg = config_for(n, p);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.total_points());
    return run_mg(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::MgWorkload>(fit_mg_workload(samples, base_.cycles, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.total_points()); }

  /// Snaps n to a cubic power-of-two grid with nz/p >= 2, and pins the level
  /// hierarchy so predictions stay comparable across p.
  npb::MgConfig config_for(double n, int p) const {
    npb::MgConfig cfg = base_;
    int side = 8;
    while (static_cast<double>(side) * side * side * 8.0 <= n && side < 1024) side *= 2;
    if (n > 0 && std::log2(n) - 3.0 * std::log2(side) > 1.5) side *= 2;
    while (side < 2 * p) side *= 2;  // slab constraint nz/p >= 2
    cfg.nx = cfg.ny = cfg.nz = side;
    if (cfg.max_levels == 0) cfg.max_levels = 3;
    return cfg;
  }

 private:
  npb::MgConfig base_;
};

class CkptAdapter final : public BenchmarkAdapter {
 public:
  explicit CkptAdapter(npb::CkptConfig base) : base_(base) {}
  std::string name() const override { return "CKPT"; }

  std::string fingerprint() const override {
    return "CKPT;elements=" + std::to_string(base_.elements) +
           ";iterations=" + std::to_string(base_.iterations) +
           ";every=" + std::to_string(base_.ckpt_every) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    npb::CkptConfig cfg = base_;
    cfg.elements = static_cast<std::uint64_t>(n);
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.elements);
    return run_ckpt(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::CkptWorkload>(
        fit_ckpt_workload(samples, base_.iterations, base_.ckpt_every, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.elements); }

 private:
  npb::CkptConfig base_;
};

class SweepAdapter final : public BenchmarkAdapter {
 public:
  explicit SweepAdapter(npb::SweepConfig base) : base_(base) {}
  std::string name() const override { return "SWEEP"; }

  std::string fingerprint() const override {
    return "SWEEP;nx=" + std::to_string(base_.nx) + ";ny=" + std::to_string(base_.ny) +
           ";sweeps=" + std::to_string(base_.sweeps) +
           ";tile=" + std::to_string(base_.tile_w) +
           ";seed=" + exec::encode_f64(base_.seed) + ";coll=" + collectives_fp(base_.collectives);
  }

  sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                     const RunOptions& options, double* snapped_n) const override {
    // Square grid with side a multiple of tile_w and >= p rows.
    npb::SweepConfig cfg = base_;
    int side = cfg.tile_w;
    while (static_cast<double>(side + cfg.tile_w) * (side + cfg.tile_w) <= n) {
      side += cfg.tile_w;
    }
    while (side < p) side += cfg.tile_w;
    cfg.nx = cfg.ny = side;
    if (snapped_n != nullptr) *snapped_n = static_cast<double>(cfg.total_cells());
    return run_sweep(machine, cfg, p, options);
  }

  std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                            double t_m) const override {
    return std::make_unique<model::SweepWorkload>(
        fit_sweep_workload(samples, base_.sweeps, base_.tile_w, t_m));
  }

  double default_n() const override { return static_cast<double>(base_.total_cells()); }

 private:
  npb::SweepConfig base_;
};

}  // namespace

std::unique_ptr<BenchmarkAdapter> make_ep_adapter(npb::EpConfig base) {
  return std::make_unique<EpAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_ft_adapter(npb::FtConfig base) {
  return std::make_unique<FtAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_cg_adapter(npb::CgConfig base) {
  return std::make_unique<CgAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_is_adapter(npb::IsConfig base) {
  return std::make_unique<IsAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_mg_adapter(npb::MgConfig base) {
  return std::make_unique<MgAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_ckpt_adapter(npb::CkptConfig base) {
  return std::make_unique<CkptAdapter>(base);
}
std::unique_ptr<BenchmarkAdapter> make_sweep_adapter(npb::SweepConfig base) {
  return std::make_unique<SweepAdapter>(base);
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
