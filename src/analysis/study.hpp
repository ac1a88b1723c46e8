// EnergyStudy: the end-to-end iso-energy-efficiency workflow of the paper's
// Sections IV-V for one benchmark on one machine:
//
//   1. calibrate the machine-dependent vector with the microbenchmark tools
//      (lat_mem_rd, mpptest, PowerPack-style power micro-runs);
//   2. run the benchmark at a few small (n, p) points, read the simulated
//      hardware counters, and fit the application-dependent workload model;
//   3. predict energy/EE at arbitrary (n, p, f) from the analytical model and
//      validate against full "measured" simulations.
//
// The BenchmarkAdapter hides the per-kernel config plumbing so the same study
// logic drives all seven kernels (EP, FT, CG, IS, MG, CKPT, SWEEP). One class
// template in study.cpp implements it for every npb::*Config; each kernel
// contributes only its name, fingerprint, size snapping, problem size and
// workload fit.
//
// Each step's simulations are a study plan (below): EnergyStudy runs the plans
// on exec::run_batch, and the what-if query service (src/service) runs the same
// plans on its SimScheduler, so both content-address every simulated quantity
// under one set of cache keys.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/runner.hpp"
#include "analysis/workload_fit.hpp"
#include "benchtools/calibrate.hpp"
#include "exec/executor.hpp"
#include "model/isocontour.hpp"
#include "model/model.hpp"
#include "model/workloads.hpp"

namespace isoee::analysis {

/// Adapts one benchmark kernel to the generic study workflow.
class BenchmarkAdapter {
 public:
  virtual ~BenchmarkAdapter() = default;
  virtual std::string name() const = 0;

  /// Deterministic digest of every base-config field that influences run():
  /// two adapters with different fingerprints may produce different
  /// measurements at the same (n, p). Result-cache keys are built from this,
  /// so omitting a significant field here silently reuses stale results.
  virtual std::string fingerprint() const = 0;

  /// Runs the kernel at problem size ~n on p ranks; returns the measurement.
  /// Implementations may snap n to the nearest valid size (e.g. FT grids);
  /// `snapped_n` reports the size actually run.
  virtual sim::RunResult run(const sim::MachineSpec& machine, double n, int p,
                             const RunOptions& options, double* snapped_n) const = 0;

  /// Fits the closed-form workload model from counter samples. `t_m` is the
  /// calibrated memory latency used to convert memory time into effective
  /// off-chip accesses.
  virtual std::unique_ptr<model::WorkloadModel> fit(std::span<const CounterSample> samples,
                                                    double t_m) const = 0;

  /// Default problem size for validation (the "class" size).
  virtual double default_n() const = 0;
};

std::unique_ptr<BenchmarkAdapter> make_ep_adapter(npb::EpConfig base = npb::EpConfig());
std::unique_ptr<BenchmarkAdapter> make_ft_adapter(npb::FtConfig base = npb::FtConfig());
std::unique_ptr<BenchmarkAdapter> make_cg_adapter(npb::CgConfig base = npb::CgConfig());
std::unique_ptr<BenchmarkAdapter> make_is_adapter(npb::IsConfig base = npb::IsConfig());
std::unique_ptr<BenchmarkAdapter> make_mg_adapter(npb::MgConfig base = npb::MgConfig());
std::unique_ptr<BenchmarkAdapter> make_ckpt_adapter(npb::CkptConfig base = npb::CkptConfig());
std::unique_ptr<BenchmarkAdapter> make_sweep_adapter(npb::SweepConfig base = npb::SweepConfig());

/// The default-config adapter for an app name (EP, FT, CG, IS, MG, CKPT,
/// SWEEP); throws std::invalid_argument naming the known apps otherwise.
std::unique_ptr<BenchmarkAdapter> make_adapter(const std::string& app);

/// One actual-vs-predicted energy comparison (a bar pair of Fig 3, a
/// contribution to Fig 4's error rate).
struct ValidationPoint {
  std::string benchmark;
  double n = 0.0;
  int p = 1;
  double f_ghz = 0.0;
  double actual_j = 0.0;     // full simulation with noise ("PowerPack")
  double predicted_j = 0.0;  // analytical model (Eq 15)
  double actual_s = 0.0;     // measured makespan
  double predicted_s = 0.0;  // model Tp
  double error_pct = 0.0;    // |predicted - actual| / actual * 100
};

class EnergyStudy {
 public:
  /// `measured_calibration` selects between microbenchmark-measured machine
  /// parameters (the paper's protocol; inherits noise) and nominal spec
  /// values (ground truth, for exactness tests). `exec` carries the shared
  /// --jobs / --cache-dir settings: the constructor's machine_plan, the
  /// calibration_plan and every validate()'s measure_plan execute on the
  /// exec::run_batch pool, and with a cache directory every
  /// simulation-derived quantity (machine microbenchmark parameters, counter
  /// samples, validation measurements) is content-addressed on disk — a warm
  /// rerun of a figure driver executes zero simulations and reproduces its
  /// CSVs byte for byte.
  EnergyStudy(sim::MachineSpec machine, std::unique_ptr<BenchmarkAdapter> adapter,
              bool measured_calibration = true, exec::ExecConfig exec = {});

  /// Runs the benchmark over the given calibration points and fits the
  /// workload model. Typical: a couple of n at p=1 plus small p at default n.
  void calibrate(std::span<const double> ns, std::span<const int> ps);

  /// Analytical prediction at (n, p, f). Requires calibrate() first.
  model::EnergyPrediction predict(double n, int p, double f_ghz = 0.0) const;
  model::PerfPrediction predict_performance(double n, int p, double f_ghz = 0.0) const;

  /// Full simulation + model prediction at the same point.
  ValidationPoint validate(double n, int p, double f_ghz = 0.0) const;

  const model::MachineParams& machine_params() const { return machine_params_; }
  const model::WorkloadModel& workload() const { return *workload_; }
  const sim::MachineSpec& machine() const { return machine_; }
  const BenchmarkAdapter& adapter() const { return *adapter_; }

 private:
  sim::MachineSpec machine_;
  std::shared_ptr<const BenchmarkAdapter> adapter_;
  exec::ExecConfig exec_;
  std::unique_ptr<exec::ResultCache> cache_;
  model::MachineParams machine_params_;
  std::unique_ptr<model::WorkloadModel> workload_;
};

// --- the study plan -----------------------------------------------------------
//
// The workflow's simulations as exec::Cases, shared by EnergyStudy and the
// query service. Every case carries its content address (`cache_key`), so a
// figure driver and the service pointed at one cache directory share warm
// entries: a point validate() measured answers the service's measured
// predict at the same (n, p, f), and a calibration either one ran is a warm
// hit for the other. The key and payload formats are private to study.cpp
// (doubles travel as IEEE-754 hex, so a warm rerun is byte-identical); read
// results only through a plan's `fold`.

/// Independent cases plus the fold that turns their results, in case order,
/// into the step's value. `fold` throws std::runtime_error on a failed case.
template <class T>
struct Plan {
  std::vector<exec::Case> cases;
  std::function<T(std::span<const exec::CaseResult>)> fold;
};

/// The machine-dependent vector: microbenchmark-measured (the paper's
/// protocol; simulation-backed) or the spec's nominal values. One case.
Plan<model::MachineParams> machine_plan(const sim::MachineSpec& machine, bool measured);

/// A fitted (machine vector, workload model) pair.
struct Calibration {
  model::MachineParams machine;
  std::unique_ptr<model::WorkloadModel> workload;
};

/// The workload fit: one counter-sample case per point of a sequential sweep
/// over `ns` at p=1, then of every p>1 in `ps` at the largest size (ns.back(),
/// or the adapter's default n when `ns` is empty). With `machine_params` null
/// a leading case measures the machine vector (as machine_plan(machine,
/// true)) and the fit uses its memory latency; otherwise the fit uses
/// `*machine_params` and every case is a counter sample.
Plan<Calibration> calibration_plan(const sim::MachineSpec& machine,
                                   std::shared_ptr<const BenchmarkAdapter> adapter,
                                   std::span<const double> ns, std::span<const int> ps,
                                   const model::MachineParams* machine_params = nullptr);

/// One simulated operating point.
struct Measurement {
  double n = 0.0;         // problem size actually run (adapters may snap n)
  double energy_j = 0.0;  // total energy, noise included
  double time_s = 0.0;    // makespan
  double alpha = 0.0;     // mean measured overlap factor over ranks
};

/// One full simulation of the benchmark at (n, p) and gear `f_ghz`.
Plan<Measurement> measure_plan(const sim::MachineSpec& machine,
                               std::shared_ptr<const BenchmarkAdapter> adapter, double n,
                               int p, double f_ghz);

}  // namespace isoee::analysis
