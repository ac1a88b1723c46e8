// The kernel runner: executes one NPB kernel on the simulated cluster and
// returns the engine's RunResult (the "PowerPack measurement" of that job).
// Used by the study adapters (study.hpp) and by benches that run one config.
#pragma once

#include "governor/governor.hpp"
#include "npb/cg.hpp"
#include "npb/ckpt.hpp"
#include "npb/ep.hpp"
#include "npb/ft.hpp"
#include "npb/is.hpp"
#include "npb/mg.hpp"
#include "npb/sweep.hpp"
#include "sim/engine.hpp"

namespace isoee::analysis {

struct RunOptions {
  double f_ghz = 0.0;         // 0 -> machine base frequency
  bool record_trace = false;  // keep segment timelines (power profiles)
  powerpack::PhaseLog* phases = nullptr;

  /// Per-run trace sink (src/obs): forwarded to EngineOptions::trace_sink, so
  /// one run's spans/flows/instants land in a caller-owned collector even when
  /// many runs execute concurrently (the --jobs determinism tests rely on
  /// this). Null defers to the process-global sink.
  obs::TraceSink* trace = nullptr;

  /// Opt-in closed-loop DVFS: when set, the runner attaches the governor to
  /// the engine's streaming-sample hook and to the kernel's phase markers
  /// (allocating an internal PhaseLog if `phases` is null), and calls
  /// begin_job before the run. The governor's policies then actuate
  /// set_frequency online while the kernel executes.
  governor::Governor* governor = nullptr;
};

/// Runs `config`'s kernel on p ranks of `machine`, with the collective
/// settings in config.collectives. Instantiated (runner.cpp) for the seven
/// kernel configs: npb::EpConfig, FtConfig, CgConfig, IsConfig, MgConfig,
/// CkptConfig and SweepConfig.
template <class Config>
sim::RunResult run(const sim::MachineSpec& machine, const Config& config, int p,
                   const RunOptions& options = RunOptions());

}  // namespace isoee::analysis
