#include "analysis/runner.hpp"

#include <type_traits>

namespace isoee::analysis {

namespace {

sim::EngineOptions engine_options(const RunOptions& options) {
  sim::EngineOptions opts;
  opts.record_trace = options.record_trace;
  opts.initial_ghz = options.f_ghz;
  opts.trace_sink = options.trace;
  if (options.governor != nullptr) opts.on_segment = options.governor->engine_hook();
  return opts;
}

/// Per-run governor attachment: resolves the PhaseLog the kernel should mark
/// phases on (the caller's, or a run-local one when the governor needs a phase
/// feed and the caller passed none), subscribes the governor's hooks for the
/// duration of the run, and detaches on destruction so a caller-owned PhaseLog
/// never outlives the governor with a live observer.
struct GovernorAttachment {
  powerpack::PhaseLog local;
  powerpack::PhaseLog* phases = nullptr;
  bool attached = false;

  GovernorAttachment(const RunOptions& options, int p) {
    phases = options.phases;
    if (options.governor != nullptr) {
      if (phases == nullptr) phases = &local;
      phases->set_observer(options.governor->phase_hook());
      options.governor->begin_job(p);
      attached = true;
    }
  }
  ~GovernorAttachment() {
    if (attached) phases->set_observer(nullptr);
  }
};

/// One rank's body: the kernel `Config` configures.
template <class Config>
void kernel_rank(sim::RankCtx& c, const Config& k, powerpack::PhaseLog* ph) {
  if constexpr (std::is_same_v<Config, npb::EpConfig>) (void)npb::ep_rank(c, k, ph);
  if constexpr (std::is_same_v<Config, npb::FtConfig>) (void)npb::ft_rank(c, k, ph);
  if constexpr (std::is_same_v<Config, npb::CgConfig>) (void)npb::cg_rank(c, k, ph);
  if constexpr (std::is_same_v<Config, npb::IsConfig>) (void)npb::is_rank(c, k, ph);
  if constexpr (std::is_same_v<Config, npb::MgConfig>) (void)npb::mg_rank(c, k, ph);
  if constexpr (std::is_same_v<Config, npb::CkptConfig>) (void)npb::ckpt_rank(c, k, ph);
  if constexpr (std::is_same_v<Config, npb::SweepConfig>) (void)npb::sweep_rank(c, k, ph);
}

}  // namespace

template <class Config>
sim::RunResult run(const sim::MachineSpec& machine, const Config& config, int p,
                   const RunOptions& options) {
  GovernorAttachment attach(options, p);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(p, [&](sim::RankCtx& ctx) { kernel_rank(ctx, config, attach.phases); });
}

template sim::RunResult run(const sim::MachineSpec&, const npb::EpConfig&, int,
                            const RunOptions&);
template sim::RunResult run(const sim::MachineSpec&, const npb::FtConfig&, int,
                            const RunOptions&);
template sim::RunResult run(const sim::MachineSpec&, const npb::CgConfig&, int,
                            const RunOptions&);
template sim::RunResult run(const sim::MachineSpec&, const npb::IsConfig&, int,
                            const RunOptions&);
template sim::RunResult run(const sim::MachineSpec&, const npb::MgConfig&, int,
                            const RunOptions&);
template sim::RunResult run(const sim::MachineSpec&, const npb::CkptConfig&, int,
                            const RunOptions&);
template sim::RunResult run(const sim::MachineSpec&, const npb::SweepConfig&, int,
                            const RunOptions&);

}  // namespace isoee::analysis
