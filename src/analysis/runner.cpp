#include "analysis/runner.hpp"

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

/// Applies the RunOptions collective override (if any) onto a copy of the
/// kernel config; every NPB config carries a `collectives` member.
template <typename Config>
Config with_collectives(Config config, const RunOptions& options) {
  if (options.collectives != nullptr) config.collectives = *options.collectives;
  return config;
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

}  // namespace

sim::RunResult run_ep(const sim::MachineSpec& machine, const npb::EpConfig& config, int p,
                      const RunOptions& options) {
  GovernorAttachment attach(options, p);
  const auto cfg = with_collectives(config, options);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(
      p, [&](sim::RankCtx& ctx) { (void)npb::ep_rank(ctx, cfg, attach.phases); });
}

sim::RunResult run_ft(const sim::MachineSpec& machine, const npb::FtConfig& config, int p,
                      const RunOptions& options) {
  GovernorAttachment attach(options, p);
  const auto cfg = with_collectives(config, options);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(
      p, [&](sim::RankCtx& ctx) { (void)npb::ft_rank(ctx, cfg, attach.phases); });
}

sim::RunResult run_cg(const sim::MachineSpec& machine, const npb::CgConfig& config, int p,
                      const RunOptions& options) {
  GovernorAttachment attach(options, p);
  const auto cfg = with_collectives(config, options);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(
      p, [&](sim::RankCtx& ctx) { (void)npb::cg_rank(ctx, cfg, attach.phases); });
}

sim::RunResult run_is(const sim::MachineSpec& machine, const npb::IsConfig& config, int p,
                      const RunOptions& options) {
  GovernorAttachment attach(options, p);
  const auto cfg = with_collectives(config, options);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(
      p, [&](sim::RankCtx& ctx) { (void)npb::is_rank(ctx, cfg, attach.phases); });
}

sim::RunResult run_mg(const sim::MachineSpec& machine, const npb::MgConfig& config, int p,
                      const RunOptions& options) {
  GovernorAttachment attach(options, p);
  const auto cfg = with_collectives(config, options);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(
      p, [&](sim::RankCtx& ctx) { (void)npb::mg_rank(ctx, cfg, attach.phases); });
}

sim::RunResult run_ckpt(const sim::MachineSpec& machine, const npb::CkptConfig& config,
                        int p, const RunOptions& options) {
  GovernorAttachment attach(options, p);
  const auto cfg = with_collectives(config, options);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(
      p, [&](sim::RankCtx& ctx) { (void)npb::ckpt_rank(ctx, cfg, attach.phases); });
}

sim::RunResult run_sweep(const sim::MachineSpec& machine, const npb::SweepConfig& config,
                         int p, const RunOptions& options) {
  GovernorAttachment attach(options, p);
  const auto cfg = with_collectives(config, options);
  sim::Engine engine(machine, engine_options(options));
  return engine.run(
      p, [&](sim::RankCtx& ctx) { (void)npb::sweep_rank(ctx, cfg, attach.phases); });
}

double ft_problem_size(const npb::FtConfig& config) {
  return static_cast<double>(config.total_points());
}
double cg_problem_size(const npb::CgConfig& config) { return static_cast<double>(config.n); }

}  // namespace isoee::analysis
