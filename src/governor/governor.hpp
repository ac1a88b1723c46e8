// Online iso-energy-efficiency runtime governor — the closed feedback loop of
// the paper's Fig 1, running *inside* simulated applications.
//
//                 +-------------------------------------------+
//                 |                 Engine                     |
//   set_frequency |   rank timelines (virtual time)            | segments
//        ^        +-------------------------------------------+    |
//        |                                                         v
//   +---------+   decisions   +----------+   StreamSamples  +-----------+
//   | Policy  | <------------ | Governor | <--------------- | Streaming |
//   +---------+               +----------+                  |  Sampler  |
//        ^                        ^                         +-----------+
//        |                        | phase begin/end
//        +--- model (EE eqs)      +--- PhaseLog observer (compute vs comm)
//
// The governor subscribes to the PowerPack streaming sampler to maintain
// sliding-window power estimates per rank on virtual time, consumes live
// phase markers to distinguish compute from collective phases, and actuates
// per-rank DVFS through RankCtx::set_frequency via a pluggable Policy. Every
// actuation is appended to a DecisionTrace exportable as CSV.
//
// Determinism: each rank's decisions depend only on that rank's own stream
// (window, phases, clock). Cluster-level power is estimated by SPMD
// extrapolation (rank_w * nranks) rather than by aggregating unsynchronised
// peer clocks, so a run with a fixed seed reproduces bit-identical decisions
// regardless of host scheduling. See docs/GOVERNOR.md.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "governor/policies.hpp"
#include "governor/trace.hpp"
#include "governor/window.hpp"
#include "powerpack/phases.hpp"
#include "powerpack/profiler.hpp"
#include "sim/engine.hpp"

namespace isoee::governor {

/// Governor-wide knobs (policy-specific knobs live in the policy configs).
struct GovernorSpec {
  double window_s = 0.005;            // sliding-window horizon (virtual s)
  double decision_interval_s = 0.001; // min virtual time between periodic decisions
  double cap_w = 0.0;                 // cluster cap surfaced in Observations
  bool trace = true;                  // collect the decision trace
};

/// Classifies a phase-marker name: names containing a collective/transport
/// token (allreduce, allgather, alltoall, transpose, barrier, bcast, scatter,
/// exchange, comm) are communication; everything else is compute.
PhaseKind classify_phase(std::string_view name);

class Governor {
 public:
  /// `factory` creates one policy instance per rank at begin_job time.
  Governor(sim::MachineSpec machine, GovernorSpec spec, PolicyFactory factory);

  /// Resets per-rank state for a run with `nranks` ranks. Must be called
  /// before each Engine::run the governor is attached to.
  void begin_job(int nranks);

  /// Hook for sim::EngineOptions::on_segment (the sensor feed).
  std::function<void(sim::RankCtx&, const sim::Segment&)> engine_hook();

  /// Hook for powerpack::PhaseLog::set_observer (the phase feed).
  powerpack::PhaseLog::Observer phase_hook();

  const GovernorSpec& spec() const { return spec_; }
  const sim::MachineSpec& machine() const { return machine_; }
  DecisionTrace& trace() { return trace_; }
  const DecisionTrace& trace() const { return trace_; }

  /// Total gear actuations across ranks in the current job (trace-independent).
  std::uint64_t actuations() const;

 private:
  struct RankState {
    PowerWindow total_w;      // all components
    PowerWindow cpu_delta_w;  // frequency-sensitive share (for up-prediction)
    std::unique_ptr<Policy> policy;
    int comm_depth = 0;       // nested communication phase markers
    double last_decision_t = -1e300;
    std::uint64_t actuations = 0;
  };

  void on_sample(sim::RankCtx& ctx, const powerpack::StreamSample& sample);
  void on_phase(sim::RankCtx& ctx, const std::string& name, bool begin);
  void decide(sim::RankCtx& ctx, RankState& st, double t, bool forced);
  RankState& state_of(int rank);

  sim::MachineSpec machine_;
  GovernorSpec spec_;
  PolicyFactory factory_;
  powerpack::StreamingSampler sampler_;
  std::vector<std::unique_ptr<RankState>> ranks_;
  int nranks_ = 0;
  DecisionTrace trace_;
};

}  // namespace isoee::governor
