// PowerPack-style power profiling for the simulated cluster.
//
// Real PowerPack attaches meters to each node component and synchronises the
// sampled power with application activity. Here the simulator's per-rank
// Segment timelines play the role of the sensed hardware: the Profiler turns
// them into component power-vs-time samples (Fig 10 of the paper) and into
// energy integrals that can be cross-checked against the engine's closed-form
// energy accounting (a conservation-of-energy test).
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "sim/engine.hpp"

namespace isoee::powerpack {

/// Component power at an instant, in watts.
struct PowerSample {
  double t = 0.0;
  double cpu_w = 0.0;
  double mem_w = 0.0;
  double io_w = 0.0;
  double other_w = 0.0;

  double total_w() const { return cpu_w + mem_w + io_w + other_w; }
};

/// Options for the virtual sampling process.
struct SampleOptions {
  double interval_s = 0.001;  // sampling period (virtual seconds)
  bool sensor_noise = false;  // apply NoiseSpec::sensor_sigma jitter
  std::uint64_t noise_seed = 0xB0B3ULL;
};

/// One sensed span delivered to streaming subscribers: the rank's component
/// power over [t0, t0 + duration) of its virtual timeline.
struct StreamSample {
  int rank = 0;
  double t0 = 0.0;
  double duration = 0.0;
  PowerSample power;  // constant over the span (segments are homogeneous)
};

/// Online counterpart of the Profiler: instead of post-processing recorded
/// traces, it converts each finished engine segment to a power sample *as the
/// simulated application runs* and fans it out to subscribers (the runtime
/// governor's sensor feed). Wire it up with
///
///   sim::EngineOptions opts;
///   opts.on_segment = sampler.engine_hook();
///
/// Callbacks run on the emitting rank's host thread; subscribers observing
/// cross-rank state must synchronise (or, for determinism, derive decisions
/// only from per-rank streams — see docs/GOVERNOR.md).
class StreamingSampler {
 public:
  using Callback = std::function<void(sim::RankCtx&, const StreamSample&)>;

  explicit StreamingSampler(sim::MachineSpec spec) : spec_(std::move(spec)) {}

  /// Registers a subscriber. Not thread-safe: subscribe before Engine::run.
  void subscribe(Callback cb) { subscribers_.push_back(std::move(cb)); }

  /// Converts one finished segment to a StreamSample and notifies subscribers.
  void feed(sim::RankCtx& ctx, const sim::Segment& seg) const;

  /// Adapter bound to this sampler for EngineOptions::on_segment.
  std::function<void(sim::RankCtx&, const sim::Segment&)> engine_hook();

  const sim::MachineSpec& machine() const { return spec_; }

 private:
  sim::MachineSpec spec_;
  std::vector<Callback> subscribers_;
};

class Profiler {
 public:
  explicit Profiler(sim::MachineSpec spec) : spec_(std::move(spec)) {}

  /// Instantaneous component power of one rank at virtual time `t`, derived
  /// from its segment timeline. Times past the end of the trace report idle.
  PowerSample power_at(std::span<const sim::Segment> trace, double t) const;

  /// Samples one rank's power every `opts.interval_s` from 0 to `t_end`
  /// (default: end of trace).
  std::vector<PowerSample> sample_rank(std::span<const sim::Segment> trace,
                                       const SampleOptions& opts, double t_end = -1.0) const;

  /// Samples the whole job: per-sample sum of all ranks' component powers.
  std::vector<PowerSample> sample_job(const std::vector<std::vector<sim::Segment>>& traces,
                                      const SampleOptions& opts) const;

  /// Left-Riemann energy integral of a sampled profile.
  static double integrate_j(std::span<const PowerSample> samples, double interval_s);

  /// Exact energy of one rank over [t0, t1], integrating its segments
  /// analytically (used for per-phase energy attribution).
  double energy_between_j(std::span<const sim::Segment> trace, double t0, double t1) const;

  const sim::MachineSpec& machine() const { return spec_; }

 private:
  sim::MachineSpec spec_;
};

/// Writes sampled power as CSV (t_s, cpu_W, mem_W, io_W, other_W, total_W).
/// Returns false (and logs) on I/O failure.
bool write_power_csv(std::span<const PowerSample> samples, const std::string& path);

/// Writes per-rank activity timelines as CSV
/// (rank, start_s, duration_s, activity, ghz) — raw material for Gantt-style
/// plots of the simulated execution.
bool write_segments_csv(const std::vector<std::vector<sim::Segment>>& traces,
                        const std::string& path);

}  // namespace isoee::powerpack
