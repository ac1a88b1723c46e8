#include "governor/governor.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/log.hpp"

namespace isoee::governor {

PhaseKind classify_phase(std::string_view name) {
  static constexpr std::array<std::string_view, 9> kCommTokens = {
      "allreduce", "allgather", "alltoall", "transpose", "barrier",
      "bcast",     "scatter",   "exchange", "comm"};
  for (const auto& token : kCommTokens) {
    if (name.find(token) != std::string_view::npos) return PhaseKind::kCommunication;
  }
  return PhaseKind::kCompute;
}

Governor::Governor(sim::MachineSpec machine, GovernorSpec spec, PolicyFactory factory)
    : machine_(std::move(machine)), spec_(spec), factory_(std::move(factory)),
      sampler_(machine_) {
  if (!factory_) throw std::invalid_argument("Governor: null policy factory");
  sampler_.subscribe(
      [this](sim::RankCtx& ctx, const powerpack::StreamSample& s) { on_sample(ctx, s); });
}

void Governor::begin_job(int nranks) {
  if (nranks <= 0) throw std::invalid_argument("Governor::begin_job: nranks must be positive");
  nranks_ = nranks;
  ranks_.clear();
  ranks_.reserve(static_cast<std::size_t>(nranks));
  const double floor_w = machine_.power.system_idle_w();
  for (int r = 0; r < nranks; ++r) {
    auto st = std::make_unique<RankState>();
    st->total_w = PowerWindow(spec_.window_s, floor_w);
    st->cpu_delta_w = PowerWindow(spec_.window_s, 0.0);
    st->policy = factory_();
    ranks_.push_back(std::move(st));
  }
  trace_.clear();
}

std::function<void(sim::RankCtx&, const sim::Segment&)> Governor::engine_hook() {
  return sampler_.engine_hook();
}

powerpack::PhaseLog::Observer Governor::phase_hook() {
  return [this](sim::RankCtx& ctx, const std::string& name, bool begin) {
    on_phase(ctx, name, begin);
  };
}

std::uint64_t Governor::actuations() const {
  std::uint64_t n = 0;
  for (const auto& st : ranks_) n += st->actuations;
  return n;
}

Governor::RankState& Governor::state_of(int rank) {
  if (rank < 0 || rank >= nranks_) {
    throw std::out_of_range("Governor: rank outside begin_job range");
  }
  return *ranks_[static_cast<std::size_t>(rank)];
}

void Governor::on_sample(sim::RankCtx& ctx, const powerpack::StreamSample& sample) {
  RankState& st = state_of(sample.rank);
  const auto& pw = machine_.power;
  st.total_w.push(sample.t0, sample.duration, sample.power.total_w());
  // Frequency-sensitive share: the CPU power above idle (the f^gamma part).
  st.cpu_delta_w.push(sample.t0, sample.duration,
                      std::max(0.0, sample.power.cpu_w - pw.cpu_idle_w));
  const double t = sample.t0 + sample.duration;
  if (t - st.last_decision_t >= spec_.decision_interval_s) {
    decide(ctx, st, t, /*forced=*/false);
  }
}

void Governor::on_phase(sim::RankCtx& ctx, const std::string& name, bool begin) {
  if (classify_phase(name) != PhaseKind::kCommunication) return;
  RankState& st = state_of(ctx.rank());
  if (begin) {
    ++st.comm_depth;
    if (st.comm_depth == 1) decide(ctx, st, ctx.now(), /*forced=*/true);
  } else {
    if (st.comm_depth > 0) --st.comm_depth;
    if (st.comm_depth == 0) decide(ctx, st, ctx.now(), /*forced=*/true);
  }
}

void Governor::decide(sim::RankCtx& ctx, RankState& st, double t, bool forced) {
  Observation obs;
  obs.t = t;
  obs.rank = ctx.rank();
  obs.nranks = nranks_;
  obs.phase = st.comm_depth > 0 ? PhaseKind::kCommunication : PhaseKind::kCompute;
  obs.current_ghz = ctx.frequency();
  obs.rank_w = st.total_w.average_w(t);
  obs.rank_cpu_delta_w = st.cpu_delta_w.average_w(t);
  const double n = static_cast<double>(nranks_);
  obs.node_w = obs.rank_w * machine_.cores_per_node();
  obs.cluster_w = obs.rank_w * n;
  obs.cluster_cpu_delta_w = obs.rank_cpu_delta_w * n;
  obs.cap_w = spec_.cap_w;

  const Decision d = st.policy->decide(obs);
  st.last_decision_t = t;

  const double before = ctx.frequency();
  double after = before;
  if (d.f_ghz > 0.0 && d.f_ghz != before) after = ctx.set_frequency(d.f_ghz);
  const bool changed = after != before;
  if (changed) ++st.actuations;

  if (changed) {
    ISOEE_TRACE("governor: rank %d t=%.6f %s gear %.2f -> %.2f (%s)", obs.rank, t,
                obs.phase == PhaseKind::kCommunication ? "comm" : "compute", before,
                after, d.reason);
  }
  // The local Observation above shadows the obs namespace, hence the
  // fully-qualified emission. Instants only for actuations and forced
  // (phase-boundary) decisions — hold decisions would swamp the trace.
  if (::isoee::obs::TraceSink* sink = ctx.trace_sink(); sink != nullptr &&
                                                        (changed || forced)) {
    ::isoee::obs::emit_instant(
        *sink, obs.rank, "governor", changed ? "actuate" : "decision", t,
        {::isoee::obs::arg_str(
             "phase", obs.phase == PhaseKind::kCommunication ? "comm" : "compute"),
         ::isoee::obs::arg_num("gear_before", before),
         ::isoee::obs::arg_num("gear_after", after),
         ::isoee::obs::arg_num("rank_w", obs.rank_w),
         ::isoee::obs::arg_num("cluster_w", obs.cluster_w),
         ::isoee::obs::arg_num("cap_w", obs.cap_w),
         ::isoee::obs::arg_str("policy", st.policy->name()),
         ::isoee::obs::arg_str("reason", d.reason)});
  }

  if (!spec_.trace) return;
  if (!changed && !forced) return;
  DecisionRecord rec;
  rec.t = t;
  rec.rank = obs.rank;
  rec.phase = obs.phase;
  rec.rank_w = obs.rank_w;
  rec.cluster_w = obs.cluster_w;
  rec.gear_before = before;
  rec.gear_after = after;
  rec.predicted_w = d.predicted_w;
  rec.predicted_ee = d.predicted_ee;
  // Observed EE: the model's EE estimate rescaled by the observed-vs-predicted
  // cluster power (EE = E1 / (P_p * T_p), so at fixed E1 and T_p the ratio of
  // powers is the ratio of EEs). Zero when the policy carries no model.
  if (d.predicted_ee > 0.0 && d.predicted_w > 0.0 && obs.cluster_w > 0.0) {
    rec.observed_ee = d.predicted_ee * d.predicted_w / obs.cluster_w;
  }
  rec.policy = st.policy->name();
  rec.reason = d.reason;
  trace_.append(std::move(rec));
}

}  // namespace isoee::governor
