#include "governor/policies.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace isoee::governor {

namespace {

/// Shared comm-gear resolution: explicit gear wins, else the lowest gear in
/// the (descending) list.
double effective_comm_gear(const std::vector<double>& gears, double comm_gear_ghz) {
  return comm_gear_ghz > 0.0 ? comm_gear_ghz : gears.back();
}

// ---------------------------------------------------------------------------
// NoopPolicy
// ---------------------------------------------------------------------------

class NoopPolicy final : public Policy {
 public:
  const char* name() const override { return "noop"; }
  Decision decide(const Observation& obs) override {
    Decision d;
    d.f_ghz = obs.current_ghz;
    d.reason = "noop";
    return d;
  }
};

// ---------------------------------------------------------------------------
// Communication-phase gear handling shared by CapPolicy and EeTargetPolicy:
// save the compute gear on phase entry, run the comm gear, restore on exit.
// ---------------------------------------------------------------------------

class CommGearMixin {
 protected:
  /// Returns true (and fills `out`) when the observation is handled as a
  /// communication-phase transition; `compute_idx` is the index the caller
  /// will resume at. `gears` is the descending gear list.
  bool handle_comm(const Observation& obs, const std::vector<double>& gears,
                   double comm_gear_ghz, int compute_idx, Decision& out) {
    if (obs.phase == PhaseKind::kCommunication) {
      if (!in_comm_) {
        in_comm_ = true;
        saved_idx_ = compute_idx;
      }
      out.f_ghz = effective_comm_gear(gears, comm_gear_ghz);
      out.reason = "comm-gear";
      return true;
    }
    if (in_comm_) {
      in_comm_ = false;
      out.f_ghz = gears[static_cast<std::size_t>(saved_idx_)];
      out.reason = "comm-restore";
      return true;
    }
    return false;
  }

  int saved_compute_idx(int fallback) const { return in_comm_ ? saved_idx_ : fallback; }
  bool in_comm() const { return in_comm_; }

 private:
  bool in_comm_ = false;
  int saved_idx_ = 0;
};

// ---------------------------------------------------------------------------
// CapPolicy
// ---------------------------------------------------------------------------

class CapPolicy final : public Policy, CommGearMixin {
 public:
  explicit CapPolicy(CapPolicyConfig cfg) : cfg_(std::move(cfg)) {
    if (cfg_.gears_ghz.empty()) throw std::invalid_argument("CapPolicy: no gears");
    if (cfg_.cap_w <= 0.0) throw std::invalid_argument("CapPolicy: cap must be positive");
  }

  const char* name() const override { return "cap"; }

  Decision decide(const Observation& obs) override {
    Decision d;
    if (handle_comm(obs, cfg_.gears_ghz, cfg_.comm_gear_ghz, idx_, d)) {
      // Re-sync idx_ after a restore so dwell logic resumes from the compute gear.
      if (!in_comm()) idx_ = index_of(d.f_ghz);
      return d;
    }

    const int last = static_cast<int>(cfg_.gears_ghz.size()) - 1;
    const double p = obs.cluster_w;
    const double enforce = cfg_.cap_w * (1.0 - cfg_.guard_band);
    const double release = enforce * (1.0 - cfg_.release_band);

    d.predicted_w = p;
    if (p > enforce && idx_ < last && obs.t - last_change_t_ >= cfg_.min_dwell_s) {
      ++idx_;
      last_change_t_ = obs.t;
      d.reason = "cap-down";
    } else if (p > enforce && idx_ >= last) {
      d.reason = "cap-clamped";  // cap unreachable even at the lowest gear
    } else if (p < release && idx_ > 0 && obs.t - last_change_t_ >= cfg_.up_dwell_s &&
               predicted_up_w(obs) <= release) {
      d.predicted_w = predicted_up_w(obs);
      --idx_;
      last_change_t_ = obs.t;
      d.reason = "cap-up";
    } else {
      d.reason = "hold";
    }
    d.f_ghz = cfg_.gears_ghz[static_cast<std::size_t>(idx_)];
    return d;
  }

 private:
  int index_of(double ghz) const {
    for (std::size_t i = 0; i < cfg_.gears_ghz.size(); ++i) {
      if (cfg_.gears_ghz[i] == ghz) return static_cast<int>(i);
    }
    return static_cast<int>(cfg_.gears_ghz.size()) - 1;
  }

  /// Predicted cluster power after stepping one gear up: the observed
  /// frequency-sensitive share scales as (f_up / f)^gamma (Eq 20).
  double predicted_up_w(const Observation& obs) const {
    if (idx_ == 0) return obs.cluster_w;
    const double f = cfg_.gears_ghz[static_cast<std::size_t>(idx_)];
    const double f_up = cfg_.gears_ghz[static_cast<std::size_t>(idx_ - 1)];
    const double scale = std::pow(f_up / f, cfg_.gamma) - 1.0;
    return obs.cluster_w + obs.cluster_cpu_delta_w * scale;
  }

  CapPolicyConfig cfg_;
  int idx_ = 0;  // current gear index (0 = fastest)
  double last_change_t_ = -1e300;
};

// ---------------------------------------------------------------------------
// EeTargetPolicy
// ---------------------------------------------------------------------------

class EeTargetPolicy final : public Policy, CommGearMixin {
 public:
  explicit EeTargetPolicy(const EeTargetConfig& cfg) : cfg_(cfg) {
    if (cfg_.gears_ghz.empty()) throw std::invalid_argument("EeTargetPolicy: no gears");
    if (cfg_.workload == nullptr) throw std::invalid_argument("EeTargetPolicy: no workload");
    // Evaluate the calibrated model once per gear; decisions then look the
    // answers up (the model is static in (n, p, f) for a running job).
    const auto app = cfg_.workload->at(cfg_.n, cfg_.p);
    per_gear_.reserve(cfg_.gears_ghz.size());
    for (double g : cfg_.gears_ghz) {
      model::IsoEnergyModel m(cfg_.machine.at_frequency(g));
      const auto perf = m.predict_performance(app);
      const auto energy = m.predict_energy(app);
      GearEval e;
      e.ghz = g;
      e.ee = energy.EE;
      e.cluster_w = perf.Tp > 0.0 ? energy.Ep / perf.Tp : 0.0;
      per_gear_.push_back(e);
    }
    choose_compute_gear();
  }

  const char* name() const override { return "ee-target"; }

  Decision decide(const Observation& obs) override {
    Decision d;
    if (handle_comm(obs, cfg_.gears_ghz, cfg_.comm_gear_ghz, chosen_idx_, d)) {
      d.predicted_ee = per_gear_[static_cast<std::size_t>(chosen_idx_)].ee;
      return d;
    }
    const auto& e = per_gear_[static_cast<std::size_t>(chosen_idx_)];
    d.f_ghz = e.ghz;
    d.predicted_w = e.cluster_w;
    d.predicted_ee = e.ee;
    d.reason = target_met_ ? "ee-target" : "ee-best";
    return d;
  }

 private:
  struct GearEval {
    double ghz = 0.0;
    double ee = 0.0;
    double cluster_w = 0.0;
  };

  /// Cheapest (lowest predicted power) gear with EE >= target; max-EE gear
  /// when the target is unreachable at every gear.
  void choose_compute_gear() {
    int best_cheap = -1;
    int best_ee = 0;
    for (std::size_t i = 0; i < per_gear_.size(); ++i) {
      const auto& e = per_gear_[i];
      if (e.ee >= cfg_.ee_target &&
          (best_cheap < 0 ||
           e.cluster_w < per_gear_[static_cast<std::size_t>(best_cheap)].cluster_w)) {
        best_cheap = static_cast<int>(i);
      }
      if (e.ee > per_gear_[static_cast<std::size_t>(best_ee)].ee) {
        best_ee = static_cast<int>(i);
      }
    }
    target_met_ = best_cheap >= 0;
    chosen_idx_ = target_met_ ? best_cheap : best_ee;
  }

  EeTargetConfig cfg_;
  std::vector<GearEval> per_gear_;
  int chosen_idx_ = 0;
  bool target_met_ = false;
};

}  // namespace

PolicyFactory make_noop_policy() {
  return [] { return std::make_unique<NoopPolicy>(); };
}

PolicyFactory make_cap_policy(CapPolicyConfig config) {
  return [config] { return std::make_unique<CapPolicy>(config); };
}

PolicyFactory make_ee_target_policy(EeTargetConfig config) {
  return [config] { return std::make_unique<EeTargetPolicy>(config); };
}

}  // namespace isoee::governor
