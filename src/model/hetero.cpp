#include "model/hetero.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace isoee::model {

namespace {

int total_processors(std::span<const ProcessorClass> classes) {
  int p = 0;
  for (const auto& cls : classes) p += cls.count;
  return p;
}

/// Per-processor time of executing one unit share (the whole job) of the
/// parallel workload on the given class.
double unit_time(const ProcessorClass& cls, const AppParams& app) {
  const MachineParams& m = cls.machine;
  const double Wc_p = std::max(0.0, app.W_c + app.dW_oc);
  const double Wm_p = std::max(0.0, app.W_m + app.dW_om);
  const double t_net = app.M * m.t_s + app.B * m.t_w;
  return app.alpha * (Wc_p * m.t_c() + Wm_p * m.t_m + t_net + app.T_io);
}

}  // namespace

std::vector<double> balanced_shares(std::span<const ProcessorClass> classes,
                                    const WorkloadModel& workload, double n) {
  const int p_total = total_processors(classes);
  const AppParams app = workload.at(n, std::max(1, p_total));
  std::vector<double> weights;
  weights.reserve(classes.size());
  double sum = 0.0;
  for (const auto& cls : classes) {
    const double t = unit_time(cls, app);
    const double w = t > 0.0 ? static_cast<double>(cls.count) / t : 0.0;
    weights.push_back(w);
    sum += w;
  }
  if (sum <= 0.0) throw std::invalid_argument("balanced_shares: degenerate classes");
  for (auto& w : weights) w /= sum;
  return weights;
}

HeteroPrediction predict_hetero(std::span<const ProcessorClass> classes,
                                const WorkloadModel& workload, double n,
                                std::span<const double> shares, std::size_t reference) {
  if (classes.empty() || shares.size() != classes.size()) {
    throw std::invalid_argument("predict_hetero: classes/shares mismatch");
  }
  if (reference >= classes.size()) {
    throw std::invalid_argument("predict_hetero: bad reference class");
  }
  const int p_total = total_processors(classes);
  const AppParams app = workload.at(n, std::max(1, p_total));

  HeteroPrediction pred;
  pred.shares.assign(shares.begin(), shares.end());
  pred.class_times.resize(classes.size());
  pred.class_energies.resize(classes.size());

  // Class completion times: share of the total issued work, balanced over
  // the class's processors.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const double t = unit_time(classes[c], app);
    pred.class_times[c] =
        classes[c].count > 0 ? shares[c] * t / static_cast<double>(classes[c].count) : 0.0;
    pred.Tp = std::max(pred.Tp, pred.class_times[c]);
  }

  // Energy: idle floors run until the *job* finishes (early classes wait);
  // activity increments accrue on each class's share of the issued work.
  for (std::size_t c = 0; c < classes.size(); ++c) {
    const MachineParams& m = classes[c].machine;
    const double Wc_p = std::max(0.0, app.W_c + app.dW_oc) * shares[c];
    const double Wm_p = std::max(0.0, app.W_m + app.dW_om) * shares[c];
    const double t_net = (app.M * m.t_s + app.B * m.t_w) * shares[c];
    const double t_io = app.T_io * shares[c];
    double e = static_cast<double>(classes[c].count) * pred.Tp * m.p_sys_idle;
    e += Wc_p * m.t_c() * m.dp_c();
    e += Wm_p * m.t_m * m.dp_m;
    e += (t_net + t_io) * m.dp_io;
    e += t_net * m.dp_poll();
    pred.class_energies[c] = e;
    pred.Ep += e;
  }

  // Reference sequential energy (Eq 13 on the reference class).
  IsoEnergyModel ref_model(classes[reference].machine);
  pred.E1_ref = ref_model.predict_energy(app).E1;
  pred.EE = pred.Ep > 0.0 ? std::min(1.0, pred.E1_ref / pred.Ep) : 0.0;
  return pred;
}

HeteroPrediction predict_hetero_balanced(std::span<const ProcessorClass> classes,
                                         const WorkloadModel& workload, double n,
                                         std::size_t reference) {
  const auto shares = balanced_shares(classes, workload, n);
  return predict_hetero(classes, workload, n, shares, reference);
}

double best_split_for_energy(std::span<const ProcessorClass> classes,
                             const WorkloadModel& workload, double n, int steps) {
  if (classes.size() != 2) {
    throw std::invalid_argument("best_split_for_energy: exactly two classes supported");
  }
  double best_share = 0.5;
  double best_energy = std::numeric_limits<double>::infinity();
  for (int i = 0; i <= steps; ++i) {
    const double s0 = static_cast<double>(i) / steps;
    const double shares[] = {s0, 1.0 - s0};
    const auto pred = predict_hetero(classes, workload, n, shares);
    if (pred.Ep < best_energy) {
      best_energy = pred.Ep;
      best_share = s0;
    }
  }
  return best_share;
}

}  // namespace isoee::model
