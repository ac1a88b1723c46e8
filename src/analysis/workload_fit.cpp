#include "analysis/workload_fit.hpp"

#include <cmath>
#include <functional>

#include "analysis/leastsq.hpp"
#include "model/comm.hpp"

namespace isoee::analysis {

namespace {

/// The p = 1 samples (`parallel` false) or the p > 1 ones (true).
std::vector<CounterSample> where(std::span<const CounterSample> samples, bool parallel) {
  std::vector<CounterSample> out;
  for (const auto& s : samples) {
    if ((s.p > 1) == parallel) out.push_back(s);
  }
  return out;
}

constexpr bool kSequential = false;
constexpr bool kParallel = true;

/// `value` (a member or a function of the sample) for every sample: one
/// column or right-hand side of a fit.
template <class Value>
std::vector<double> column(std::span<const CounterSample> samples, Value value) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const auto& s : samples) out.push_back(static_cast<double>(std::invoke(value, s)));
  return out;
}

double plogp(const CounterSample& s) { return static_cast<double>(s.p) * model::ceil_log2(s.p); }

/// Mean alpha over parallel samples (falls back to all samples).
double mean_alpha(std::span<const CounterSample> samples) {
  const std::vector<CounterSample> par = where(samples, kParallel);
  const std::span<const CounterSample> from = par.empty() ? samples : par;
  double sum = 0.0;
  for (const auto& s : from) sum += s.alpha;
  return from.empty() ? 1.0 : sum / static_cast<double>(from.size());
}

/// Sequential W_c = wc*n and W_m = wm*n (effective accesses); leaves both as
/// they are without sequential samples.
void fit_per_n(std::span<const CounterSample> seq, double t_m, double& wc, double& wm) {
  if (seq.empty()) return;
  const std::vector<double> ns = column(seq, &CounterSample::n);
  wc = ols1(ns, column(seq, &CounterSample::instructions));
  wm = ols1(ns, column(seq, [t_m](const CounterSample& s) { return s.mem_time / t_m; }));
}

/// FT's and IS's overheads over >= 2 parallel samples: dW = a*p*ceil_log2(p) +
/// b*p, as the counter excess over the sequential fit (`seq_wc(n)` and
/// w.wm_n * n). A singular fit leaves its pair as it is.
template <class W, class SeqWc>
void fit_plogp_p_overheads(W& w, std::span<const CounterSample> par, double t_m,
                           SeqWc seq_wc) {
  if (par.size() < 2) return;
  const std::vector<std::vector<double>> cols = {column(par, plogp),
                                                 column(par, &CounterSample::p)};
  const auto dwoc =
      column(par, [&](const CounterSample& s) { return s.instructions - seq_wc(s.n); });
  const auto dwom =
      column(par, [&](const CounterSample& s) { return s.mem_time / t_m - w.wm_n * s.n; });
  if (const OlsResult fit = ols(cols, dwoc); fit.ok) {
    w.dwoc_plogp = fit.coeffs[0];
    w.dwoc_p = fit.coeffs[1];
  }
  if (const OlsResult fit = ols(cols, dwom); fit.ok) {
    w.dwom_plogp = fit.coeffs[0];
    w.dwom_p = fit.coeffs[1];
  }
}

}  // namespace

CounterSample make_sample(const sim::RunResult& run, double n, int p) {
  CounterSample s;
  s.n = n;
  s.p = p;
  s.instructions = static_cast<double>(run.counters.instructions);
  s.mem_accesses = static_cast<double>(run.counters.mem_accesses);
  s.mem_time = run.time.memory_issued;
  s.io_time = run.time.io;
  s.makespan = run.makespan;
  s.messages = static_cast<double>(run.counters.messages_sent);
  s.bytes = static_cast<double>(run.counters.bytes_sent);
  s.alpha = run.mean_alpha();
  return s;
}

model::EpWorkload fit_ep_workload(std::span<const CounterSample> samples, double t_m) {
  model::EpWorkload w;
  const auto par = where(samples, kParallel);
  fit_per_n(where(samples, kSequential), t_m, w.wc_per_trial, w.wm_per_trial);

  // Overheads vs p*ceil_log2(p) (allreduce combine work).
  if (!par.empty()) {
    const auto dwoc =
        column(par, [&](const CounterSample& s) { return s.instructions - w.wc_per_trial * s.n; });
    w.dwoc_plogp = std::max(0.0, ols1(column(par, plogp), dwoc));
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::FtWorkload fit_ft_workload(std::span<const CounterSample> samples, int iters,
                                  double t_m) {
  model::FtWorkload w;
  w.iters = iters;
  const auto seq = where(samples, kSequential);

  // Sequential: W_c = a*n*log2(n) + b*n. The two-column fit needs >= 3
  // sizes — with two, the near-collinear columns (log2 n varies slowly)
  // produce wildly oscillating coefficients; one or two sizes get the stable
  // one-term fit.
  if (!seq.empty()) {
    const auto col_nlogn = column(seq, [](const CounterSample& s) { return s.n * std::log2(s.n); });
    const auto col_n = column(seq, &CounterSample::n);
    const auto instr = column(seq, &CounterSample::instructions);
    if (seq.size() >= 3) {
      const std::vector<std::vector<double>> cols = {col_nlogn, col_n};
      if (const OlsResult fit = ols(cols, instr); fit.ok) {
        w.wc_nlogn = fit.coeffs[0];
        w.wc_n = fit.coeffs[1];
      }
    } else {
      w.wc_nlogn = ols1(col_nlogn, instr);
      w.wc_n = 0.0;
    }
    w.wm_n = ols1(col_n, column(seq, [t_m](const CounterSample& s) { return s.mem_time / t_m; }));
  }

  fit_plogp_p_overheads(w, where(samples, kParallel), t_m, [&w](double n) {
    return w.wc_nlogn * n * std::log2(n) + w.wc_n * n;
  });

  w.alpha = mean_alpha(samples);
  return w;
}

model::CgWorkload fit_cg_workload(std::span<const CounterSample> samples, int outer,
                                  int inner, double nzr, double t_m) {
  model::CgWorkload w;
  w.outer = outer;
  w.inner = inner;
  w.nzr = nzr;
  const auto par = where(samples, kParallel);
  fit_per_n(where(samples, kSequential), t_m, w.wc_n, w.wm_n);

  // Overheads vs n*(p-1): the gathered-vector assembly terms.
  if (!par.empty()) {
    const auto basis = column(par, [](const CounterSample& s) { return s.n * (s.p - 1); });
    const auto dwoc =
        column(par, [&](const CounterSample& s) { return s.instructions - w.wc_n * s.n; });
    const auto dwom =
        column(par, [&](const CounterSample& s) { return s.mem_time / t_m - w.wm_n * s.n; });
    w.dwoc_npm1 = std::max(0.0, ols1(basis, dwoc));
    // The memory overhead may legitimately be *negative*: per-rank working
    // sets shrink with p and more of the raw accesses become cache hits —
    // the paper's own CG vector carries a negative memory-overhead term.
    w.dwom_npm1 = ols1(basis, dwom);
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::IsWorkload fit_is_workload(std::span<const CounterSample> samples, double t_m) {
  model::IsWorkload w;
  fit_per_n(where(samples, kSequential), t_m, w.wc_n, w.wm_n);
  fit_plogp_p_overheads(w, where(samples, kParallel), t_m, [&w](double n) { return w.wc_n * n; });
  w.alpha = mean_alpha(samples);
  return w;
}

model::MgWorkload fit_mg_workload(std::span<const CounterSample> samples, int cycles,
                                  double t_m) {
  model::MgWorkload w;
  w.cycles = cycles;
  const auto par = where(samples, kParallel);
  fit_per_n(where(samples, kSequential), t_m, w.wc_n, w.wm_n);

  if (!par.empty()) {
    const auto col_p = column(par, &CounterSample::p);
    const auto col_n23p =
        column(par, [](const CounterSample& s) { return std::pow(s.n, 2.0 / 3.0) * s.p; });
    const auto dwoc =
        column(par, [&](const CounterSample& s) { return s.instructions - w.wc_n * s.n; });
    const auto dwom =
        column(par, [&](const CounterSample& s) { return s.mem_time / t_m - w.wm_n * s.n; });
    w.dwoc_p = ols1(col_p, dwoc);
    w.dwom_p = ols1(col_p, dwom);
    w.msgs_p = std::max(0.0, ols1(col_p, column(par, &CounterSample::messages)));
    w.bytes_n23p = std::max(0.0, ols1(col_n23p, column(par, &CounterSample::bytes)));
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::CkptWorkload fit_ckpt_workload(std::span<const CounterSample> samples,
                                      int iterations, int ckpt_every, double t_m) {
  model::CkptWorkload w;
  w.iterations = iterations;
  w.ckpt_every = ckpt_every;
  fit_per_n(where(samples, kSequential), t_m, w.wc_n, w.wm_n);

  // I/O time over all samples: T_io = io_p * p + io_n * n.
  if (samples.size() >= 2) {
    const std::vector<std::vector<double>> cols = {column(samples, &CounterSample::p),
                                                   column(samples, &CounterSample::n)};
    const auto io = column(samples, &CounterSample::io_time);
    if (const OlsResult fit = ols(cols, io); fit.ok) {
      w.io_p = std::max(0.0, fit.coeffs[0]);
      w.io_n = std::max(0.0, fit.coeffs[1]);
    }
  }

  w.alpha = mean_alpha(samples);
  return w;
}

model::SweepWorkload fit_sweep_workload(std::span<const CounterSample> samples, int sweeps,
                                        int tile_w, double t_m) {
  model::SweepWorkload w;
  w.sweeps = sweeps;
  w.tile_w = tile_w;
  const auto seq = where(samples, kSequential);
  const auto par = where(samples, kParallel);
  fit_per_n(seq, t_m, w.wc_n, w.wm_n);
  if (!seq.empty()) {
    // One rank's issued seconds per cell.
    w.sec_per_cell = ols1(column(seq, &CounterSample::n), column(seq, &CounterSample::makespan));
  }

  if (!par.empty()) {
    const auto col_pm1 = column(par, [](const CounterSample& s) { return s.p - 1; });
    const auto col_pm1n = column(par, [](const CounterSample& s) {
      return static_cast<double>(s.p - 1) * std::sqrt(s.n);
    });
    w.msgs_pm1 = std::max(0.0, ols1(col_pm1, column(par, &CounterSample::messages)));
    w.bytes_pm1n = std::max(0.0, ols1(col_pm1n, column(par, &CounterSample::bytes)));
  }

  w.alpha = mean_alpha(samples);
  return w;
}

}  // namespace isoee::analysis
