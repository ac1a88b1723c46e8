// Closed-form application-dependent workload models for the three NAS
// benchmarks the paper studies (Section V.B). Each struct mirrors the
// structure the paper derives by algorithm analysis:
//
//   EP — W ~ n, no communication beyond one small allreduce; near-ideal EE.
//   FT — W_c ~ n log n, all-to-all transpose per 3-D FFT modelled with the
//        Pairwise-exchange/Hockney volume (the paper's Section V.B.1).
//   CG — W ~ nnz ~ n per sweep, vector allgather per iteration giving
//        overheads that grow like n(p-1); the strong-scaling DVFS-up case.
//
// Functional *forms* are structural; the numeric coefficients are fitted from
// simulated hardware counters by analysis::fit_* (the paper fits them with
// Perfmon/TAU measurements). The defaults below are the result of that fit on
// the SystemG simulator and let examples run without re-calibrating.
#pragma once

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "model/comm.hpp"
#include "model/params.hpp"

namespace isoee::model {

/// Interface: maps (problem size n, processors p) to the application vector.
class WorkloadModel {
 public:
  virtual ~WorkloadModel() = default;
  virtual AppParams at(double n, int p) const = 0;
  virtual std::string name() const = 0;
};

/// EP (embarrassingly parallel): n Marsaglia-polar trials, one final
/// allreduce of kReduceDoubles doubles. (Paper Section V.B.2.)
struct EpWorkload final : WorkloadModel {
  static constexpr double kReduceDoubles = 13.0;  // 10 annuli + sx + sy + count

  double alpha = 0.93;
  double wc_per_trial = 47.1;   // 22 fixed + 32 * acceptance(~pi/4)
  double wm_per_trial = 0.0156; // ~1/64: generator state is cache resident
  double dwoc_plogp = 26.0;     // allreduce combine work per rank-round
  double dwom_plogp = 0.0;

  AppParams at(double n, int p) const override {
    AppParams a;
    a.alpha = alpha;
    a.n = n;
    a.p = p;
    a.W_c = wc_per_trial * n;
    a.W_m = wm_per_trial * n;
    const double plogp = static_cast<double>(p) * ceil_log2(p);
    a.dW_oc = p > 1 ? dwoc_plogp * plogp : 0.0;
    a.dW_om = p > 1 ? dwom_plogp * plogp : 0.0;
    const CommVolume v = allreduce_volume(p, kReduceDoubles * 8.0);
    a.M = v.messages;
    a.B = v.bytes;
    return a;
  }
  std::string name() const override { return "EP"; }
};

/// FT: (iters+1) 3-D FFTs over n grid points with one all-to-all transpose
/// each, plus an evolve pass and a checksum allreduce per iteration.
/// (Paper Section V.B.1.)
struct FtWorkload final : WorkloadModel {
  double alpha = 0.86;
  int iters = 6;            // NPB FT class-style iteration count

  double wc_nlogn = 8.0 * 7.0;  // coefficient of n*log2(n): ~8 instr/pt/level * (iters+1)
  double wc_n = 100.0;          // coefficient of n: evolve + pack/unpack passes
  double wm_n = 2.4;            // coefficient of n: streaming line misses
  double dwoc_plogp = 0.0;      // fitted: collective combine overhead
  double dwoc_p = 0.0;
  double dwom_plogp = 0.0;
  double dwom_p = 0.0;

  AppParams at(double n, int p) const override {
    AppParams a;
    a.alpha = alpha;
    a.n = n;
    a.p = p;
    a.W_c = wc_nlogn * n * std::log2(std::max(2.0, n)) + wc_n * n;
    a.W_m = wm_n * n;
    const double plogp = static_cast<double>(p) * ceil_log2(p);
    a.dW_oc = p > 1 ? dwoc_plogp * plogp + dwoc_p * p : 0.0;
    a.dW_om = p > 1 ? dwom_plogp * plogp + dwom_p * p : 0.0;

    // Transposes: one per 3-D FFT, blocks of 16*n/p^2 bytes (complex doubles).
    const double block_bytes = 16.0 * n / (static_cast<double>(p) * p);
    CommVolume v = (static_cast<double>(iters) + 1.0) * alltoall_volume(p, block_bytes);
    // Checksum allreduce (one complex value) per iteration.
    v += static_cast<double>(iters) * allreduce_volume(p, 16.0);
    a.M = v.messages;
    a.B = v.bytes;
    return a;
  }
  std::string name() const override { return "FT"; }
};

/// CG: conjugate-gradient sweeps over a sparse SPD matrix with ~nzr nonzeros
/// per row; every inner iteration allgathers the direction vector and
/// allreduces two scalars. (Paper Section V.B.3.)
struct CgWorkload final : WorkloadModel {
  double alpha = 0.85;
  int outer = 15;   // NPB CG outer iterations
  int inner = 25;   // CG iterations per outer step
  double nzr = 13.0;  // average nonzeros per row

  double wc_n = 0.0;       // coefficient of n (per full run; default from fit)
  double wm_n = 0.0;       // coefficient of n
  double dwoc_npm1 = 0.0;  // coefficient of n*(p-1): gathered-vector assembly
  double dwom_npm1 = 0.0;  // coefficient of n*(p-1): remote-vector traffic

  CgWorkload() {
    // Rough structural defaults; analysis::fit_cg_workload refines them.
    const double sweeps = static_cast<double>(outer) * inner;
    wc_n = sweeps * (5.0 * nzr + 12.0);
    wm_n = sweeps * (nzr / 2.0 + 0.5);
    dwoc_npm1 = sweeps * 2.0;
    dwom_npm1 = sweeps * 0.125;
  }

  AppParams at(double n, int p) const override {
    AppParams a;
    a.alpha = alpha;
    a.n = n;
    a.p = p;
    a.W_c = wc_n * n;
    a.W_m = wm_n * n;
    a.dW_oc = dwoc_npm1 * n * (p - 1);
    a.dW_om = dwom_npm1 * n * (p - 1);

    const double sweeps = static_cast<double>(outer) * inner;
    CommVolume v = sweeps * allgather_volume(p, 8.0 * n / p);
    v += sweeps * 2.0 * allreduce_volume(p, 8.0);
    a.M = v.messages;
    a.B = v.bytes;
    return a;
  }
  std::string name() const override { return "CG"; }
};

/// MG: multigrid V-cycles over an n-point grid with halo-plane exchanges.
/// Compute/memory scale with n (geometric sum over levels folds into the
/// coefficient); communication is nearest-neighbour: message count scales
/// with p (each rank exchanges a fixed number of planes per cycle) and bytes
/// with p * (n/p)^(2/3)-ish plane areas. Unlike the collective-based codes,
/// MG's (M, B) are *fitted* from counters (hierarchy depth is configurable),
/// with basis M ~ p, B ~ n^(2/3) * p.
struct MgWorkload final : WorkloadModel {
  double alpha = 0.9;
  int cycles = 4;

  double wc_n = 0.0;      // fitted: instructions per point
  double wm_n = 0.0;      // fitted: effective off-chip accesses per point
  double dwoc_p = 0.0;    // fitted: per-rank fixed overhead
  double dwom_p = 0.0;
  double msgs_p = 0.0;    // fitted: messages per rank
  double bytes_n23p = 0.0;  // fitted: bytes per n^(2/3) per rank

  // Per-application communication specialisation (the paper replaces the
  // general Eq 17 with the Hockney pairwise model for FT the same way):
  // MG's halo exchange sends both z-planes concurrently on a full-duplex
  // link, so the serialized-volume estimate M t_s + B t_w double-counts the
  // byte time; the effective B is halved. Message startups still serialise
  // at injection, so M stays whole.
  double duplex = 0.5;

  AppParams at(double n, int p) const override {
    AppParams a;
    a.alpha = alpha;
    a.n = n;
    a.p = p;
    a.W_c = wc_n * n;
    a.W_m = wm_n * n;
    a.dW_oc = p > 1 ? dwoc_p * p : 0.0;
    a.dW_om = p > 1 ? dwom_p * p : 0.0;
    if (p > 1) {
      a.M = msgs_p * p;
      a.B = duplex * bytes_n23p * std::pow(n, 2.0 / 3.0) * p;
    }
    return a;
  }
  std::string name() const override { return "MG"; }
};

/// IS: integer bucket sort of n keys — histogram, counts exchange, key
/// redistribution (alltoallv), local counting sort. Used to broaden the
/// Fig 3 validation suite.
struct IsWorkload final : WorkloadModel {
  double alpha = 0.95;
  double key_bytes = 4.0;

  double wc_n = 28.0;   // per-key generate+count+scatter+sort instructions
  double wm_n = 1.3;    // per-key effective off-chip accesses
  double dwoc_plogp = 0.0;
  double dwoc_p = 0.0;
  double dwom_plogp = 0.0;
  double dwom_p = 0.0;

  AppParams at(double n, int p) const override {
    AppParams a;
    a.alpha = alpha;
    a.n = n;
    a.p = p;
    a.W_c = wc_n * n;
    a.W_m = wm_n * n;
    const double plogp = static_cast<double>(p) * ceil_log2(p);
    a.dW_oc = p > 1 ? dwoc_plogp * plogp + dwoc_p * p : 0.0;
    a.dW_om = p > 1 ? dwom_plogp * plogp + dwom_p * p : 0.0;

    // Counts exchange + keys redistribution + boundary/verification msgs.
    CommVolume v = alltoall_volume(p, 4.0);  // per-destination int count
    v += alltoallv_volume(p, key_bytes * n * (p - 1) / std::max(1, p));
    if (p > 1) v += CommVolume{static_cast<double>(p - 1), 4.0 * (p - 1)};
    v += 2.0 * allreduce_volume(p, 8.0);
    a.M = v.messages;
    a.B = v.bytes;
    return a;
  }
  std::string name() const override { return "IS"; }
};

/// CKPT: the I/O-path exerciser. Compute/memory scale with n*iterations;
/// total I/O time follows T_io = io_p * p + io_n * n (per-operation latency
/// scales with the number of concurrently written slices; bandwidth time
/// with the data volume). Exercises the model's T_io / DeltaP_io terms.
struct CkptWorkload final : WorkloadModel {
  double alpha = 0.95;
  int iterations = 20;
  int ckpt_every = 5;

  double wc_n = 0.0;   // fitted
  double wm_n = 0.0;   // fitted
  double io_p = 0.0;   // fitted: seconds per processor (latency term)
  double io_n = 0.0;   // fitted: seconds per element (bandwidth term)

  AppParams at(double n, int p) const override {
    AppParams a;
    a.alpha = alpha;
    a.n = n;
    a.p = p;
    a.W_c = wc_n * n;
    a.W_m = wm_n * n;
    a.T_io = io_p * p + io_n * n;
    const CommVolume v = allreduce_volume(p, 8.0);
    a.M = v.messages;
    a.B = v.bytes;
    return a;
  }
  std::string name() const override { return "CKPT"; }
};

/// SWEEP: wavefront pipeline over an n-cell grid. W ~ n per sweep;
/// communication is a downstream pipeline: (p-1) * ntiles messages of
/// tile_w doubles per sweep. The pipeline fill/drain bubbles make per-rank
/// execution inherently *imbalanced*: total bubble time across ranks is
/// structurally W_time * (p-1) / ntiles per sweep, carried by the model's
/// T_idle extension (idle power, no activity deltas). `sec_per_cell` folds
/// the machine's t_c/t_m mix and is fitted from the sequential runs.
struct SweepWorkload final : WorkloadModel {
  double alpha = 0.95;
  int sweeps = 4;
  int tile_w = 64;

  double wc_n = 0.0;          // fitted: instructions per cell
  double wm_n = 0.0;          // fitted: off-chip accesses per cell
  double sec_per_cell = 0.0;  // fitted: issued seconds per cell (one rank)
  double msgs_pm1 = 0.0;      // fitted: messages per (p-1)
  double bytes_pm1n = 0.0;    // fitted: bytes per (p-1)*sqrt(n) (row volume)

  AppParams at(double n, int p) const override {
    AppParams a;
    a.alpha = alpha;
    a.n = n;
    a.p = p;
    a.W_c = wc_n * n;
    a.W_m = wm_n * n;
    const double rows = std::sqrt(n);  // square grids: nx = ny = sqrt(n)
    if (p > 1) {
      a.M = msgs_pm1 * (p - 1);
      a.B = bytes_pm1n * (p - 1) * rows;
      // Pipeline fill/drain: each rank spends (p-1) tile-stages in bubbles
      // over the *whole run* (successive sweeps stream back-to-back, so the
      // pipeline fills only once). One tile-stage is 1/(sweeps*ntiles) of a
      // rank's total work time; summing the per-rank bubbles over p ranks:
      const double ntiles = std::max(1.0, rows / tile_w);
      a.T_idle = sec_per_cell * n * (p - 1) / (ntiles * std::max(1, sweeps));
    }
    return a;
  }
  std::string name() const override { return "SWEEP"; }
};

}  // namespace isoee::model
