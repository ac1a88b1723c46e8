#include "check/oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <vector>

#include "model/comm.hpp"
#include "npb/ep.hpp"
#include "obs/drift.hpp"
#include "npb/ft.hpp"
#include "sim/engine.hpp"
#include "smpi/comm.hpp"
#include "util/rng.hpp"

namespace isoee::check {
namespace {

using std::int64_t;
using std::size_t;
using std::uint64_t;

constexpr double kTimeBandRel = 0.10;  // Hockney differential tolerance
constexpr double kEnergyRel = 1e-9;    // energy closure tolerance
constexpr double kFtChecksumRel = 1e-6;  // FT p-vs-1 roundoff band
constexpr double kEpSumRel = 1e-9;       // EP deviate-sum p-vs-1 roundoff band

// --- deterministic case data ------------------------------------------------

/// Element i of rank r's uniform contribution (the convention the existing
/// collective tests use).
int64_t val(int r, size_t i) {
  return 1000 * static_cast<int64_t>(r + 1) + static_cast<int64_t>(i);
}

/// Element i of the block rank r addresses to rank d (alltoall family).
/// Bit-packed so any misrouted block is visible, yet exact under int64
/// summation for the reduce-style checks (p <= 16, i < 2^21 - no carries
/// large enough to overflow).
int64_t val2(int r, int d, size_t i) {
  return (static_cast<int64_t>(r + 1) << 42) | (static_cast<int64_t>(d + 1) << 21) |
         static_cast<int64_t>(i);
}

/// Per-rank variable counts in [0, n] for allgatherv, derived from the seed
/// (zero counts included on purpose: zero-byte ring steps are a tested edge).
std::vector<int> var_counts(const CheckConfig& c, size_t n) {
  uint64_t s = c.seed ^ 0xa11a117e5ULL;
  util::Xoshiro256 rng(util::splitmix64(s));
  std::vector<int> counts(static_cast<size_t>(c.p));
  for (auto& x : counts) x = static_cast<int>(rng.below(n + 1));
  return counts;
}

/// p x p send-count matrix in [0, n] for alltoallv (row r = rank r's
/// send_counts). Every rank derives the full matrix locally.
std::vector<int> var_matrix(const CheckConfig& c, size_t n) {
  uint64_t s = c.seed ^ 0xa117a2a11ULL;
  util::Xoshiro256 rng(util::splitmix64(s));
  std::vector<int> m(static_cast<size_t>(c.p) * static_cast<size_t>(c.p));
  for (auto& x : m) x = static_cast<int>(rng.below(n + 1));
  return m;
}

// --- algorithm resolution ---------------------------------------------------

/// The algorithm the Comm facade will pick for this call: the fixed enum, or
/// the mpich_like tuning table evaluated at this (p, payload) point.
int effective_algo(const CheckConfig& c, size_t n) {
  if (!op_has_algorithms(c.op)) return 0;
  if (!c.tuned) return c.algo;
  const auto tuning = smpi::CollectiveTuning::mpich_like();
  const size_t bytes = n * sizeof(int64_t);
  switch (op_family(c.op)) {
    case smpi::Family::kBcast: return tuning.bcast.select(c.p, bytes);
    case smpi::Family::kAllreduce: return tuning.allreduce.select(c.p, bytes);
    case smpi::Family::kAllgather: return tuning.allgather.select(c.p, bytes);
    case smpi::Family::kAlltoall: return tuning.alltoall.select(c.p, bytes);
  }
  return 0;
}

smpi::CollectiveConfig collective_config(const CheckConfig& c, const sim::MachineSpec& m,
                                         bool geared) {
  smpi::CollectiveConfig cc;
  if (c.tuned) {
    cc.tuning = smpi::CollectiveTuning::mpich_like();
  } else if (op_has_algorithms(c.op)) {
    switch (op_family(c.op)) {
      case smpi::Family::kBcast: cc.bcast = static_cast<smpi::BcastAlgo>(c.algo); break;
      case smpi::Family::kAllreduce:
        cc.allreduce = static_cast<smpi::AllreduceAlgo>(c.algo);
        break;
      case smpi::Family::kAllgather:
        cc.allgather = static_cast<smpi::AllgatherAlgo>(c.algo);
        break;
      case smpi::Family::kAlltoall:
        cc.alltoall = static_cast<smpi::AlltoallAlgo>(c.algo);
        break;
    }
  }
  if (geared) cc.comm_gear_ghz = m.cpu.gears_ghz.back();
  return cc;
}

// --- one simulated run ------------------------------------------------------

struct TagStats {
  uint64_t acquired = 0;
  uint64_t overlap_violations = 0;
  int in_flight = 0;
  int max_in_flight = 0;
};

struct CaseRun {
  sim::RunResult result;
  std::vector<std::vector<int64_t>> out;  // per-rank observable payload
  std::vector<TagStats> tags;
};

/// The planted-bug variant of the ring allgather (FaultInjection): forwards
/// the block received one step *earlier* than the schedule requires, so every
/// rank circulates stale data. Used to validate that the oracle catches it
/// and the shrinker minimizes it.
void buggy_ring_allgather(sim::RankCtx& ctx, std::span<const int64_t> in,
                          std::span<int64_t> out) {
  const int p = ctx.size();
  const int r = ctx.rank();
  const size_t block = in.size();
  std::copy(in.begin(), in.end(),
            out.begin() + static_cast<std::ptrdiff_t>(block * static_cast<size_t>(r)));
  if (p == 1) return;
  const int right = (r + 1) % p;
  const int left = (r - 1 + p) % p;
  for (int s = 0; s < p - 1; ++s) {
    const auto send_block = static_cast<size_t>((r - s - 1 + p) % p);  // off by one
    const auto recv_block = static_cast<size_t>((r - s - 1 + p) % p);
    ctx.send(right, 700 + s,
             std::span<const int64_t>(out.data() + block * send_block, block));
    ctx.recv(left, 700 + s, std::span<int64_t>(out.data() + block * recv_block, block));
  }
}

CaseRun run_case(const CheckConfig& c, size_t n, bool geared, bool perturbed,
                 const FaultInjection& fault) {
  const sim::MachineSpec m = machine_for(c);
  const smpi::CollectiveConfig cc = collective_config(c, m, geared);
  const int eff = effective_algo(c, n);

  sim::EngineOptions opts;
  opts.initial_ghz = m.cpu.gears_ghz[static_cast<size_t>(c.gear_index)];
  if (perturbed) {
    opts.perturb.enabled = true;
    uint64_t s = c.seed ^ 0x9e27b217e57ULL;
    opts.perturb.seed = util::splitmix64(s);
    opts.perturb.yield_probability = 0.25;
    opts.perturb.max_delay_us = 20;
  }

  CaseRun run;
  run.out.resize(static_cast<size_t>(c.p));
  run.tags.resize(static_cast<size_t>(c.p));
  const auto sum = [](int64_t& a, const int64_t& b) { a += b; };

  sim::Engine engine(m, opts);
  run.result = engine.run(c.p, [&](sim::RankCtx& ctx) {
    smpi::Comm comm(ctx, cc);
    const int r = ctx.rank();
    const int p = c.p;
    std::vector<int64_t>& out = run.out[static_cast<size_t>(r)];

    switch (c.op) {
      case OpKind::kBarrier: comm.barrier(); break;
      case OpKind::kBcast: {
        out.assign(n, 0);
        if (r == c.root) {
          for (size_t i = 0; i < n; ++i) out[i] = val(c.root, i);
        }
        comm.bcast(std::span<int64_t>(out), c.root);
        break;
      }
      case OpKind::kReduce: {
        std::vector<int64_t> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = val(r, i);
        out.assign(n, 0);
        comm.reduce_sum(std::span<const int64_t>(in), std::span<int64_t>(out), c.root);
        break;
      }
      case OpKind::kAllreduce: {
        std::vector<int64_t> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = val(r, i);
        out.assign(n, 0);
        comm.allreduce_sum(std::span<const int64_t>(in), std::span<int64_t>(out));
        break;
      }
      case OpKind::kAllgather: {
        std::vector<int64_t> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = val(r, i);
        out.assign(n * static_cast<size_t>(p), 0);
        if (fault.ring_allgather_off_by_one &&
            eff == static_cast<int>(smpi::AllgatherAlgo::kRing)) {
          buggy_ring_allgather(ctx, std::span<const int64_t>(in),
                               std::span<int64_t>(out));
        } else {
          comm.allgather(std::span<const int64_t>(in), std::span<int64_t>(out));
        }
        break;
      }
      case OpKind::kAllgatherv: {
        const std::vector<int> counts = var_counts(c, n);
        std::vector<int64_t> in(static_cast<size_t>(counts[static_cast<size_t>(r)]));
        for (size_t i = 0; i < in.size(); ++i) in[i] = val(r, i);
        size_t total = 0;
        for (int x : counts) total += static_cast<size_t>(x);
        out.assign(total, 0);
        comm.allgatherv(std::span<const int64_t>(in), std::span<int64_t>(out),
                        std::span<const int>(counts));
        break;
      }
      case OpKind::kAlltoall: {
        std::vector<int64_t> in(n * static_cast<size_t>(p));
        for (int d = 0; d < p; ++d) {
          for (size_t i = 0; i < n; ++i) in[static_cast<size_t>(d) * n + i] = val2(r, d, i);
        }
        out.assign(in.size(), 0);
        comm.alltoall(std::span<const int64_t>(in), std::span<int64_t>(out), n);
        break;
      }
      case OpKind::kAlltoallv: {
        const std::vector<int> mat = var_matrix(c, n);
        const auto cell = [&](int a, int b) {
          return mat[static_cast<size_t>(a) * static_cast<size_t>(p) +
                     static_cast<size_t>(b)];
        };
        std::vector<int> send_counts(static_cast<size_t>(p));
        std::vector<int> recv_counts(static_cast<size_t>(p));
        for (int d = 0; d < p; ++d) send_counts[static_cast<size_t>(d)] = cell(r, d);
        for (int s = 0; s < p; ++s) recv_counts[static_cast<size_t>(s)] = cell(s, r);
        std::vector<int64_t> in;
        for (int d = 0; d < p; ++d) {
          for (int i = 0; i < cell(r, d); ++i) {
            in.push_back(val2(r, d, static_cast<size_t>(i)));
          }
        }
        size_t total = 0;
        for (int x : recv_counts) total += static_cast<size_t>(x);
        out.assign(total, 0);
        comm.alltoallv(std::span<const int64_t>(in), std::span<const int>(send_counts),
                       std::span<int64_t>(out), std::span<const int>(recv_counts));
        break;
      }
      case OpKind::kGather: {
        std::vector<int64_t> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = val(r, i);
        out.assign(n * static_cast<size_t>(p), 0);
        comm.gather(std::span<const int64_t>(in), std::span<int64_t>(out), c.root);
        break;
      }
      case OpKind::kScatter: {
        std::vector<int64_t> in(n * static_cast<size_t>(p));
        for (int d = 0; d < p; ++d) {
          for (size_t i = 0; i < n; ++i) {
            in[static_cast<size_t>(d) * n + i] = val2(c.root, d, i);
          }
        }
        out.assign(n, 0);
        comm.scatter(std::span<const int64_t>(in), std::span<int64_t>(out), c.root);
        break;
      }
      case OpKind::kScan: {
        std::vector<int64_t> in(n);
        for (size_t i = 0; i < n; ++i) in[i] = val(r, i);
        out.assign(n, 0);
        comm.scan(std::span<const int64_t>(in), std::span<int64_t>(out), sum);
        break;
      }
      case OpKind::kReduceScatter: {
        std::vector<int64_t> in(n * static_cast<size_t>(p));
        for (int b = 0; b < p; ++b) {
          for (size_t i = 0; i < n; ++i) in[static_cast<size_t>(b) * n + i] = val2(r, b, i);
        }
        out.assign(n, 0);
        comm.reduce_scatter(std::span<const int64_t>(in), std::span<int64_t>(out), sum);
        break;
      }
      case OpKind::kKernelEp: {
        npb::EpConfig e;
        e.trials = 1 << 13;
        e.collectives = cc;
        const npb::EpResult res = npb::ep_rank(ctx, e);
        out.push_back(std::bit_cast<int64_t>(res.sx));
        out.push_back(std::bit_cast<int64_t>(res.sy));
        out.push_back(static_cast<int64_t>(res.pairs));
        for (uint64_t count : res.counts) out.push_back(static_cast<int64_t>(count));
        break;
      }
      case OpKind::kKernelFt: {
        npb::FtConfig f;
        f.nx = f.ny = f.nz = 16;
        f.iters = 2;
        f.collectives = cc;
        const npb::FtResult res = npb::ft_rank(ctx, f);
        for (const auto& z : res.checksums) {
          out.push_back(std::bit_cast<int64_t>(z.real()));
          out.push_back(std::bit_cast<int64_t>(z.imag()));
        }
        break;
      }
    }

    const smpi::TagAllocator& ta = comm.tag_allocator();
    run.tags[static_cast<size_t>(r)] = {ta.acquired(), ta.overlap_violations(),
                                        ta.in_flight(), ta.max_in_flight()};
  });
  return run;
}

// --- expected payloads ------------------------------------------------------

/// Expected output payload per rank; a disengaged optional means the rank's
/// buffer is not specified by the collective (e.g. non-root reduce output).
std::vector<std::optional<std::vector<int64_t>>> expected_payloads(const CheckConfig& c,
                                                                   size_t n) {
  const int p = c.p;
  std::vector<std::optional<std::vector<int64_t>>> exp(static_cast<size_t>(p));
  switch (c.op) {
    case OpKind::kBarrier: {
      for (auto& e : exp) e.emplace();
      break;
    }
    case OpKind::kBcast: {
      std::vector<int64_t> buf(n);
      for (size_t i = 0; i < n; ++i) buf[i] = val(c.root, i);
      for (auto& e : exp) e = buf;
      break;
    }
    case OpKind::kReduce: {
      std::vector<int64_t> sum(n);
      for (size_t i = 0; i < n; ++i) {
        sum[i] = 1000 * static_cast<int64_t>(p) * (p + 1) / 2 +
                 static_cast<int64_t>(p) * static_cast<int64_t>(i);
      }
      exp[static_cast<size_t>(c.root)] = std::move(sum);
      break;
    }
    case OpKind::kAllreduce: {
      std::vector<int64_t> sum(n);
      for (size_t i = 0; i < n; ++i) {
        sum[i] = 1000 * static_cast<int64_t>(p) * (p + 1) / 2 +
                 static_cast<int64_t>(p) * static_cast<int64_t>(i);
      }
      for (auto& e : exp) e = sum;
      break;
    }
    case OpKind::kAllgather: {
      std::vector<int64_t> all(n * static_cast<size_t>(p));
      for (int q = 0; q < p; ++q) {
        for (size_t i = 0; i < n; ++i) all[static_cast<size_t>(q) * n + i] = val(q, i);
      }
      for (auto& e : exp) e = all;
      break;
    }
    case OpKind::kAllgatherv: {
      const std::vector<int> counts = var_counts(c, n);
      std::vector<int64_t> all;
      for (int q = 0; q < p; ++q) {
        for (int i = 0; i < counts[static_cast<size_t>(q)]; ++i) {
          all.push_back(val(q, static_cast<size_t>(i)));
        }
      }
      for (auto& e : exp) e = all;
      break;
    }
    case OpKind::kAlltoall: {
      for (int r = 0; r < p; ++r) {
        std::vector<int64_t> mine(n * static_cast<size_t>(p));
        for (int s = 0; s < p; ++s) {
          for (size_t i = 0; i < n; ++i) mine[static_cast<size_t>(s) * n + i] = val2(s, r, i);
        }
        exp[static_cast<size_t>(r)] = std::move(mine);
      }
      break;
    }
    case OpKind::kAlltoallv: {
      const std::vector<int> mat = var_matrix(c, n);
      for (int r = 0; r < p; ++r) {
        std::vector<int64_t> mine;
        for (int s = 0; s < p; ++s) {
          const int cnt = mat[static_cast<size_t>(s) * static_cast<size_t>(p) +
                              static_cast<size_t>(r)];
          for (int i = 0; i < cnt; ++i) mine.push_back(val2(s, r, static_cast<size_t>(i)));
        }
        exp[static_cast<size_t>(r)] = std::move(mine);
      }
      break;
    }
    case OpKind::kGather: {
      std::vector<int64_t> all(n * static_cast<size_t>(p));
      for (int q = 0; q < p; ++q) {
        for (size_t i = 0; i < n; ++i) all[static_cast<size_t>(q) * n + i] = val(q, i);
      }
      exp[static_cast<size_t>(c.root)] = std::move(all);
      break;
    }
    case OpKind::kScatter: {
      for (int r = 0; r < p; ++r) {
        std::vector<int64_t> mine(n);
        for (size_t i = 0; i < n; ++i) mine[i] = val2(c.root, r, i);
        exp[static_cast<size_t>(r)] = std::move(mine);
      }
      break;
    }
    case OpKind::kScan: {
      for (int r = 0; r < p; ++r) {
        std::vector<int64_t> mine(n);
        for (size_t i = 0; i < n; ++i) {
          mine[i] = 1000 * static_cast<int64_t>(r + 1) * (r + 2) / 2 +
                    static_cast<int64_t>(r + 1) * static_cast<int64_t>(i);
        }
        exp[static_cast<size_t>(r)] = std::move(mine);
      }
      break;
    }
    case OpKind::kReduceScatter: {
      for (int r = 0; r < p; ++r) {
        std::vector<int64_t> mine(n);
        for (size_t i = 0; i < n; ++i) {
          int64_t s = 0;
          for (int q = 0; q < p; ++q) s += val2(q, r, i);
          mine[i] = s;
        }
        exp[static_cast<size_t>(r)] = std::move(mine);
      }
      break;
    }
    case OpKind::kKernelEp:
    case OpKind::kKernelFt:
      // Kernels are checked by rank-identity and the p-vs-1 reference run.
      break;
  }
  return exp;
}

// --- closed-form communication volumes --------------------------------------

/// The exact (messages, bytes) total the smpi implementation of this config
/// must produce; disengaged for the kernels (their volume is checked by the
/// dedicated model tests, not per fuzz case).
std::optional<model::CommVolume> expected_volume(const CheckConfig& c, size_t n) {
  const int p = c.p;
  const double B = static_cast<double>(n * sizeof(int64_t));
  const int eff = effective_algo(c, n);
  switch (c.op) {
    case OpKind::kBarrier: return model::barrier_volume(p);
    case OpKind::kBcast: return model::bcast_volume(p, B);  // binomial == linear
    case OpKind::kReduce: return model::reduce_volume(p, B);
    case OpKind::kAllreduce:
      if (eff == static_cast<int>(smpi::AllreduceAlgo::kReduceBcast)) {
        return p <= 1 ? model::CommVolume{}
                      : model::reduce_volume(p, B) + model::bcast_volume(p, B);
      }
      return model::allreduce_volume(p, B);
    case OpKind::kAllgather:
      if (eff == static_cast<int>(smpi::AllgatherAlgo::kGatherBcast)) {
        // gather: p-1 block messages; bcast of the assembled p-block buffer.
        return model::scatter_volume(p, B) +
               model::bcast_volume(p, B * static_cast<double>(p));
      }
      return model::allgather_volume(p, B);
    case OpKind::kAllgatherv: {
      if (p <= 1) return model::CommVolume{};
      const std::vector<int> counts = var_counts(c, n);
      double total = 0.0;
      for (int x : counts) total += static_cast<double>(x) * sizeof(int64_t);
      // Every block visits every other rank: p-1 forwards of each, and every
      // rank sends exactly one (possibly empty) message per ring step.
      return model::CommVolume{static_cast<double>(p) * (p - 1),
                               static_cast<double>(p - 1) * total};
    }
    case OpKind::kAlltoall:
      switch (static_cast<smpi::AlltoallAlgo>(eff)) {
        case smpi::AlltoallAlgo::kPairwise:
        case smpi::AlltoallAlgo::kNaive: return model::alltoall_volume(p, B);
        case smpi::AlltoallAlgo::kRing: {
          if (p <= 1) return model::CommVolume{};
          // The block for offset s travels s hops: p * sum_s s messages.
          const double msgs =
              static_cast<double>(p) * (static_cast<double>(p) * (p - 1) / 2.0);
          return model::CommVolume{msgs, msgs * B};
        }
        case smpi::AlltoallAlgo::kBruck: return model::bruck_alltoall_volume(p, B);
      }
      return model::alltoall_volume(p, B);
    case OpKind::kAlltoallv: {
      if (p <= 1) return model::CommVolume{};
      const std::vector<int> mat = var_matrix(c, n);
      double nonlocal = 0.0;
      for (int r = 0; r < p; ++r) {
        for (int d = 0; d < p; ++d) {
          if (r == d) continue;
          nonlocal += static_cast<double>(mat[static_cast<size_t>(r) *
                                                  static_cast<size_t>(p) +
                                              static_cast<size_t>(d)]) *
                      sizeof(int64_t);
        }
      }
      return model::alltoallv_volume(p, nonlocal);
    }
    case OpKind::kGather:
    case OpKind::kScatter: return model::scatter_volume(p, B);
    case OpKind::kScan: return model::scan_volume(p, B);
    case OpKind::kReduceScatter: return model::reduce_scatter_volume(p, B);
    case OpKind::kKernelEp:
    case OpKind::kKernelFt: return std::nullopt;
  }
  return std::nullopt;
}

/// The exact intra/inter-node locality split, for the op/algorithm pairs the
/// model library has split forms for.
std::optional<model::SplitVolume> expected_split(const CheckConfig& c, size_t n,
                                                 const sim::MachineSpec& m) {
  const model::Topology t{c.p, m.cores_per_node()};
  const double B = static_cast<double>(n * sizeof(int64_t));
  const int eff = effective_algo(c, n);
  switch (c.op) {
    case OpKind::kBarrier: return model::barrier_split_volume(t);
    case OpKind::kBcast:
      if (eff == static_cast<int>(smpi::BcastAlgo::kBinomial)) {
        return model::bcast_split_volume(t, B, c.root);
      }
      return std::nullopt;
    case OpKind::kAllreduce:
      if (eff == static_cast<int>(smpi::AllreduceAlgo::kRecursiveDoubling)) {
        return c.p <= 1 ? model::SplitVolume{} : model::allreduce_split_volume(t, B);
      }
      return std::nullopt;
    case OpKind::kAllgather:
      if (eff == static_cast<int>(smpi::AllgatherAlgo::kRing)) {
        return model::allgather_split_volume(t, B);
      }
      return std::nullopt;
    case OpKind::kAlltoall:
      if (eff == static_cast<int>(smpi::AlltoallAlgo::kPairwise)) {
        return model::alltoall_split_volume(t, B);
      }
      return std::nullopt;
    default: return std::nullopt;
  }
}

// --- digests and derived energies -------------------------------------------

uint64_t fnv_mix(uint64_t h, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t bits(double d) { return std::bit_cast<uint64_t>(d); }

/// Bit-exact digest of everything observable about a run: payloads, virtual
/// times, energies, and counters. Two runs of the same config must collide.
uint64_t digest(const CaseRun& run) {
  uint64_t h = 0xcbf29ce484222325ULL;
  h = fnv_mix(h, bits(run.result.makespan));
  h = fnv_mix(h, bits(run.result.energy.total));
  for (size_t r = 0; r < run.out.size(); ++r) {
    for (int64_t v : run.out[r]) h = fnv_mix(h, static_cast<uint64_t>(v));
    const sim::RankResult& rr = run.result.ranks[r];
    h = fnv_mix(h, bits(rr.time.total));
    h = fnv_mix(h, bits(rr.energy.total));
    h = fnv_mix(h, bits(rr.energy.cpu));
    h = fnv_mix(h, rr.counters.messages_sent);
    h = fnv_mix(h, rr.counters.bytes_sent);
    h = fnv_mix(h, rr.counters.messages_received);
    h = fnv_mix(h, rr.counters.bytes_received);
    h = fnv_mix(h, rr.counters.messages_intra_node);
    h = fnv_mix(h, rr.counters.bytes_intra_node);
    h = fnv_mix(h, rr.counters.instructions);
    h = fnv_mix(h, rr.counters.dvfs_transitions);
  }
  return h;
}

/// CPU active-increment energy of a whole run: sum over gears of issued
/// compute seconds (plus the busy-poll share of network seconds) times the
/// frequency-dependent CPU power delta. This is the quantity communication
/// gear-down must never raise (DeltaP_c ~ f^gamma, gamma >= 1), even when
/// total energy rises through a longer makespan's idle floor.
double cpu_active_energy(const sim::RunResult& res, const sim::MachineSpec& m) {
  double e = 0.0;
  for (const auto& [ghz, secs] : res.time.compute_by_ghz) {
    e += secs * m.power.cpu_delta_at(ghz, m.cpu.base_ghz);
  }
  for (const auto& [ghz, secs] : res.time.network_by_ghz) {
    e += m.power.net_poll_cpu_factor * secs * m.power.cpu_delta_at(ghz, m.cpu.base_ghz);
  }
  return e;
}

std::string fail(const CheckConfig& c, const std::string& what) {
  return what + " [repro: " + c.repro() + "]";
}

bool near(double a, double b, double rel) {
  return std::abs(a - b) <= rel * std::max({1.0, std::abs(a), std::abs(b)});
}

}  // namespace

std::optional<std::string> check_case(const CheckConfig& cfg, const FaultInjection& fault) {
  CheckConfig c = cfg;
  c.canonicalize();
  const size_t n = c.elems;
  const sim::MachineSpec m = machine_for(c);
  const bool kernel = c.op == OpKind::kKernelEp || c.op == OpKind::kKernelFt;

  try {
    const CaseRun base = run_case(c, n, c.comm_gear, /*perturbed=*/false, fault);

    // Payload correctness against the locally computed expectation.
    if (!kernel) {
      const auto exp = expected_payloads(c, n);
      for (size_t r = 0; r < exp.size(); ++r) {
        if (!exp[r].has_value()) continue;
        if (base.out[r] != *exp[r]) {
          return fail(c, "payload mismatch at rank " + std::to_string(r));
        }
      }
    } else {
      // Kernel results are allreduced: every rank must hold identical bits.
      for (size_t r = 1; r < base.out.size(); ++r) {
        if (base.out[r] != base.out[0]) {
          return fail(c, "kernel result differs between ranks 0 and " + std::to_string(r));
        }
      }
    }

    // Tag-range recycling stayed safe and every lease was returned.
    for (size_t r = 0; r < base.tags.size(); ++r) {
      if (base.tags[r].overlap_violations != 0) {
        return fail(c, "tag range overlap on rank " + std::to_string(r));
      }
      if (base.tags[r].in_flight != 0) {
        return fail(c, "leaked tag range on rank " + std::to_string(r));
      }
    }

    // Differential: counters vs the closed-form communication volume, exact.
    if (const auto vol = expected_volume(c, n)) {
      const auto& cnt = base.result.counters;
      if (static_cast<double>(cnt.messages_sent) != vol->messages ||
          static_cast<double>(cnt.bytes_sent) != vol->bytes) {
        std::ostringstream os;
        os << "comm volume mismatch: simulated " << cnt.messages_sent << " msgs / "
           << cnt.bytes_sent << " B, model " << vol->messages << " msgs / " << vol->bytes
           << " B";
        return fail(c, os.str());
      }
      if (cnt.messages_received != cnt.messages_sent ||
          cnt.bytes_received != cnt.bytes_sent) {
        return fail(c, "sent/received totals disagree");
      }
    }

    // Differential: locality split vs the closed-form SplitVolume, exact
    // (counters classify by block placement on flat machines too).
    if (const auto split = expected_split(c, n, m)) {
      const auto& cnt = base.result.counters;
      if (static_cast<double>(cnt.messages_intra_node) != split->intra.messages ||
          static_cast<double>(cnt.bytes_intra_node) != split->intra.bytes) {
        std::ostringstream os;
        os << "locality split mismatch: simulated " << cnt.messages_intra_node
           << " intra msgs / " << cnt.bytes_intra_node << " B, model "
           << split->intra.messages << " msgs / " << split->intra.bytes << " B";
        return fail(c, os.str());
      }
    }

    // Differential: pairwise-alltoall makespan within the Hockney band
    // (noise-free, power-of-two p so the XOR schedule is step-synchronous).
    if (c.op == OpKind::kAlltoall && !c.noise && c.p > 1 && (c.p & (c.p - 1)) == 0 &&
        effective_algo(c, n) == static_cast<int>(smpi::AlltoallAlgo::kPairwise)) {
      const double B = static_cast<double>(n * sizeof(int64_t));
      double model_t;
      if (c.hierarchical) {
        const model::Topology t{c.p, m.cores_per_node()};
        model_t = model::hierarchical_alltoall_time(
            t, B, {m.net.intra_t_s, m.net.intra_t_w()}, {m.net.t_s, m.net.t_w()});
      } else {
        model_t = model::hockney_alltoall_time(c.p, B, m.net.t_s, m.net.t_w());
      }
      // Feed the drift watchdog before the band check: a band violation is
      // also the largest drift signal the fuzzer can produce.
      obs::drift().record({m.name, "alltoall", c.p, 0.0, "time_s"}, model_t,
                          base.result.makespan);
      if (model_t > 0.0 &&
          std::abs(base.result.makespan - model_t) > kTimeBandRel * model_t) {
        std::ostringstream os;
        os << "Hockney band violated: simulated " << base.result.makespan << " s, model "
           << model_t << " s";
        return fail(c, os.str());
      }
    }

    // Energy closure, per rank and in aggregate.
    double rank_total = 0.0;
    for (size_t r = 0; r < base.result.ranks.size(); ++r) {
      const sim::EnergyBreakdown& e = base.result.ranks[r].energy;
      if (!near(e.total, e.cpu + e.memory + e.io + e.other, kEnergyRel)) {
        return fail(c, "energy components do not sum to total on rank " +
                           std::to_string(r));
      }
      if (!near(e.total, e.idle_floor + e.active_increment, kEnergyRel)) {
        return fail(c, "idle/active energy decomposition broken on rank " +
                           std::to_string(r));
      }
      rank_total += e.total;
    }
    if (!near(base.result.energy.total, rank_total, kEnergyRel)) {
      return fail(c, "aggregate energy != sum of rank energies");
    }

    // Metamorphic: bit-identical rerun.
    const CaseRun rerun = run_case(c, n, c.comm_gear, /*perturbed=*/false, fault);
    if (digest(rerun) != digest(base)) {
      return fail(c, "rerun determinism broken: digests differ");
    }

    // Metamorphic: host-schedule perturbation must not change anything.
    if (c.perturb) {
      const CaseRun shaken = run_case(c, n, c.comm_gear, /*perturbed=*/true, fault);
      if (digest(shaken) != digest(base)) {
        return fail(c, "perturbed schedule changed the virtual-time results");
      }
    }

    // Metamorphic: communication gear-down never raises CPU active energy
    // and never changes payloads.
    if (c.comm_gear) {
      const CaseRun plain = run_case(c, n, /*geared=*/false, /*perturbed=*/false, fault);
      if (plain.out != base.out) {
        return fail(c, "comm gear-down changed payloads");
      }
      const double geared_j = cpu_active_energy(base.result, m);
      const double plain_j = cpu_active_energy(plain.result, m);
      if (geared_j > plain_j * (1.0 + kEnergyRel) + 1e-15) {
        std::ostringstream os;
        os << "comm gear-down raised CPU active energy: " << geared_j << " J vs "
           << plain_j << " J";
        return fail(c, os.str());
      }
    }

    // Metamorphic: virtual time monotone in n (fixed algorithm, noise off;
    // tuned configs may legally speed up by switching algorithms, and the
    // v-collectives redraw their counts when n changes).
    if (!c.tuned && !c.noise && !kernel && c.op != OpKind::kAllgatherv &&
        c.op != OpKind::kAlltoallv && n >= 1 && n <= 2048) {
      const CaseRun bigger = run_case(c, 2 * n, c.comm_gear, /*perturbed=*/false, fault);
      if (bigger.result.makespan + 1e-12 < base.result.makespan) {
        std::ostringstream os;
        os << "virtual time not monotone in n: T(" << n << ") = " << base.result.makespan
           << " > T(" << 2 * n << ") = " << bigger.result.makespan;
        return fail(c, os.str());
      }
    }

    // Differential: kernel results against a 1-rank reference run. EP's
    // integer statistics (pair count, annulus histogram) are exact across p;
    // its deviate sums and FT's checksums agree to roundoff only, since the
    // allreduce association order changes with the rank count.
    if (kernel && c.p > 1) {
      CheckConfig ref = c;
      ref.p = 1;
      ref.perturb = false;
      ref.canonicalize();
      const CaseRun refrun = run_case(ref, 0, ref.comm_gear, /*perturbed=*/false, fault);
      const std::vector<int64_t>& got = base.out[0];
      const std::vector<int64_t>& want = refrun.out[0];
      if (got.size() != want.size()) {
        return fail(c, "kernel result shape differs from 1-rank reference");
      }
      if (c.op == OpKind::kKernelEp) {
        // Layout: [sx, sy, pairs, counts[10]] (doubles bit-cast in front).
        for (size_t i = 0; i < 2; ++i) {
          const double a = std::bit_cast<double>(got[i]);
          const double b = std::bit_cast<double>(want[i]);
          if (!near(a, b, kEpSumRel)) {
            std::ostringstream os;
            os << "EP deviate sum drifted beyond roundoff: " << a << " vs reference " << b;
            return fail(c, os.str());
          }
        }
        if (!std::equal(got.begin() + 2, got.end(), want.begin() + 2)) {
          return fail(c, "EP pair/annulus counts differ from 1-rank reference");
        }
      } else {
        for (size_t i = 0; i < got.size(); ++i) {
          const double a = std::bit_cast<double>(got[i]);
          const double b = std::bit_cast<double>(want[i]);
          if (!near(a, b, kFtChecksumRel)) {
            std::ostringstream os;
            os << "FT checksum drifted beyond roundoff: " << a << " vs reference " << b;
            return fail(c, os.str());
          }
        }
      }
    }
  } catch (const std::exception& e) {
    return fail(c, std::string("exception: ") + e.what());
  }
  return std::nullopt;
}

std::function<bool(const CheckConfig&)> failure_predicate(const FaultInjection& fault) {
  return [fault](const CheckConfig& c) { return check_case(c, fault).has_value(); };
}

}  // namespace isoee::check
