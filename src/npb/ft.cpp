#include "npb/ft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <stdexcept>

#include "npb/costs.hpp"
#include "npb/fft.hpp"
#include "util/rng.hpp"

namespace isoee::npb {

namespace {

using Complex = std::complex<double>;

/// Signed frequency of grid index i on an axis of length n.
int signed_freq(int i, int n) { return i <= n / 2 ? i : i - n; }

/// Per-rank working state for the slab-decomposed FFT.
struct FtState {
  const FtConfig* cfg;
  sim::RankCtx* ctx;
  smpi::Comm comm;
  powerpack::PhaseLog* phases = nullptr;  // for the transpose comm markers
  int p, r;
  int nzl, nxl;             // local slab thicknesses (z-slab / x-slab)
  std::uint64_t local_pts;  // n / p
  std::uint64_t local_bytes;

  FtState(sim::RankCtx& c, const FtConfig& config)
      : cfg(&config), ctx(&c), comm(c, config.collectives), p(c.size()), r(c.rank()) {
    if (!is_pow2(static_cast<std::size_t>(config.nx)) ||
        !is_pow2(static_cast<std::size_t>(config.ny)) ||
        !is_pow2(static_cast<std::size_t>(config.nz))) {
      throw std::invalid_argument("ft: grid dims must be powers of two");
    }
    if (config.nz % p != 0 || config.nx % p != 0) {
      throw std::invalid_argument("ft: nz and nx must be divisible by p");
    }
    nzl = config.nz / p;
    nxl = config.nx / p;
    local_pts = config.total_points() / static_cast<std::uint64_t>(p);
    local_bytes = local_pts * sizeof(Complex);
  }

  // Annotation helpers: charge the simulator per whole stage. The charged
  // access counts are cache-line *miss* counts for streaming passes, so they
  // are billed at DRAM latency (working_set = 0), not at the hierarchy's
  // hit-rate curve — the arrays are streamed once with no reuse.
  void charge_fft_stage(int axis_len, double stride_penalty = 1.0) {
    const auto levels = static_cast<std::uint64_t>(ilog2(static_cast<std::size_t>(axis_len)));
    const std::uint64_t instr = costs::kFftInstrPerPointLevel * local_pts * levels;
    const auto mem = static_cast<std::uint64_t>(
        stride_penalty * static_cast<double>(local_pts) / costs::kFftPointsPerMemAccess);
    ctx->compute_mem(instr, mem);
  }
  void charge_pack() {
    ctx->compute_mem(costs::kFtPackInstrPerPoint * local_pts,
                     local_pts / costs::kFftPointsPerMemAccess);
  }
  void charge_pointwise(std::uint64_t instr_per_point) {
    ctx->compute_mem(instr_per_point * local_pts, local_pts / costs::kFftPointsPerMemAccess);
  }
};

/// z-slab layout: index (zl, y, x) -> ((zl*ny) + y)*nx + x.
/// x-slab layout: index (xl, y, z) -> ((xl*ny) + y)*nz + z.

/// FFT along x on a z-slab (rows are contiguous).
void fft_x(FtState& st, std::vector<Complex>& a, bool inverse) {
  const int nx = st.cfg->nx;
  const std::size_t rows = st.local_pts / static_cast<std::size_t>(nx);
  for (std::size_t row = 0; row < rows; ++row) {
    fft1d(std::span<Complex>(a.data() + row * static_cast<std::size_t>(nx),
                             static_cast<std::size_t>(nx)),
          inverse);
  }
  st.charge_fft_stage(nx);
}

/// FFT along y on a z-slab (stride-nx columns, gathered into a temp).
void fft_y(FtState& st, std::vector<Complex>& a, bool inverse) {
  const int nx = st.cfg->nx, ny = st.cfg->ny;
  std::vector<Complex> col(static_cast<std::size_t>(ny));
  for (int zl = 0; zl < st.nzl; ++zl) {
    const std::size_t plane = static_cast<std::size_t>(zl) * static_cast<std::size_t>(ny) *
                              static_cast<std::size_t>(nx);
    for (int x = 0; x < nx; ++x) {
      for (int y = 0; y < ny; ++y) {
        col[static_cast<std::size_t>(y)] =
            a[plane + static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
              static_cast<std::size_t>(x)];
      }
      fft1d(std::span<Complex>(col), inverse);
      for (int y = 0; y < ny; ++y) {
        a[plane + static_cast<std::size_t>(y) * static_cast<std::size_t>(nx) +
          static_cast<std::size_t>(x)] = col[static_cast<std::size_t>(y)];
      }
    }
  }
  st.charge_fft_stage(ny, /*stride_penalty=*/2.0);  // gather/scatter cost
}

/// FFT along z on an x-slab (rows are contiguous).
void fft_z(FtState& st, std::vector<Complex>& b, bool inverse) {
  const int nz = st.cfg->nz;
  const std::size_t rows = st.local_pts / static_cast<std::size_t>(nz);
  for (std::size_t row = 0; row < rows; ++row) {
    fft1d(std::span<Complex>(b.data() + row * static_cast<std::size_t>(nz),
                             static_cast<std::size_t>(nz)),
          inverse);
  }
  st.charge_fft_stage(nz);
}

// Both transposes route the grid through the all-to-all's wire order
// (s, zl, y, xl): the block for rank s holds its x-range of our z-planes, or
// our x-range of its z-planes. Read as one array that order is (z, y, xl)
// with z = s*nzl + zl, so each transpose is one contiguous-run shuffle
// between a z-slab and wire order, and one swap of the outer and inner axes
// between wire order and an x-slab (xl, y, z).

/// Wire order <-> z-slab (zl, y, x): each (zl, y) row splits into p runs of
/// nxl points, run s going to (or coming from) rank s's block.
void shuffle_runs(const FtState& st, const Complex* from, Complex* to, bool to_wire) {
  const auto nx = static_cast<std::size_t>(st.cfg->nx);
  const auto nxl = static_cast<std::size_t>(st.nxl);
  const std::size_t rows =
      static_cast<std::size_t>(st.nzl) * static_cast<std::size_t>(st.cfg->ny);
  for (std::size_t s = 0; s < static_cast<std::size_t>(st.p); ++s) {
    for (std::size_t row = 0; row < rows; ++row) {
      const std::size_t slab = row * nx + s * nxl;
      const std::size_t wire = (s * rows + row) * nxl;
      if (to_wire) {
        std::copy_n(from + slab, nxl, to + wire);
      } else {
        std::copy_n(from + wire, nxl, to + slab);
      }
    }
  }
}

/// to[(b*ny + y)*na + a] = from[(a*ny + y)*nb + b]: swaps the outer and inner
/// axes of an (a, y, b) grid. Square tiles keep both the strided reads and
/// the strided writes of one tile within a few cache lines per row.
void swap_outer_inner(const Complex* from, Complex* to, int a_len, int y_len, int b_len) {
  constexpr std::size_t kTile = 16;
  const auto na = static_cast<std::size_t>(a_len);
  const auto ny = static_cast<std::size_t>(y_len);
  const auto nb = static_cast<std::size_t>(b_len);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t a0 = 0; a0 < na; a0 += kTile) {
      const std::size_t a1 = std::min(a0 + kTile, na);
      for (std::size_t b0 = 0; b0 < nb; b0 += kTile) {
        const std::size_t b1 = std::min(b0 + kTile, nb);
        for (std::size_t b = b0; b < b1; ++b) {
          Complex* out = to + (b * ny + y) * na;
          for (std::size_t a = a0; a < a1; ++a) out[a] = from[(a * ny + y) * nb + b];
        }
      }
    }
  }
}

void transpose_alltoall(FtState& st, const std::vector<Complex>& send,
                        std::vector<Complex>& recv) {
  powerpack::OptionalPhase ph(st.phases, *st.ctx, "ft.transpose");
  st.comm.alltoall(std::span<const Complex>(send), std::span<Complex>(recv),
                   st.local_pts / static_cast<std::size_t>(st.p));
}

/// Transpose z-slabs -> x-slabs via all-to-all: `a` (zl, y, x) becomes `b`
/// (xl, y, z). `a` is clobbered; it serves as the receive buffer.
void transpose_fwd(FtState& st, std::vector<Complex>& a, std::vector<Complex>& b) {
  shuffle_runs(st, a.data(), b.data(), /*to_wire=*/true);
  st.charge_pack();
  transpose_alltoall(st, b, a);
  swap_outer_inner(a.data(), b.data(), st.cfg->nz, st.cfg->ny, st.nxl);
  st.charge_pack();
}

/// Transpose x-slabs -> z-slabs (inverse of transpose_fwd): `b` (xl, y, z)
/// becomes `a` (zl, y, x). `b` is clobbered; it serves as the receive buffer.
void transpose_bwd(FtState& st, std::vector<Complex>& b, std::vector<Complex>& a) {
  swap_outer_inner(b.data(), a.data(), st.nxl, st.cfg->ny, st.cfg->nz);
  st.charge_pack();
  transpose_alltoall(st, a, b);
  shuffle_runs(st, b.data(), a.data(), /*to_wire=*/false);
  st.charge_pack();
}

}  // namespace

FtResult ft_rank(sim::RankCtx& ctx, const FtConfig& config, powerpack::PhaseLog* phases) {
  FtState st(ctx, config);
  st.phases = phases;
  const int nx = config.nx, ny = config.ny, nz = config.nz;
  const double inv_n = 1.0 / static_cast<double>(config.total_points());

  // --- init: fill the z-slab from the global randlc stream -------------------
  std::vector<Complex> u(st.local_pts);
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.init");
    util::NpbRandom rng(config.seed);
    const std::uint64_t first =
        static_cast<std::uint64_t>(st.r) * st.local_pts;  // global point index
    rng.skip(2 * first);
    for (auto& v : u) {
      const double re = rng.next();
      const double im = rng.next();
      v = Complex(re, im);
    }
    st.charge_pointwise(10);
  }

  // --- forward 3-D FFT --------------------------------------------------------
  // `cur` is the frequency-domain field (x-slab layout); it evolves by one
  // factor step per iteration.
  std::vector<Complex> cur(st.local_pts);
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.fft_forward");
    fft_x(st, u, /*inverse=*/false);
    fft_y(st, u, /*inverse=*/false);
    transpose_fwd(st, u, cur);
    fft_z(st, cur, /*inverse=*/false);
  }

  // --- evolve factors (x-slab layout) -----------------------------------------
  std::vector<double> factor(st.local_pts);
  {
    powerpack::OptionalPhase ph(phases, ctx, "ft.setup_evolve");
    const double c = -4.0 * config.evolve_alpha * std::numbers::pi * std::numbers::pi;
    std::size_t idx = 0;
    for (int xl = 0; xl < st.nxl; ++xl) {
      const int kx = signed_freq(st.r * st.nxl + xl, nx);
      for (int y = 0; y < ny; ++y) {
        const int ky = signed_freq(y, ny);
        for (int z = 0; z < nz; ++z) {
          const int kz = signed_freq(z, nz);
          const double k2 = static_cast<double>(kx) * kx + static_cast<double>(ky) * ky +
                            static_cast<double>(kz) * kz;
          factor[idx++] = std::exp(c * k2);
        }
      }
    }
    st.charge_pointwise(costs::kFtEvolveInstrPerPoint);
  }

  // --- iterations ---------------------------------------------------------------
  FtResult result;
  result.checksums.reserve(static_cast<std::size_t>(config.iters));
  std::vector<Complex>& tmp = u;  // the initial field is spent; reuse its grid
  std::vector<Complex> w(st.local_pts);
  for (int it = 1; it <= config.iters; ++it) {
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.evolve");
      for (std::size_t i = 0; i < cur.size(); ++i) cur[i] *= factor[i];
      st.charge_pointwise(costs::kFtEvolveInstrPerPoint);
    }
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.fft_inverse");
      std::copy(cur.begin(), cur.end(), tmp.begin());
      fft_z(st, tmp, /*inverse=*/true);
      transpose_bwd(st, tmp, w);
      fft_y(st, w, /*inverse=*/true);
      fft_x(st, w, /*inverse=*/true);
      for (auto& v : w) v *= inv_n;  // one global 1/N scale for the inverse
      st.charge_pointwise(2);
    }
    {
      powerpack::OptionalPhase ph(phases, ctx, "ft.checksum");
      // NPB-style strided checksum over 1024 global points.
      Complex local_sum(0.0, 0.0);
      const int z_lo = st.r * st.nzl, z_hi = (st.r + 1) * st.nzl;
      for (int j = 1; j <= 1024; ++j) {
        const int q = (5 * j) % nx;
        const int rr = (3 * j) % ny;
        const int s = j % nz;
        if (s >= z_lo && s < z_hi) {
          local_sum += w[(static_cast<std::size_t>(s - z_lo) * ny + rr) * nx +
                         static_cast<std::size_t>(q)];
        }
      }
      ctx.compute(costs::kFtChecksumInstrPerPoint * 1024 / static_cast<unsigned>(st.p) + 16);
      double in[2] = {local_sum.real(), local_sum.imag()};
      double out[2];
      st.comm.allreduce_sum(std::span<const double>(in, 2), std::span<double>(out, 2));
      result.checksums.emplace_back(out[0], out[1]);
    }
  }
  return result;
}

}  // namespace isoee::npb
