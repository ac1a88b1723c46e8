#include "npb/fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

// Bit-exactness: every FT checksum, and through the simulated run every FT
// joule, depends on the exact bits this file computes. They hold only while
// the build adds no -ffast-math, and no -march=native or -ffp-contract=fast on
// an FMA target: a fused multiply-add in the butterfly or the twiddle
// recurrence rounds once instead of twice and changes the low bits.
// tests/npb_test.cpp pins them (Fft.OutputBitsPinned, Ft.ChecksumBitsPinned).

namespace isoee::npb {

namespace {

/// Twiddles of every butterfly level of one (n, direction): level `len` keeps
/// its len/2 factors at [len/2 - 1, len - 1). Each level is built by the
/// recurrence w_{k+1} = w_k * wlen from w_0 = 1, in the operand order of
/// `std::complex` multiplication, because the pinned output bits are those of
/// that recurrence; a direct cos/sin table would differ in the low bits.
struct TwiddleTable {
  std::size_t n = 0;
  bool inverse = false;
  std::vector<std::complex<double>> w;
};

const std::vector<std::complex<double>>& twiddles(std::size_t n, bool inverse) {
  // FT transforms row after row at one length, so the last table is enough.
  // fft1d never yields, so a fiber cannot migrate threads while it holds the
  // reference.
  thread_local TwiddleTable table;
  if (table.n == n && table.inverse == inverse) return table.w;
  table.w.resize(n - 1);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * std::numbers::pi / static_cast<double>(len);
    const double lr = std::cos(angle), li = std::sin(angle);
    double wr = 1.0, wi = 0.0;
    std::complex<double>* level = table.w.data() + (len / 2 - 1);
    for (std::size_t k = 0; k < len / 2; ++k) {
      level[k] = {wr, wi};
      const double next_r = wr * lr - wi * li;
      wi = wr * li + wi * lr;
      wr = next_r;
    }
  }
  table.n = n;
  table.inverse = inverse;
  return table.w;
}

}  // namespace

void fft1d(std::span<std::complex<double>> data, bool inverse) {
  const std::size_t n = data.size();
  if (n <= 1) return;
  if (!is_pow2(n)) throw std::invalid_argument("fft1d: size must be a power of two");

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  // The product v = x * w is written out as (ac - bd, ad + bc): the bits of
  // std::complex multiplication on finite values, without its NaN-recovery
  // call.
  const std::vector<std::complex<double>>& tw = twiddles(n, inverse);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len / 2;
    const std::complex<double>* w = tw.data() + (half - 1);
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double>* lo = data.data() + i;
      std::complex<double>* hi = lo + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double ur = lo[k].real(), ui = lo[k].imag();
        const double xr = hi[k].real(), xi = hi[k].imag();
        const double wr = w[k].real(), wi = w[k].imag();
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        lo[k] = {ur + vr, ui + vi};
        hi[k] = {ur - vr, ui - vi};
      }
    }
  }
}

std::vector<std::complex<double>> dft_reference(std::span<const std::complex<double>> data,
                                                bool inverse) {
  const std::size_t n = data.size();
  std::vector<std::complex<double>> out(n);
  const double sign = inverse ? 1.0 : -1.0;
  for (std::size_t k = 0; k < n; ++k) {
    std::complex<double> sum(0.0, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
      const double angle =
          sign * 2.0 * std::numbers::pi * static_cast<double>(k * j) / static_cast<double>(n);
      sum += data[j] * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    out[k] = sum;
  }
  return out;
}

}  // namespace isoee::npb
