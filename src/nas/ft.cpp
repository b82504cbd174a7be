// FT proxy: 3-D FFT with slab decomposition.
//
// Communication shape per iteration (matches NAS FT): two global
// transposes implemented as alltoall with large blocks (tens of KB ->
// rendezvous / RDMA path), no small-message pressure. Each iteration
// performs a forward 3-D FFT, multiplies the spectrum by a unit-modulus
// evolution factor, and transforms back. Verified by Parseval energy
// conservation every iteration and by recovering the initial field exactly
// (inverse evolution) at the end.
#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "mpi/communicator.hpp"
#include "nas/common.hpp"
#include "nas/kernel.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace mvflow::nas {

namespace {

using Cx = std::complex<double>;

/// In-place iterative radix-2 FFT over `line` (length must be a power of
/// two). `inverse` applies the conjugate transform with 1/n scaling.
void fft1d(std::vector<Cx>& line, bool inverse) {
  const std::size_t n = line.size();
  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(line[i], line[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double ang = 2 * std::numbers::pi / static_cast<double>(len) *
                       (inverse ? 1.0 : -1.0);
    const Cx wlen(std::cos(ang), std::sin(ang));
    for (std::size_t i = 0; i < n; i += len) {
      Cx w(1.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Cx u = line[i + k];
        const Cx v = line[i + k + len / 2] * w;
        line[i + k] = u + v;
        line[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (inverse) {
    for (auto& c : line) c /= static_cast<double>(n);
  }
}

struct FtGrid {
  std::size_t nx, ny, nz;      // global dims (powers of two)
  std::size_t nz_loc, nx_loc;  // slab thicknesses
};

}  // namespace

AppOutcome run_ft(mpi::Communicator& comm, const NasParams& p) {
  const auto np = static_cast<std::size_t>(comm.size());
  const auto me = static_cast<std::size_t>(comm.rank());
  FtGrid g;
  g.nx = 32;
  g.ny = 32;
  g.nz = 8 * np;  // keeps slabs valid for any power-of-two-friendly np
  g.nz_loc = g.nz / np;
  g.nx_loc = g.nx / np;
  util::check(g.nx % np == 0 && g.nz % np == 0, "FT grid must divide ranks");
  const int iterations = p.iterations > 0 ? p.iterations : 6;

  const std::size_t local_n = g.nx * g.ny * g.nz_loc;  // z-slab size
  // a: z-slab layout [z_loc][y][x] (x contiguous)
  std::vector<Cx> a(local_n);
  util::Xoshiro256 rng(p.seed * 31 + me);
  for (auto& c : a) c = Cx(rng.uniform() - 0.5, rng.uniform() - 0.5);
  const std::vector<Cx> original = a;

  double energy0 = 0;
  for (const auto& c : a) energy0 += std::norm(c);
  energy0 = comm.allreduce_sum(energy0);

  // x-slab layout [x_loc][y][z] (z contiguous)
  std::vector<Cx> b(g.nx_loc * g.ny * g.nz);
  const std::size_t block = g.nx_loc * g.ny * g.nz_loc;  // per-pair elements
  std::vector<Cx> packed(block * np), unpacked(block * np);

  auto idx_a = [&](std::size_t z, std::size_t y, std::size_t x) {
    return (z * g.ny + y) * g.nx + x;
  };
  auto idx_b = [&](std::size_t x, std::size_t y, std::size_t z) {
    return (x * g.ny + y) * g.nz + z;
  };

  // Transpose z-slabs -> x-slabs via alltoall.
  auto transpose_fwd = [&] {
    for (std::size_t r = 0; r < np; ++r) {
      Cx* out = packed.data() + r * block;
      std::size_t o = 0;
      for (std::size_t xl = 0; xl < g.nx_loc; ++xl)
        for (std::size_t y = 0; y < g.ny; ++y)
          for (std::size_t zl = 0; zl < g.nz_loc; ++zl)
            out[o++] = a[idx_a(zl, y, r * g.nx_loc + xl)];
    }
    comm.alltoall(std::as_bytes(std::span<const Cx>(packed)),
                  std::as_writable_bytes(std::span<Cx>(unpacked)),
                  block * sizeof(Cx));
    for (std::size_t r = 0; r < np; ++r) {
      const Cx* in = unpacked.data() + r * block;
      std::size_t o = 0;
      for (std::size_t xl = 0; xl < g.nx_loc; ++xl)
        for (std::size_t y = 0; y < g.ny; ++y)
          for (std::size_t zl = 0; zl < g.nz_loc; ++zl)
            b[idx_b(xl, y, r * g.nz_loc + zl)] = in[o++];
    }
  };
  auto transpose_bwd = [&] {
    for (std::size_t r = 0; r < np; ++r) {
      Cx* out = packed.data() + r * block;
      std::size_t o = 0;
      for (std::size_t xl = 0; xl < g.nx_loc; ++xl)
        for (std::size_t y = 0; y < g.ny; ++y)
          for (std::size_t zl = 0; zl < g.nz_loc; ++zl)
            out[o++] = b[idx_b(xl, y, r * g.nz_loc + zl)];
    }
    comm.alltoall(std::as_bytes(std::span<const Cx>(packed)),
                  std::as_writable_bytes(std::span<Cx>(unpacked)),
                  block * sizeof(Cx));
    for (std::size_t r = 0; r < np; ++r) {
      const Cx* in = unpacked.data() + r * block;
      std::size_t o = 0;
      for (std::size_t xl = 0; xl < g.nx_loc; ++xl)
        for (std::size_t y = 0; y < g.ny; ++y)
          for (std::size_t zl = 0; zl < g.nz_loc; ++zl)
            a[idx_a(zl, y, r * g.nx_loc + xl)] = in[o++];
    }
  };

  std::vector<Cx> line;
  auto fft_local_xy = [&](bool inverse) {
    // x: contiguous lines in a.
    line.resize(g.nx);
    for (std::size_t z = 0; z < g.nz_loc; ++z)
      for (std::size_t y = 0; y < g.ny; ++y) {
        const std::size_t base = idx_a(z, y, 0);
        for (std::size_t x = 0; x < g.nx; ++x) line[x] = a[base + x];
        fft1d(line, inverse);
        for (std::size_t x = 0; x < g.nx; ++x) a[base + x] = line[x];
      }
    // y: stride nx.
    line.resize(g.ny);
    for (std::size_t z = 0; z < g.nz_loc; ++z)
      for (std::size_t x = 0; x < g.nx; ++x) {
        for (std::size_t y = 0; y < g.ny; ++y) line[y] = a[idx_a(z, y, x)];
        fft1d(line, inverse);
        for (std::size_t y = 0; y < g.ny; ++y) a[idx_a(z, y, x)] = line[y];
      }
  };
  auto fft_local_z = [&](bool inverse) {
    line.resize(g.nz);
    for (std::size_t x = 0; x < g.nx_loc; ++x)
      for (std::size_t y = 0; y < g.ny; ++y) {
        const std::size_t base = idx_b(x, y, 0);
        for (std::size_t z = 0; z < g.nz; ++z) line[z] = b[base + z];
        fft1d(line, inverse);
        for (std::size_t z = 0; z < g.nz; ++z) b[base + z] = line[z];
      }
  };

  // Unit-modulus evolution factor applied in spectral (x-slab) space. The
  // phase depends on kx + y + z only, an integer below nx + ny + nz (the
  // double sum it stands for is exact), so each factor is computed once per
  // call from that sum.
  std::vector<Cx> factor(g.nx + g.ny + g.nz);
  auto evolve = [&](double direction) {
    for (std::size_t s = 0; s < factor.size(); ++s) {
      const double phase =
          direction * 2 * std::numbers::pi * static_cast<double>(s) / 64.0;
      factor[s] = Cx(std::cos(phase), std::sin(phase));
    }
    for (std::size_t xl = 0; xl < g.nx_loc; ++xl) {
      const std::size_t kx = me * g.nx_loc + xl;
      for (std::size_t y = 0; y < g.ny; ++y)
        for (std::size_t z = 0; z < g.nz; ++z)
          b[idx_b(xl, y, z)] *= factor[kx + y + z];
    }
  };

  bool ok = true;
  const auto flops_guess = local_n * 30;
  for (int it = 0; it < iterations; ++it) {
    fft_local_xy(false);
    charge_points(comm, p, flops_guess);
    transpose_fwd();
    fft_local_z(false);
    evolve(+1.0);
    charge_points(comm, p, flops_guess / 2);
    fft_local_z(true);
    transpose_bwd();
    fft_local_xy(true);
    charge_points(comm, p, flops_guess);

    // Parseval: the evolution factor has unit modulus, so energy holds.
    double e = 0;
    for (const auto& c : a) e += std::norm(c);
    e = comm.allreduce_sum(e);
    if (std::abs(e - energy0) > 1e-6 * energy0) ok = false;
  }

  // Undo the accumulated evolution and compare with the original field:
  // full forward 3-D FFT, divide out phase^iterations, full inverse.
  fft_local_xy(false);
  transpose_fwd();
  fft_local_z(false);
  for (int it = 0; it < iterations; ++it) evolve(-1.0);
  fft_local_z(true);
  transpose_bwd();
  fft_local_xy(true);

  double max_err = 0;
  for (std::size_t i = 0; i < a.size(); ++i)
    max_err = std::max(max_err, std::abs(a[i] - original[i]));
  max_err = comm.allreduce_max(max_err);

  AppOutcome out;
  out.metric = max_err;
  out.verified = verify_all(comm, ok && max_err < 1e-9);
  return out;
}

}  // namespace mvflow::nas
