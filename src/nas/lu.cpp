// LU proxy: SSOR-style wavefront sweeps on a 2-D process grid.
//
// This is the paper's stress case. Each sweep pipelines over nz planes: a
// rank receives one small boundary message per plane from its west and
// south neighbors, updates its block of the plane (Gauss–Seidel, so the
// wavefront dependency is real), and immediately fires the east/north
// boundaries with nonblocking sends. Corner ranks stream all nz planes
// back-to-back, so downstream queues see bursts approaching nz outstanding
// small messages — the behaviour behind the paper's Table 2 (LU needs ~63
// buffers) and Table 1 (LU's one-way phases make ~18 % of its messages
// explicit credit messages under the static scheme).
//
// Verified bitwise-modulo-reduction-order against a serial reference:
// every u[k][j][i] is a pure function of already-assigned values, so the
// parallel and serial fields agree to the last bit; only the final
// checksum reduction order differs. The reference is a pure function of
// (grid, iterations), so it is computed once per key and kept for the life
// of the process; every run still reduces its own distributed field.
#include <array>
#include <cmath>
#include <deque>
#include <map>
#include <mutex>
#include <vector>

#include "mpi/communicator.hpp"
#include "nas/common.hpp"
#include "nas/kernel.hpp"
#include "util/check.hpp"

namespace mvflow::nas {

namespace {

struct LuGrid {
  std::size_t nx, ny, nz;        // global
  int px, py;                    // process grid
  int pi, pj;                    // my coordinates
  std::size_t nxl, nyl;          // local block
  std::size_t gi0, gj0;          // global offsets
};

/// sin(0.1 n) for every n = gi + 2 gj + 3 k the grid reaches: rhs_at's only
/// transcendental, filled with the expression it replaces.
std::vector<double> sin_table(const LuGrid& g) {
  std::vector<double> t(g.nx + 2 * g.ny + 3 * g.nz);
  for (std::size_t n = 0; n < t.size(); ++n)
    t[n] = std::sin(0.1 * static_cast<double>(n));
  return t;
}

double rhs_at(const std::vector<double>& sin_tab, std::size_t gi,
              std::size_t gj, std::size_t k) {
  return 1.0 + 0.001 * static_cast<double>(gi) +
         0.002 * static_cast<double>(gj) + 0.003 * static_cast<double>(k) +
         0.1 * sin_tab[gi + 2 * gj + 3 * k];
}

double boundary_at(std::size_t ga, std::size_t gb) {
  return 0.5 + 0.01 * static_cast<double>(ga) - 0.005 * static_cast<double>(gb);
}

/// The lower-sweep update: strictly increasing dependencies in i, j, k,
/// relaxed against the previous value (SSOR-style, so successive
/// iterations keep refining the field instead of hitting a fixed point).
double lower_update(double old, double rhs, double west, double south,
                    double below) {
  return 0.3 * old + 0.25 * (rhs + 0.9 * west + 0.8 * south + 0.7 * below);
}

/// The upper-sweep update: strictly decreasing dependencies.
double upper_update(double cur, double east, double north, double above) {
  return 0.5 * cur + 0.1 * (east + north + above);
}

LuGrid make_grid(int np, int rank) {
  LuGrid g;
  g.nx = 32;
  g.ny = 32;
  g.nz = 64;
  // Process grid: as square as the rank count allows, px >= py.
  g.py = 1;
  for (int d = 1; d * d <= np; ++d)
    if (np % d == 0) g.py = d;
  g.px = np / g.py;
  g.pi = rank % g.px;
  g.pj = rank / g.px;
  util::check(g.nx % static_cast<std::size_t>(g.px) == 0 &&
                  g.ny % static_cast<std::size_t>(g.py) == 0,
              "LU grid must divide the process grid");
  g.nxl = g.nx / static_cast<std::size_t>(g.px);
  g.nyl = g.ny / static_cast<std::size_t>(g.py);
  g.gi0 = static_cast<std::size_t>(g.pi) * g.nxl;
  g.gj0 = static_cast<std::size_t>(g.pj) * g.nyl;
  return g;
}

constexpr mpi::Tag kTagEast = 201;   // west -> east boundary columns
constexpr mpi::Tag kTagNorth = 202;  // south -> north boundary rows
constexpr mpi::Tag kTagWest = 203;   // east -> west (upper sweep)
constexpr mpi::Tag kTagSouth = 204;  // north -> south (upper sweep)

/// The whole-grid serial replay of `iterations` SSOR iterations, reduced to
/// its checksum. Pure in (nx, ny, nz, iterations).
double serial_reference_sum(const LuGrid& g, int iterations,
                            const std::vector<double>& sin_tab) {
  std::vector<double> ref(g.nz * g.ny * g.nx);
  auto rat = [&](std::size_t k, std::size_t j, std::size_t i) {
    return (k * g.ny + j) * g.nx + i;
  };
  for (std::size_t k = 0; k < g.nz; ++k)
    for (std::size_t j = 0; j < g.ny; ++j)
      for (std::size_t i = 0; i < g.nx; ++i)
        ref[rat(k, j, i)] = boundary_at(i, j) + 0.01 * static_cast<double>(k);
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t k = 0; k < g.nz; ++k)
      for (std::size_t j = 0; j < g.ny; ++j)
        for (std::size_t i = 0; i < g.nx; ++i) {
          const double west = i > 0 ? ref[rat(k, j, i - 1)] : boundary_at(j, k);
          const double south = j > 0 ? ref[rat(k, j - 1, i)] : boundary_at(i, k);
          const double below = k > 0 ? ref[rat(k - 1, j, i)] : boundary_at(i, j);
          ref[rat(k, j, i)] = lower_update(ref[rat(k, j, i)],
                                           rhs_at(sin_tab, i, j, k), west,
                                           south, below);
        }
    for (std::size_t k = g.nz; k-- > 0;)
      for (std::size_t j = g.ny; j-- > 0;)
        for (std::size_t i = g.nx; i-- > 0;) {
          const double east =
              i + 1 < g.nx ? ref[rat(k, j, i + 1)] : boundary_at(j + 1, k);
          const double north =
              j + 1 < g.ny ? ref[rat(k, j + 1, i)] : boundary_at(i + 1, k);
          const double above =
              k + 1 < g.nz ? ref[rat(k + 1, j, i)] : boundary_at(i, j);
          ref[rat(k, j, i)] = upper_update(ref[rat(k, j, i)], east, north, above);
        }
  }
  double ref_sum = 0;
  for (double v : ref) ref_sum += v;
  return ref_sum;
}

/// serial_reference_sum, computed once per key for the life of the
/// process. The value is a pure function of the key, so concurrent worlds
/// (SweepRunner workers) read the same bits whichever computes it first,
/// and -j1 == -jN holds. The lock is held across the computation, so each
/// key is computed exactly once.
double memoized_reference_sum(const LuGrid& g, int iterations,
                              const std::vector<double>& sin_tab) {
  using Key = std::array<std::size_t, 4>;
  static std::mutex mu;
  static std::map<Key, double> sums;
  const Key key{g.nx, g.ny, g.nz, static_cast<std::size_t>(iterations)};
  const std::lock_guard<std::mutex> lock(mu);
  const auto it = sums.find(key);
  if (it != sums.end()) return it->second;
  const double sum = serial_reference_sum(g, iterations, sin_tab);
  sums.emplace(key, sum);
  return sum;
}

}  // namespace

AppOutcome run_lu(mpi::Communicator& comm, const NasParams& p) {
  const LuGrid g = make_grid(comm.size(), comm.rank());
  const int iterations = p.iterations > 0 ? p.iterations : 12;
  const auto rank_of = [&](int pi, int pj) { return pj * g.px + pi; };

  // u[k][j][i] flattened; local block only.
  auto at = [&](std::size_t k, std::size_t j, std::size_t i) {
    return (k * g.nyl + j) * g.nxl + i;
  };
  const std::vector<double> sin_tab = sin_table(g);
  std::vector<double> u(g.nz * g.nyl * g.nxl);
  for (std::size_t k = 0; k < g.nz; ++k)
    for (std::size_t j = 0; j < g.nyl; ++j)
      for (std::size_t i = 0; i < g.nxl; ++i)
        u[at(k, j, i)] = boundary_at(g.gi0 + i, g.gj0 + j) + 0.01 * static_cast<double>(k);

  std::vector<double> ghost_w(g.nyl), ghost_s(g.nxl);
  std::deque<std::vector<double>> send_bufs;  // keep isend payloads alive
  std::vector<mpi::RequestPtr> send_reqs;

  auto flush_sends = [&] {
    comm.wait_all(send_reqs);
    send_reqs.clear();
    send_bufs.clear();
  };

  for (int it = 0; it < iterations; ++it) {
    // ---- lower sweep: wavefront in +i, +j, +k ----
    for (std::size_t k = 0; k < g.nz; ++k) {
      if (g.pi > 0)
        comm.recv_n(ghost_w.data(), g.nyl, rank_of(g.pi - 1, g.pj), kTagEast);
      if (g.pj > 0)
        comm.recv_n(ghost_s.data(), g.nxl, rank_of(g.pi, g.pj - 1), kTagNorth);
      for (std::size_t j = 0; j < g.nyl; ++j) {
        for (std::size_t i = 0; i < g.nxl; ++i) {
          const std::size_t gi = g.gi0 + i, gj = g.gj0 + j;
          const double west = i > 0 ? u[at(k, j, i - 1)]
                              : g.pi > 0 ? ghost_w[j]
                                         : boundary_at(gj, k);
          const double south = j > 0 ? u[at(k, j - 1, i)]
                               : g.pj > 0 ? ghost_s[i]
                                          : boundary_at(gi, k);
          const double below = k > 0 ? u[at(k - 1, j, i)] : boundary_at(gi, gj);
          u[at(k, j, i)] = lower_update(u[at(k, j, i)],
                                        rhs_at(sin_tab, gi, gj, k), west,
                                        south, below);
        }
      }
      // SSOR does tens of flops per cell (block solves); the factor keeps
      // the compute/communication balance in the regime where the corner
      // ranks can stream ahead of their downstream neighbors (the burst
      // behaviour behind the paper's Table 2).
      charge_points(comm, p, g.nxl * g.nyl * 4);
      if (g.pi + 1 < g.px) {
        auto& buf = send_bufs.emplace_back(g.nyl);
        for (std::size_t j = 0; j < g.nyl; ++j) buf[j] = u[at(k, j, g.nxl - 1)];
        send_reqs.push_back(
            comm.isend_n(buf.data(), g.nyl, rank_of(g.pi + 1, g.pj), kTagEast));
      }
      if (g.pj + 1 < g.py) {
        auto& buf = send_bufs.emplace_back(g.nxl);
        for (std::size_t i = 0; i < g.nxl; ++i) buf[i] = u[at(k, g.nyl - 1, i)];
        send_reqs.push_back(
            comm.isend_n(buf.data(), g.nxl, rank_of(g.pi, g.pj + 1), kTagNorth));
      }
    }
    flush_sends();

    // ---- upper sweep: wavefront in -i, -j, -k ----
    for (std::size_t kk = g.nz; kk-- > 0;) {
      if (g.pi + 1 < g.px)
        comm.recv_n(ghost_w.data(), g.nyl, rank_of(g.pi + 1, g.pj), kTagWest);
      if (g.pj + 1 < g.py)
        comm.recv_n(ghost_s.data(), g.nxl, rank_of(g.pi, g.pj + 1), kTagSouth);
      for (std::size_t jj = g.nyl; jj-- > 0;) {
        for (std::size_t ii = g.nxl; ii-- > 0;) {
          const std::size_t gi = g.gi0 + ii, gj = g.gj0 + jj;
          const double east = ii + 1 < g.nxl ? u[at(kk, jj, ii + 1)]
                              : g.pi + 1 < g.px ? ghost_w[jj]
                                                : boundary_at(gj + 1, kk);
          const double north = jj + 1 < g.nyl ? u[at(kk, jj + 1, ii)]
                               : g.pj + 1 < g.py ? ghost_s[ii]
                                                 : boundary_at(gi + 1, kk);
          const double above =
              kk + 1 < g.nz ? u[at(kk + 1, jj, ii)] : boundary_at(gi, gj);
          u[at(kk, jj, ii)] = upper_update(u[at(kk, jj, ii)], east, north, above);
        }
      }
      charge_points(comm, p, g.nxl * g.nyl * 4);
      if (g.pi > 0) {
        auto& buf = send_bufs.emplace_back(g.nyl);
        for (std::size_t j = 0; j < g.nyl; ++j) buf[j] = u[at(kk, j, 0)];
        send_reqs.push_back(
            comm.isend_n(buf.data(), g.nyl, rank_of(g.pi - 1, g.pj), kTagWest));
      }
      if (g.pj > 0) {
        auto& buf = send_bufs.emplace_back(g.nxl);
        for (std::size_t i = 0; i < g.nxl; ++i) buf[i] = u[at(kk, 0, i)];
        send_reqs.push_back(
            comm.isend_n(buf.data(), g.nxl, rank_of(g.pi, g.pj - 1), kTagSouth));
      }
    }
    flush_sends();
  }

  // ---- verification: against the serial replay, on rank 0 (un-charged) ----
  double local_sum = 0;
  for (double v : u) local_sum += v;
  const double par_sum = comm.allreduce_sum(local_sum);

  bool ok = true;
  if (comm.rank() == 0) {
    const double ref_sum = memoized_reference_sum(g, iterations, sin_tab);
    ok = std::abs(par_sum - ref_sum) <= 1e-9 * std::abs(ref_sum);
  }

  AppOutcome out;
  out.metric = par_sum;
  out.verified = verify_all(comm, ok);
  return out;
}

}  // namespace mvflow::nas
