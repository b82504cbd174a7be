// Halo exchange: a 2-D Jacobi heat-diffusion solver on a ring-free process
// row — the archetypal "nearest neighbor" MPI application the paper's
// intro motivates. Demonstrates nonblocking exchanges with computation
// overlap, typed sends, and collective reductions, and reports how the
// flow-control scheme behaves under a well-matched symmetric pattern
// (expected: zero ECMs, zero backlog).
//
//   ./halo_exchange --ranks=8 --n=256 --iters=200 --scheme=static
#include <cmath>
#include <cstdio>
#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "util/options.hpp"

using namespace mvflow;

namespace {

int run(const util::Options& opts) {
  const auto scheme = flowctl::parse_scheme(opts.get_or("scheme", "static"));
  if (!scheme) {
    std::fprintf(stderr, "unknown --scheme\n");
    return 1;
  }
  const auto n = static_cast<std::size_t>(opts.get_int("n", 256));  // rows/rank
  const std::size_t cols = 128;
  const int iters = static_cast<int>(opts.get_int("iters", 200));

  mpi::WorldConfig cfg;
  cfg.num_ranks = static_cast<int>(opts.get_int("ranks", 8));
  cfg.flow.scheme = *scheme;
  cfg.flow.prepost = static_cast<int>(opts.get_int("prepost", 16));

  mpi::World world(cfg);
  double final_heat = 0;
  const auto elapsed = world.run([&](mpi::Communicator& comm) {
    const int me = comm.rank();
    const int np = comm.size();
    // Grid rows n, plus one ghost row above and below.
    std::vector<double> grid((n + 2) * cols, 0.0), next((n + 2) * cols, 0.0);
    // A hot spot on rank 0's top edge.
    if (me == 0)
      for (std::size_t c = 0; c < cols; ++c) grid[1 * cols + c] = 100.0;

    for (int it = 0; it < iters; ++it) {
      std::vector<mpi::RequestPtr> reqs;
      if (me > 0) {
        reqs.push_back(comm.irecv_n(&grid[0], cols, me - 1, 1));
        reqs.push_back(comm.isend_n(&grid[1 * cols], cols, me - 1, 2));
      }
      if (me < np - 1) {
        reqs.push_back(comm.irecv_n(&grid[(n + 1) * cols], cols, me + 1, 2));
        reqs.push_back(comm.isend_n(&grid[n * cols], cols, me + 1, 1));
      }
      // Interior rows do not need the halos: overlap compute with comm.
      auto update_row = [&](std::size_t r) {
        for (std::size_t c = 1; c + 1 < cols; ++c) {
          next[r * cols + c] =
              0.25 * (grid[(r - 1) * cols + c] + grid[(r + 1) * cols + c] +
                      grid[r * cols + c - 1] + grid[r * cols + c + 1]);
        }
      };
      for (std::size_t r = 2; r < n; ++r) update_row(r);
      comm.compute(sim::nanoseconds(static_cast<std::int64_t>(n * cols)));
      comm.wait_all(reqs);
      update_row(1);
      update_row(n);
      std::swap(grid, next);
      // Hold the hot boundary.
      if (me == 0)
        for (std::size_t c = 0; c < cols; ++c) grid[1 * cols + c] = 100.0;
    }

    double local = 0;
    for (std::size_t r = 1; r <= n; ++r)
      for (std::size_t c = 0; c < cols; ++c) local += grid[r * cols + c];
    const double total = comm.allreduce_sum(local);
    if (me == 0) final_heat = total;
  });

  const auto stats = world.collect_stats();
  std::printf("ranks=%d grid=%zux%zu iters=%d scheme=%s\n", cfg.num_ranks, n,
              cols, iters, std::string(flowctl::to_string(*scheme)).c_str());
  std::printf("simulated runtime: %.3f ms, total heat: %.2f\n",
              sim::to_ms(elapsed), final_heat);
  std::printf("messages: %llu, ECMs: %llu, backlogged: %llu, RNR: %llu\n",
              static_cast<unsigned long long>(stats.total_messages()),
              static_cast<unsigned long long>(stats.total_ecm()),
              static_cast<unsigned long long>(stats.total_backlogged()),
              static_cast<unsigned long long>(stats.total_rnr_naks()));
  std::puts("expected: symmetric neighbor traffic needs no ECMs or backlog.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
