// Self-benchmark of the parallel experiment runner: run the same
// figure-style sweeps at 1/2/4/8 worker threads, verify every thread count
// reproduces the serial tables byte-for-byte, and record the wall-clock
// scaling curve as BENCH_parallel_sweep.json. On a many-core host the
// curve shows the speedup the runner buys; on a small host the meta fields
// (hardware_concurrency, jobs) say how to read it. `--reduced` shrinks the
// sweep for sanitizer/CI runs, `--repeat=N` takes the best of N timings,
// and `--jobs/-j N` caps the curve's highest thread count.
#include <cstdio>
#include <iostream>
#include <string>

#include "bw_figure.hpp"
#include "fig_latency.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

/// One full sweep pass at the given worker count: the fig2 latency table
/// plus (full mode) the fig3 bandwidth table, concatenated so the identity
/// check covers every byte either sweep produces.
std::string sweep_tables(int jobs, int iters, bool reduced) {
  std::string text = build_fig2_table(iters, nullptr, jobs).to_string();
  if (!reduced) {
    text += build_bw_table(/*msg_bytes=*/4, /*prepost=*/100,
                           /*blocking=*/true, nullptr, jobs)
                .to_string();
  }
  return text;
}

int run(const util::Options& opts) {
  const bool reduced = opts.get_bool("reduced", false);
  const int iters = static_cast<int>(opts.get_int("iters", reduced ? 20 : 200));
  const int repeat =
      static_cast<int>(opts.get_int("repeat", reduced ? 1 : 3));
  // Highest worker count on the curve (default: the full 1/2/4/8 sweep).
  const int max_jobs =
      static_cast<int>(opts.get_int("jobs", opts.get_int("j", 8)));
  const int hw = exp::SweepRunner::hardware_threads();

  std::printf("# Parallel sweep scaling: fig2%s sweep, 1..%d workers\n",
              reduced ? "" : "+fig3", max_jobs);
  std::printf("# iters=%d repeat=%d hardware_concurrency=%d%s\n", iters, repeat,
              hw, reduced ? " (reduced)" : "");

  WallTimer total;
  BenchJson json("parallel_sweep");
  json.add_meta("hardware_concurrency", static_cast<double>(hw));
  json.add_meta("iters", static_cast<double>(iters));
  json.add_meta("repeat", static_cast<double>(repeat));
  json.add_meta("reduced", reduced ? 1.0 : 0.0);

  std::string serial_text;
  double serial_best = 0.0;
  bool all_identical = true;

  util::Table t({"jobs", "wall_s", "speedup_vs_serial", "identical"});
  for (const int jobs : {1, 2, 4, 8}) {
    if (jobs > max_jobs && jobs != 1) continue;
    double best = 0.0;
    std::string text;
    for (int r = 0; r < repeat; ++r) {
      WallTimer wall;
      text = sweep_tables(jobs, iters, reduced);
      const double s = wall.seconds();
      if (r == 0 || s < best) best = s;
    }
    if (jobs == 1) {
      serial_text = text;
      serial_best = best;
    }
    const bool identical = text == serial_text;
    all_identical = all_identical && identical;
    const double speedup = best > 0.0 ? serial_best / best : 0.0;
    t.add(jobs, best, speedup, identical ? "yes" : "NO");
    json.add_point({{"jobs", static_cast<double>(jobs)},
                    {"wall_seconds", best},
                    {"speedup_vs_serial", speedup},
                    {"identical", identical ? 1.0 : 0.0}});
  }
  t.print(std::cout);
  json.write(total.seconds());

  if (!all_identical) {
    std::puts("\n# FAIL: a thread count changed the sweep output.");
    return 1;
  }
  std::puts("\n# All thread counts reproduced the serial tables exactly.");
  std::puts("# Speedup saturates at min(jobs, cores, cells-in-flight); on a");
  std::puts("# single-core host the curve stays flat by construction.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
