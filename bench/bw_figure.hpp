// Shared driver for Figures 3-8: the bandwidth window sweep.
#pragma once

#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

namespace mvflow::bench {

inline constexpr int kBwWindows[] = {1, 2, 4, 8, 10, 16, 25, 50, 75, 100};

/// Build the bandwidth table for one figure: msgs/s (and MB/s for large
/// payloads) for the three schemes as the window size sweeps past the
/// pre-post depth. Separated from printing so the golden-determinism test
/// can hash the exact table the bench binary prints. When `json` is given,
/// every row is also recorded as a figure point.
///
/// Each (window, scheme) cell is an independent deterministic World, so
/// the sweep runs on exp::SweepRunner with `jobs` workers; results come
/// back in job order and the table is bit-identical for every `jobs`
/// value (1 = the pre-runner serial loop).
/// `audit` arms the invariant auditor (DESIGN.md §15) in every cell;
/// false leaves each world's env-derived setting untouched.
inline util::Table build_bw_table(std::size_t msg_bytes, int prepost,
                                  bool blocking, BenchJson* json = nullptr,
                                  int jobs = 1, bool audit = false) {
  const exp::SweepRunner runner(jobs);
  std::vector<std::function<BwResult()>> cells;
  for (const int window : kBwWindows) {
    for (const auto scheme : kSchemes) {
      mpi::WorldConfig cfg = base_config(scheme, prepost);
      if (audit) cfg.run.audit = true;
      quiet_if_parallel(cfg, runner);
      cells.push_back([cfg, msg_bytes, window, blocking] {
        return run_bandwidth(cfg, msg_bytes, window, blocking);
      });
    }
  }
  const std::vector<BwResult> results = runner.run<BwResult>(cells);

  util::Table t({"window", "hardware_Mmsg/s", "static_Mmsg/s", "dynamic_Mmsg/s",
                 "hardware_MB/s", "static_MB/s", "dynamic_MB/s"});
  std::size_t i = 0;
  for (const int window : kBwWindows) {
    double mm[3], mb[3];
    for (int s = 0; s < 3; ++s, ++i) {
      mm[s] = results[i].million_msgs_per_s;
      mb[s] = results[i].mbytes_per_s;
    }
    t.add(window, mm[0], mm[1], mm[2], mb[0], mb[1], mb[2]);
    if (json) {
      json->add_point({{"window", static_cast<double>(window)},
                       {"hardware_Mmsg_s", mm[0]},
                       {"static_Mmsg_s", mm[1]},
                       {"dynamic_Mmsg_s", mm[2]},
                       {"hardware_MB_s", mb[0]},
                       {"static_MB_s", mb[1]},
                       {"dynamic_MB_s", mb[2]}});
    }
  }
  return t;
}

/// Print one bandwidth figure and write `BENCH_<json_name>.json` beside it.
inline int run_bw_figure(const char* title, const char* json_name,
                         std::size_t msg_bytes, int prepost, bool blocking,
                         const char* expectation,
                         const util::Options& opts) {
  const exp::SweepRunner runner = sweep_runner(opts);
  std::printf("# %s\n", title);
  std::printf("# msg=%zuB prepost=%d %s\n", msg_bytes, prepost,
              blocking ? "blocking (MPI_Send/MPI_Recv)"
                       : "non-blocking (MPI_Isend/MPI_Irecv)");
  WallTimer wall;
  BenchJson json(json_name);
  const util::Table t =
      build_bw_table(msg_bytes, prepost, blocking, &json, runner.threads());
  t.print(std::cout);
  json.add_meta("jobs", runner.threads());
  json.write(wall.seconds());
  std::printf("\n# Expectation (paper): %s\n", expectation);
  return 0;
}

}  // namespace mvflow::bench
