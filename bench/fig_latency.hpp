// Shared driver for Figure 2: the small-message ping-pong latency sweep.
// Separated from the bench main so the golden-determinism test can hash the
// exact table the bench binary prints.
#pragma once

#include <span>
#include <vector>

#include "bench_common.hpp"

namespace mvflow::bench {

inline double pingpong_us(mpi::WorldConfig cfg, std::size_t bytes, int iters) {
  mpi::World world(std::move(cfg));
  const auto elapsed = world.run([&](mpi::Communicator& comm) {
    std::vector<std::byte> buf(bytes == 0 ? 1 : bytes);
    const auto span_all = std::span<std::byte>(buf.data(), bytes);
    for (int i = 0; i < iters; ++i) {
      if (comm.rank() == 0) {
        comm.send(span_all, 1, 0);
        comm.recv(span_all, 1, 0);
      } else {
        comm.recv(span_all, 0, 0);
        comm.send(span_all, 0, 0);
      }
    }
  });
  return sim::to_us(elapsed) / (2.0 * iters);
}

inline double pingpong_us(flowctl::Scheme scheme, std::size_t bytes,
                          int iters) {
  return pingpong_us(base_config(scheme, /*prepost=*/100), bytes, iters);
}

inline constexpr std::size_t kFig2Sizes[] = {4,   16,   64,   256,
                                             512, 1024, 1984, 4096};

/// One-way latency (us) for the three schemes across the paper's sizes.
/// Each (size, scheme) cell is one deterministic World, swept on the
/// parallel runner (`jobs` workers; 1 = the pre-runner serial loop) with
/// results gathered in job order — the table is bit-identical for any
/// `jobs` value.
/// `audit` arms the invariant auditor (DESIGN.md §15) in every cell;
/// false leaves each world's env-derived setting untouched.
inline util::Table build_fig2_table(int iters, BenchJson* json = nullptr,
                                    int jobs = 1, bool audit = false) {
  const exp::SweepRunner runner(jobs);
  std::vector<std::function<double()>> cells;
  for (const std::size_t bytes : kFig2Sizes) {
    for (const auto scheme : kSchemes) {
      mpi::WorldConfig cfg = base_config(scheme, /*prepost=*/100);
      if (audit) cfg.run.audit = true;
      quiet_if_parallel(cfg, runner);
      cells.push_back([cfg, bytes, iters] {
        return pingpong_us(cfg, bytes, iters);
      });
    }
  }
  const std::vector<double> us = runner.run<double>(cells);

  util::Table t({"size_bytes", "hardware_us", "static_us", "dynamic_us"});
  std::size_t i = 0;
  for (const std::size_t bytes : kFig2Sizes) {
    const double h = us[i], s = us[i + 1], d = us[i + 2];
    i += 3;
    t.add(bytes, h, s, d);
    if (json) {
      json->add_point({{"size_bytes", static_cast<double>(bytes)},
                       {"hardware_us", h},
                       {"static_us", s},
                       {"dynamic_us", d}});
    }
  }
  return t;
}

}  // namespace mvflow::bench
