// Shared helpers for the paper-reproduction bench binaries.
#pragma once

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "flowctl/flowctl.hpp"
#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "obs/metrics.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace mvflow::bench {

/// Shared `--jobs=N` / `-j N` flag for the sweep-shaped benches: how many
/// worker threads run the independent simulation cells. Absent or 0 means
/// hardware concurrency; `-j 1` reproduces the serial path exactly. The
/// value feeds exp::SweepRunner, whose job-order result contract makes
/// every table and JSON artifact bit-identical regardless of this setting.
inline int sweep_jobs(const util::Options& opts) {
  return static_cast<int>(opts.get_int("jobs", opts.get_int("j", 0)));
}

inline exp::SweepRunner sweep_runner(const util::Options& opts) {
  return exp::SweepRunner(sweep_jobs(opts));
}

/// Parallel sweep cells must not honour the env-driven per-world export
/// paths: N concurrent worlds would race writing one $MVFLOW_METRICS /
/// $MVFLOW_TRACE file. Serial (-j 1) sweeps keep today's behaviour.
inline void quiet_if_parallel(mpi::WorldConfig& cfg,
                              const exp::SweepRunner& runner) {
  if (runner.threads() > 1) cfg.run = cfg.run.quiet();
}

/// Persist a registry snapshot as `METRICS_<name>.json` next to the
/// BENCH_*.json records; failures are silent for the same read-only-cwd
/// reason as BenchJson::write.
inline void write_metrics(const std::string& name, const obs::Snapshot& snap) {
  snap.write_json("METRICS_" + name + ".json");
}

/// Machine-readable benchmark record, written as `BENCH_<name>.json` in the
/// working directory so the perf trajectory can accumulate across runs and
/// CI artifacts. One object per run: the figure points plus the wall-clock
/// cost of producing them.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  /// One figure point as ordered (key, value) pairs.
  void add_point(std::vector<std::pair<std::string, double>> kv) {
    points_.push_back(std::move(kv));
  }

  /// Extra top-level scalar (e.g. counter totals).
  void add_meta(std::string key, double value) {
    meta_.emplace_back(std::move(key), value);
  }

  void write(double wall_seconds) const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return;  // read-only cwd: table output still tells the story
    std::fprintf(f, "{\n  \"name\": \"%s\",\n", name_.c_str());
    std::fprintf(f, "  \"wall_seconds\": %.6f,\n", wall_seconds);
    for (const auto& [k, v] : meta_)
      std::fprintf(f, "  \"%s\": %.17g,\n", k.c_str(), v);
    std::fprintf(f, "  \"points\": [");
    for (std::size_t i = 0; i < points_.size(); ++i) {
      std::fprintf(f, "%s\n    {", i == 0 ? "" : ",");
      for (std::size_t j = 0; j < points_[i].size(); ++j) {
        std::fprintf(f, "%s\"%s\": %.17g", j == 0 ? "" : ", ",
                     points_[i][j].first.c_str(), points_[i][j].second);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ]\n}\n");
    std::fclose(f);
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> meta_;
  std::vector<std::vector<std::pair<std::string, double>>> points_;
};

/// Wall-clock stopwatch for the self-benchmarking (host time, not simulated
/// time — the one place where real time is the measurement).
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline const flowctl::Scheme kSchemes[] = {
    flowctl::Scheme::hardware, flowctl::Scheme::user_static,
    flowctl::Scheme::user_dynamic};

inline mpi::WorldConfig base_config(flowctl::Scheme scheme, int prepost,
                                    int ranks = 2) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = ranks;
  cfg.flow.scheme = scheme;
  cfg.flow.prepost = prepost;
  return cfg;
}

/// Optional engine-configuration override for a sweep (DESIGN.md §14):
/// -1 leaves the world's env-derived default untouched, so existing
/// call sites keep honouring $MVFLOW_SCHEDULER. The golden-determinism
/// test drives the fig tables through every scheduler to pin the "engine
/// mode never changes results" claim.
struct EngineMode {
  int scheduler = -1;  ///< static_cast<int>(sim::SchedKind), or -1
  int audit = -1;      ///< 0/1 forces the invariant auditor off/on, or -1

  void apply(mpi::WorldConfig& cfg) const {
    if (scheduler >= 0) cfg.scheduler = static_cast<sim::SchedKind>(scheduler);
    if (audit >= 0) cfg.run.audit = audit != 0;
  }
};

struct BwResult {
  double million_msgs_per_s = 0;
  double mbytes_per_s = 0;
  mpi::WorldStats stats;
};

/// The paper's bandwidth test (§6.2.2): the sender pushes `window`
/// back-to-back messages, the receiver replies after consuming all of
/// them; repeated `reps` times. Blocking uses send/recv, non-blocking
/// isend/irecv + waitall. The WorldConfig overload lets sweep jobs pass a
/// fully-specified (e.g. quieted) configuration.
inline BwResult run_bandwidth(mpi::WorldConfig cfg, std::size_t msg_bytes,
                              int window, bool blocking, int reps = 20) {
  mpi::World world(std::move(cfg));
  const auto elapsed = world.run([&](mpi::Communicator& comm) {
    std::vector<std::byte> payload(msg_bytes == 0 ? 1 : msg_bytes);
    std::vector<std::byte> ackbuf(1);
    // One receive buffer reused by every outstanding receive (standard
    // bandwidth-microbenchmark practice, e.g. OSU bw): the data content is
    // not inspected, and the pin-down cache sees one stable region.
    std::vector<std::byte> rxbuf(msg_bytes == 0 ? 1 : msg_bytes);
    for (int rep = 0; rep < reps; ++rep) {
      if (comm.rank() == 0) {
        if (blocking) {
          for (int i = 0; i < window; ++i)
            comm.send(std::span<const std::byte>(payload.data(), msg_bytes), 1, 0);
        } else {
          std::vector<mpi::RequestPtr> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int i = 0; i < window; ++i)
            reqs.push_back(comm.isend(
                std::span<const std::byte>(payload.data(), msg_bytes), 1, 0));
          comm.wait_all(reqs);
        }
        comm.recv(ackbuf, 1, 1);  // receiver's reply
      } else {
        if (blocking) {
          for (int i = 0; i < window; ++i)
            comm.recv(std::span<std::byte>(rxbuf.data(), msg_bytes), 0, 0);
        } else {
          std::vector<mpi::RequestPtr> reqs;
          reqs.reserve(static_cast<std::size_t>(window));
          for (int i = 0; i < window; ++i)
            reqs.push_back(
                comm.irecv(std::span<std::byte>(rxbuf.data(), msg_bytes), 0, 0));
          comm.wait_all(reqs);
        }
        comm.send(ackbuf, 0, 1);
      }
    }
  });

  BwResult out;
  const double secs = sim::to_s(elapsed);
  const double msgs = static_cast<double>(window) * reps;
  out.million_msgs_per_s = msgs / secs / 1e6;
  out.mbytes_per_s = msgs * static_cast<double>(msg_bytes) / secs / 1e6;
  out.stats = world.collect_stats();
  return out;
}

inline BwResult run_bandwidth(flowctl::Scheme scheme, int prepost,
                              std::size_t msg_bytes, int window, bool blocking,
                              int reps = 20) {
  return run_bandwidth(base_config(scheme, prepost), msg_bytes, window,
                       blocking, reps);
}

}  // namespace mvflow::bench
