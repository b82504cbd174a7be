// Connection-count scaling bench (DESIGN.md §17): events/sec as the world
// grows from 16 to 1024 connections, under the two shapes that bound the
// design space:
//
//   allpairs — R ranks eagerly wired all-to-all (R^2 connections, all of
//              them active): the dense-table / incremental-aggregate path.
//              R in {4, 8, 16, 32} sweeps 16 -> 1024 connections.
//   hotspot  — up to 1024 *configured* ranks under on-demand wiring with a
//              constant 8-spoke active set: the O(active)-progress path.
//              Idle ranks never create a connection, so marginal cost per
//              round must be completely independent of the world size.
//
// Hotspot throughput is measured as a *slope*: each cell runs the workload
// at `rounds` and `2*rounds` and reports marginal events per wall second,
// which cancels the N-dependent fixed cost of building the world and
// spawning rank processes — exactly the per-poll cost the O(active) claim
// is about. Two exact verdicts ride in the meta block and are gated
// bit-for-bit by check_perf_regression.py:
//
//   o_active_slope_invariant — marginal *simulated events* per round at
//       N=1024 equals N=16 exactly (idle connections schedule nothing);
//   wheel_dead_pops_not_worse — under a retransmit-timer-heavy cell the
//       timer wheel reaps at least as many cancelled timers in bulk
//       (timer_purges) as it saves in front-of-queue zombie pops, so its
//       dead_pops never exceed the 4-ary heap's on the same traffic.
//
// Results go to BENCH_conn_scaling.json; the committed baseline lives in
// bench/baseline/.
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "mpi/device.hpp"
#include "mpi/workload.hpp"
#include "sim/engine.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

struct CellResult {
  double wall_s = 0;            ///< whole world.run() wall time
  std::uint64_t events = 0;     ///< engine events executed
  std::uint64_t connections = 0;
  sim::EnginePerfStats perf;
};

CellResult run_cell(mpi::WorldConfig cfg, const mpi::WorkloadSpec& spec) {
  mpi::World world(std::move(cfg));
  const mpi::RankBodyFn body = mpi::make_workload(spec);
  WallTimer timer;
  world.run([&](mpi::Communicator& comm) { body(comm); });
  CellResult out;
  out.wall_s = timer.seconds();
  out.events = world.executed_events();
  out.perf = world.engine().perf_stats();
  for (int r = 0; r < world.config().num_ranks; ++r) {
    out.connections += world.device(r).endpoint_count();
  }
  return out;
}

mpi::WorldConfig scaling_config(int ranks, int scheduler) {
  mpi::WorldConfig cfg;
  cfg.run = cfg.run.quiet();  // never race per-world env export files
  cfg.num_ranks = ranks;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 16;
  if (scheduler >= 0) cfg.scheduler = static_cast<sim::SchedKind>(scheduler);
  return cfg;
}

mpi::WorkloadSpec allpairs_spec(int rounds) {
  mpi::WorkloadSpec spec;
  spec.name = "allpairs";
  spec.params["rounds"] = rounds;
  spec.params["bytes"] = 512;
  return spec;
}

mpi::WorkloadSpec hotspot_spec(int rounds) {
  mpi::WorkloadSpec spec;
  spec.name = "hotspot";
  spec.params["actives"] = 8;
  spec.params["rounds"] = rounds;
  spec.params["bytes"] = 128;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  // --rounds scales every cell's traffic; --scheduler picks the
  // sim::SchedKind for the throughput cells.
  const int rounds =
      static_cast<int>(std::max<std::int64_t>(1, opts.get_int("rounds", 8)));
  const int scheduler = static_cast<int>(opts.get_int("scheduler", -1));

  WallTimer wall;
  BenchJson json("conn_scaling");
  json.add_meta("endpoint_state_bytes",
                static_cast<double>(mpi::Device::endpoint_state_bytes()));
  json.add_meta("index_bytes_per_rank",
                static_cast<double>(mpi::Device::kIndexBytesPerRank));
  json.add_meta("hardware_concurrency",
                static_cast<double>(std::thread::hardware_concurrency()));

  std::puts("# Connection-count scaling: events/s vs world size");
  util::Table table({"shape", "ranks", "conns", "events", "wall_ms",
                     "mevents_per_s", "dead_pops", "timer_purges"});

  // ---- allpairs: 16 -> 1024 live connections, all active ----------------
  for (const int ranks : {4, 8, 16, 32}) {
    const CellResult cell =
        run_cell(scaling_config(ranks, scheduler), allpairs_spec(rounds));
    const double mev = static_cast<double>(cell.events) / cell.wall_s / 1e6;
    table.add("allpairs", ranks, static_cast<std::size_t>(cell.connections),
              static_cast<std::size_t>(cell.events), cell.wall_s * 1e3, mev,
              static_cast<std::size_t>(cell.perf.dead_pops),
              static_cast<std::size_t>(cell.perf.timer_purges));
    json.add_point({{"shape", 0},
                    {"ranks", static_cast<double>(ranks)},
                    {"connections", static_cast<double>(cell.connections)},
                    {"events", static_cast<double>(cell.events)},
                    {"mevents_per_s", mev},
                    {"dead_pops", static_cast<double>(cell.perf.dead_pops)},
                    {"timer_purges",
                     static_cast<double>(cell.perf.timer_purges)}});
  }

  // ---- hotspot: constant active set inside growing worlds ---------------
  double mev16 = 0, mev1024 = 0;
  std::uint64_t slope16 = 0;
  bool slope_invariant = true;
  // The wall-clock slope needs enough traffic to dominate scheduler and
  // process-creation noise, so hotspot cells run ~50x the allpairs rounds
  // (the active set is 8 connections — each round is cheap).
  const int hot_rounds = 50 * rounds;
  for (const int ranks : {16, 64, 256, 1024}) {
    mpi::WorldConfig cfg = scaling_config(ranks, scheduler);
    cfg.on_demand_connections = true;
    const CellResult lo = run_cell(cfg, hotspot_spec(hot_rounds));
    const CellResult hi = run_cell(cfg, hotspot_spec(2 * hot_rounds));
    // Marginal cost of `rounds` more rounds: fixed world-size costs
    // (spawning N rank processes, building N devices) cancel out.
    const std::uint64_t slope_events = hi.events - lo.events;
    const double slope_wall = hi.wall_s - lo.wall_s;
    const double mev = static_cast<double>(slope_events) / slope_wall / 1e6;
    if (ranks == 16) {
      slope16 = slope_events;
      mev16 = mev;
    }
    if (ranks == 1024) mev1024 = mev;
    if (slope_events != slope16) slope_invariant = false;
    table.add("hotspot", ranks, static_cast<std::size_t>(hi.connections),
              static_cast<std::size_t>(slope_events), slope_wall * 1e3, mev,
              static_cast<std::size_t>(hi.perf.dead_pops),
              static_cast<std::size_t>(hi.perf.timer_purges));
    json.add_point({{"shape", 1},
                    {"ranks", static_cast<double>(ranks)},
                    {"connections", static_cast<double>(hi.connections)},
                    {"events", static_cast<double>(slope_events)},
                    {"mevents_per_s", mev},
                    {"dead_pops", static_cast<double>(hi.perf.dead_pops)},
                    {"timer_purges",
                     static_cast<double>(hi.perf.timer_purges)}});
  }
  // Exact O(active) verdict: idle ranks contribute zero events per round
  // at every world size. The wall-clock form of the same claim: marginal
  // events/s at 1024 configured ranks within 2x of the 16-rank rate.
  json.add_meta("o_active_slope_invariant", slope_invariant ? 1 : 0);
  json.add_meta("hotspot_1024_vs_16_ratio_ok", mev1024 * 2.0 >= mev16 ? 1 : 0);
  std::printf("# o_active_slope_invariant=%d  hotspot mev/s 16=%.2f "
              "1024=%.2f\n",
              slope_invariant ? 1 : 0, mev16, mev1024);

  // ---- timer-heavy cell: 4-ary heap vs timer wheel -----------------------
  // Arm the transport ACK timeout so every credited message schedules a
  // retransmit timer that is almost always cancelled; the wheel should
  // bulk-purge those tombstones during cascades (timer_purges) instead
  // of reaping them one by one at the queue front (dead_pops).
  sim::EnginePerfStats perf_by_kind[2];
  for (int k = 0; k < 2; ++k) {
    mpi::WorldConfig cfg = scaling_config(
        64, static_cast<int>(k == 0 ? sim::SchedKind::heap4
                                    : sim::SchedKind::wheel));
    cfg.on_demand_connections = true;
    cfg.fabric.transport_timeout = sim::microseconds(500);
    perf_by_kind[k] = run_cell(cfg, hotspot_spec(4 * rounds)).perf;
  }
  const sim::EnginePerfStats& heap_perf = perf_by_kind[0];
  const sim::EnginePerfStats& wheel_perf = perf_by_kind[1];
  json.add_meta("heap_dead_pops", static_cast<double>(heap_perf.dead_pops));
  json.add_meta("wheel_dead_pops", static_cast<double>(wheel_perf.dead_pops));
  json.add_meta("wheel_timer_purges",
                static_cast<double>(wheel_perf.timer_purges));
  json.add_meta("wheel_dead_pops_not_worse",
                wheel_perf.dead_pops <= heap_perf.dead_pops ? 1 : 0);
  json.add_meta(
      "timer_accounting_ok",
      wheel_perf.dead_pops + wheel_perf.timer_purges ==
              wheel_perf.cancelled_before_fire &&
              heap_perf.dead_pops == heap_perf.cancelled_before_fire
          ? 1
          : 0);
  std::printf("# timer-heavy: heap dead_pops=%llu wheel dead_pops=%llu "
              "wheel purges=%llu\n",
              static_cast<unsigned long long>(heap_perf.dead_pops),
              static_cast<unsigned long long>(wheel_perf.dead_pops),
              static_cast<unsigned long long>(wheel_perf.timer_purges));

  table.print(std::cout);
  json.write(wall.seconds());
  return 0;
}
