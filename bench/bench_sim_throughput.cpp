// Self-benchmark of the simulation hot path: wall-clock events/sec and
// modeled MB/s while driving a fig3-style bandwidth window sweep over the
// paper's 8-node testbed topology. The traffic runs at the ib (verbs) layer
// — a ring of RC connections pushing windows of messages — so the
// measurement isolates the packet-hop event pipeline (schedule, heap,
// dispatch, packet payload handling) that bounds every other experiment in
// EXPERIMENTS.md. Results are written to BENCH_sim_throughput.json so the
// perf trajectory accumulates in CI.
#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

constexpr int kNodes = 8;

struct Sweep {
  const char* label;
  std::size_t bytes;
  int window;
  int reps;
  bool transport_timers;  ///< Arm/cancel the retx timer per message.
};

// Small eager-sized, MTU-boundary, and multi-packet traffic; one config
// additionally runs the transport ACK-timeout machinery so the
// schedule-then-cancel path (timers that almost never fire) is measured too.
const Sweep kSweeps[] = {
    {"4B_w100", 4, 100, 400, false},
    {"4B_w100_tt", 4, 100, 400, true},
    {"2KB_w50", 2048, 50, 400, false},
    {"16KB_w10", 16 * 1024, 10, 400, false},
};

struct RingResult {
  double wall_s = 0;   ///< wall-clock inside engine.run() — the event pipeline
  double drive_s = 0;  ///< whole loop incl. posting WQEs and draining CQs
  double sim_s = 0;
  std::uint64_t events = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t completions = 0;
  sim::EnginePerfStats perf;
};

/// All 8 nodes push `window` messages around the ring per repetition; the
/// queue drains fully between repetitions (recvs are pre-posted, so the
/// happy path never takes an RNR detour).
RingResult run_ring(const Sweep& s, int reps) {
  // The fabric owns its (disarmed) recorder and profiler, so the
  // instrumentation fast path under measurement is the production one:
  // one predicted branch per site, reached through the HCA.
  sim::Engine engine;
  ib::FabricConfig cfg;
  if (s.transport_timers) cfg.transport_timeout = sim::microseconds(500);
  ib::Fabric fabric(engine, cfg, kNodes);

  std::vector<std::vector<std::byte>> txbuf(kNodes), rxbuf(kNodes);
  std::vector<ib::MemoryRegionHandle> txmr(kNodes), rxmr(kNodes);
  std::vector<std::shared_ptr<ib::CompletionQueue>> cq(kNodes);
  std::vector<std::shared_ptr<ib::QueuePair>> tx(kNodes), rx(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    txbuf[i].resize(s.bytes);
    rxbuf[i].resize(s.bytes);
    txmr[i] = fabric.hca(i).register_memory(txbuf[i], ib::Access::local_read);
    rxmr[i] = fabric.hca(i).register_memory(rxbuf[i], ib::Access::local_write);
    cq[i] = fabric.hca(i).create_cq();
    tx[i] = fabric.hca(i).create_qp(cq[i], cq[i]);
    rx[i] = fabric.hca(i).create_qp(cq[i], cq[i]);
  }
  for (int i = 0; i < kNodes; ++i)
    ib::Fabric::connect(*tx[i], *rx[(i + 1) % kNodes]);

  RingResult out;
  WallTimer drive;
  // Events/sec is measured inside engine.run() only: posting WQEs and
  // draining CQs is host-side driver work, not the event pipeline this
  // bench tracks. The full loop is still reported as drive_s.
  for (int rep = 0; rep < reps; ++rep) {
    for (int i = 0; i < kNodes; ++i) {
      ib::RecvWr rwr;
      rwr.local_addr = rxbuf[i].data();
      rwr.length = static_cast<std::uint32_t>(s.bytes);
      rwr.lkey = rxmr[i].lkey;
      for (int w = 0; w < s.window; ++w) rx[i]->post_recv(rwr);
    }
    for (int i = 0; i < kNodes; ++i) {
      ib::SendWr swr;
      swr.local_addr = txbuf[i].data();
      swr.length = static_cast<std::uint32_t>(s.bytes);
      swr.lkey = txmr[i].lkey;
      for (int w = 0; w < s.window; ++w) tx[i]->post_send(swr);
    }
    WallTimer run_timer;
    engine.run();
    out.wall_s += run_timer.seconds();
    for (int i = 0; i < kNodes; ++i)
      while (cq[i]->poll()) ++out.completions;
  }
  out.drive_s = drive.seconds();
  out.sim_s = sim::to_s(engine.now());
  out.events = engine.executed_events();
  out.perf = engine.perf_stats();
  out.wire_bytes = fabric.stats().wire_bytes;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  // --scale multiplies repetitions for longer, steadier measurements;
  // --passes sets how many timed passes each config gets (best one is
  // reported, rejecting scheduler noise on shared machines).
  const int scale = static_cast<int>(opts.get_int("scale", 1));
  const int passes = static_cast<int>(opts.get_int("passes", 3));

  std::puts(
      "# Simulator self-benchmark: events/sec, 8-node ring bandwidth sweep");
  util::Table t({"traffic", "events", "wall_ms", "Mevents/s", "modeled_MB/s",
                 "sim_ms", "pool_hit_%"});
  WallTimer wall;
  BenchJson json("sim_throughput");
  double total_events = 0, total_wall = 0;
  for (const Sweep& s : kSweeps) {
    RingResult r = run_ring(s, s.reps * scale);
    for (int p = 1; p < passes; ++p) {
      RingResult again = run_ring(s, s.reps * scale);
      if (again.wall_s < r.wall_s) r = again;
    }
    const double mev_s = static_cast<double>(r.events) / r.wall_s / 1e6;
    const double mb_s = static_cast<double>(r.wire_bytes) / r.wall_s / 1e6;
    const double hit = 100.0 * r.perf.pool_hit_rate();
    t.add(s.label, static_cast<std::size_t>(r.events), r.wall_s * 1e3, mev_s,
          mb_s, r.sim_s * 1e3, hit);
    json.add_point({{"bytes", static_cast<double>(s.bytes)},
                    {"window", static_cast<double>(s.window)},
                    {"transport_timers", s.transport_timers ? 1.0 : 0.0},
                    {"events", static_cast<double>(r.events)},
                    {"wall_seconds", r.wall_s},
                    {"drive_seconds", r.drive_s},
                    {"mevents_per_s", mev_s},
                    {"modeled_MB_per_s", mb_s},
                    {"sim_seconds", r.sim_s},
                    {"completions", static_cast<double>(r.completions)},
                    {"pool_hit_rate", r.perf.pool_hit_rate()},
                    {"peak_heap_depth",
                     static_cast<double>(r.perf.peak_heap_depth)}});
    total_events += static_cast<double>(r.events);
    total_wall += r.wall_s;
  }
  t.print(std::cout);
  json.add_meta("total_mevents_per_s", total_events / total_wall / 1e6);
  json.write(wall.seconds());
  std::printf("\n# aggregate: %.2f Mevents/s\n",
              total_events / total_wall / 1e6);
  return 0;
}
