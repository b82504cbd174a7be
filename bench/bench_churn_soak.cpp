// Churn soak (DESIGN.md §13): the long-horizon robustness scenario. A
// multi-rank soak workload runs under packet loss plus scheduled link
// flaps severe enough to error QPs and exercise PR-1 auto-reconnect; the
// harness then crashes the world mid-flight, restores it from a warm
// snapshot in the same process, and checks the resumed run is
// bit-identical to the uninterrupted faulted run.
//
// Four deterministic phases:
//   calibrate  faultless soak, to place the flap windows in sim time
//   reference  faulted soak, uninterrupted (the golden outcome)
//   crash      same run, snapshot at ~1/3 of its events, killed at ~2/3
//   restore    world rebuilt from the snapshot, run to completion
//
// BENCH_churn_soak.json records messages survived, reconnects, replayed
// wire traffic, the restore wall-clock latency, and whether the restored
// metrics fingerprint matches the reference exactly.
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "mpi/checkpoint.hpp"
#include "util/serial.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

std::uint64_t executed_events(const obs::Snapshot& m) {
  return static_cast<std::uint64_t>(m.get("engine.executed", 0.0));
}

std::uint32_t metrics_crc(const obs::Snapshot& m) {
  const std::string json = m.to_json();
  return util::serial::crc32(json.data(), json.size());
}

std::uint64_t sum_reconnects(const mpi::WorldStats& s) {
  std::uint64_t n = 0;
  for (const auto& d : s.devices) n += d.reconnects;
  return n;
}

std::uint64_t sum_replayed(const mpi::WorldStats& s) {
  std::uint64_t n = 0;
  for (const auto& d : s.devices) n += d.replayed_wire_msgs;
  return n;
}

int run(const util::Options& opts) {
  const int ranks = static_cast<int>(opts.get_int("ranks", 4));
  const int rounds = static_cast<int>(opts.get_int("rounds", 120));
  const std::int64_t bytes = opts.get_int("bytes", 512);
  const std::string snap_path =
      opts.get_or("snapshot", "/tmp/mvflow_churn_soak.ck");
  WallTimer total;

  mpi::WorkloadSpec spec;
  spec.name = "soak";
  spec.params["rounds"] = rounds;
  spec.params["bytes"] = bytes;

  mpi::WorldConfig base;
  base.run = exp::RunConfig{};  // no env-driven exports from bench worlds
  base.num_ranks = ranks;
  base.flow.scheme = flowctl::Scheme::user_dynamic;
  base.flow.prepost = 10;
  base.max_sim_time = sim::milliseconds(60000);
  base.device.auto_reconnect = true;

  // Phase 1 — calibrate: a faultless pass tells us how long the soak runs
  // in sim time, so the flap windows land mid-run at any --rounds.
  const mpi::ckpt::RunResult calib = mpi::ckpt::run_reference(base, spec);
  const double calib_ns = static_cast<double>(calib.elapsed.count());
  std::printf("# calibrate: %" PRIu64 " events, %.3f ms sim\n",
              executed_events(calib.metrics), calib_ns / 1e6);

  // Fault plan: background packet loss plus two link flaps long enough to
  // exhaust the transport retry budget (QP error -> auto reconnect).
  mpi::WorldConfig faulted = base;
  faulted.fabric.transport_timeout = sim::microseconds(30);
  faulted.fabric.transport_retry_limit = 3;
  faulted.fabric.fault.seed = 0xc0ffee42;
  faulted.fabric.fault.loss_prob = 0.002;
  const auto flap_at = [&](double frac, int node) {
    ib::LinkFlap flap;
    flap.node = node;
    flap.down = sim::TimePoint(sim::nanoseconds(
        static_cast<std::int64_t>(calib_ns * frac)));
    flap.up = flap.down + sim::microseconds(400);
    return flap;
  };
  faulted.fabric.fault.flaps.push_back(flap_at(0.30, 0));
  faulted.fabric.fault.flaps.push_back(flap_at(0.60, 1));

  // Phase 2 — reference: the uninterrupted faulted run is the golden
  // outcome every restored run must reproduce bit-for-bit.
  const mpi::ckpt::RunResult ref = mpi::ckpt::run_reference(faulted, spec);
  const std::uint64_t total_events = executed_events(ref.metrics);
  std::printf("# reference: %" PRIu64 " events, %" PRIu64
              " reconnects, %" PRIu64 " msgs\n",
              total_events, sum_reconnects(ref.stats),
              ref.stats.total_messages());

  // Phase 3 — crash: snapshot at ~1/3 of the run, kill -9 at ~2/3. The
  // snapshot must already be safely on disk when the world dies.
  mpi::ckpt::RestoreOptions crash_opts;
  crash_opts.checkpoint_path = snap_path;
  crash_opts.checkpoint_events = {total_events / 3};
  crash_opts.kill_at = (2 * total_events) / 3;
  const mpi::ckpt::RunResult crashed =
      mpi::ckpt::run_reference(faulted, spec, crash_opts);
  std::printf("# crash: aborted=%d at %" PRIu64 " events\n",
              crashed.aborted ? 1 : 0, executed_events(crashed.metrics));

  // Phase 4 — restore: rebuild from the snapshot, replay to the barrier,
  // byte-audit, continue to completion. The wall clock around this is the
  // restore latency a real operator would pay.
  WallTimer restore_timer;
  const mpi::ckpt::WorldSnapshot snap = mpi::ckpt::read_snapshot(snap_path);
  const mpi::ckpt::RunResult restored = mpi::ckpt::restore_run(snap);
  const double restore_s = restore_timer.seconds();

  const bool identical =
      executed_events(restored.metrics) == total_events &&
      restored.elapsed == ref.elapsed &&
      metrics_crc(restored.metrics) == metrics_crc(ref.metrics);
  const std::uint64_t snap_bytes = util::serial::read_file(snap_path).size();

  util::Table t({"phase", "events", "sim_ms", "msgs", "reconnects",
                 "replayed", "lost_pkts", "flap_dropped"});
  const auto row = [&](const char* name, const mpi::ckpt::RunResult& r) {
    t.add(name, static_cast<double>(executed_events(r.metrics)),
          static_cast<double>(r.elapsed.count()) / 1e6,
          static_cast<double>(r.stats.total_messages()),
          static_cast<double>(sum_reconnects(r.stats)),
          static_cast<double>(sum_replayed(r.stats)),
          static_cast<double>(r.stats.fabric.lost_packets),
          static_cast<double>(r.stats.fabric.flap_dropped_packets));
  };
  row("reference", ref);
  row("crash", crashed);
  row("restore", restored);
  t.print(std::cout);
  std::printf("# restore: %.3f s wall (snapshot %" PRIu64
              " bytes), bit_identical=%d\n",
              restore_s, snap_bytes, identical ? 1 : 0);

  BenchJson json("churn_soak");
  json.add_meta("ranks", ranks);
  json.add_meta("rounds", rounds);
  json.add_meta("messages_survived",
                static_cast<double>(restored.stats.total_messages()));
  json.add_meta("reconnects",
                static_cast<double>(sum_reconnects(restored.stats)));
  json.add_meta("replayed_wire_msgs",
                static_cast<double>(sum_replayed(restored.stats)));
  json.add_meta("lost_packets",
                static_cast<double>(restored.stats.fabric.lost_packets));
  json.add_meta("flap_dropped_packets",
                static_cast<double>(restored.stats.fabric.flap_dropped_packets));
  json.add_meta("snapshot_bytes", static_cast<double>(snap_bytes));
  json.add_meta("restore_latency_s", restore_s);
  json.add_meta("bit_identical", identical ? 1.0 : 0.0);
  json.add_point({{"barrier_events",
                   static_cast<double>(crash_opts.checkpoint_events[0])},
                  {"kill_events", static_cast<double>(crash_opts.kill_at)},
                  {"total_events", static_cast<double>(total_events)}});
  json.write(total.seconds());
  write_metrics("churn_soak", restored.metrics);

  return identical ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
