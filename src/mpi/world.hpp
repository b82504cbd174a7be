// World: builds the fabric, one device per rank, wires the RC connections
// (eagerly, as the paper's MPI does at init, or on demand), runs one
// simulated process per rank, and gathers the statistics the benchmarks
// report.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/run_config.hpp"
#include "flowctl/flowctl.hpp"
#include "ib/config.hpp"
#include "ib/fabric.hpp"
#include "mpi/config.hpp"
#include "mpi/device.hpp"
#include "mpi/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/sharded.hpp"
#include "sim/watchdog.hpp"

namespace mvflow::mpi {

class Communicator;

struct WorldConfig {
  int num_ranks = 2;
  flowctl::Config flow;
  ib::FabricConfig fabric;
  DeviceConfig device;
  /// Lazily create connections on first communication (Wu et al. [23];
  /// composes with the flow-control schemes).
  bool on_demand_connections = false;

  /// Engine parallelism (DESIGN.md §14). 0 runs the single serial engine —
  /// the golden reference every result is defined against. N > 0 runs one
  /// engine shard per rank, executed by min(N, num_ranks) worker threads
  /// under the conservative lookahead window protocol; results are
  /// bit-identical across every N > 0 (the worker count only decides which
  /// OS thread runs a shard), and the serial engine stays the reference.
  /// Defaults to the one-time $MVFLOW_ENGINE_THREADS snapshot.
  int engine_threads = sim::default_engine_threads();
  /// Pending-set scheduler for every engine/shard; defaulted from the
  /// one-time $MVFLOW_SCHEDULER snapshot. Never changes results, only
  /// wall-clock (scheduler.hpp).
  sim::SchedKind scheduler = sim::default_sched_kind();

  /// Upper bound on simulated time; exceeding it is reported as a deadlock
  /// (protects against infinite hardware retry loops in the modeled system).
  sim::Duration max_sim_time = sim::seconds(30);

  /// Arm the causal profiler (DESIGN.md §16) without requesting a file
  /// export — for tests and benchmarks that read the analysis in process.
  /// $MVFLOW_PROF (run.prof_path) arms it too, and additionally writes the
  /// profile JSON at flush_exports.
  bool profile = false;

  /// Tracing/metrics-export configuration. Defaults to the one-time
  /// process snapshot of the MVFLOW_* environment; sweep jobs running on
  /// the parallel runner get an explicit (quiet) config instead, so
  /// concurrent worlds never race on env-driven output files.
  exp::RunConfig run = exp::RunConfig::process();
};

/// Thrown when the simulation drains with ranks still blocked in MPI calls.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(std::string what) : std::runtime_error(std::move(what)) {}
};

/// Per-connection report (one direction: `rank`'s endpoint toward `peer`).
struct ConnectionReport {
  Rank rank = -1;
  Rank peer = -1;
  flowctl::Counters flow;
  ib::QpStats qp;
};

struct WorldStats {
  sim::Duration elapsed{0};  ///< Max over ranks of body-finish time.
  std::vector<ConnectionReport> connections;
  std::vector<DeviceStats> devices;
  ib::FabricStats fabric;

  /// World totals, folded from each device's incremental aggregate at
  /// collect time — O(ranks), not O(connections). The accessors below read
  /// these; under MVFLOW_AUDIT collect_stats() cross-checks them against a
  /// full per-connection re-sum (DESIGN.md §17).
  flowctl::Counters flow_totals;
  ib::QpStats qp_totals;

  std::uint64_t total_ecm() const;
  std::uint64_t total_messages() const;  ///< All MPI-level messages sent.
  std::uint64_t total_backlogged() const;
  std::uint64_t total_rnr_naks() const;
  std::uint64_t total_retransmitted_messages() const;
  int max_posted_buffers() const;  ///< Paper's Table 2 metric.
};

class World {
 public:
  explicit World(WorldConfig cfg);
  World(const World&) = delete;
  World& operator=(const World&) = delete;
  ~World();

  using RankBody = std::function<void(Communicator&)>;

  /// Run the same body on every rank; returns elapsed simulated time
  /// (max over ranks). May be called once per World.
  sim::Duration run(const RankBody& body);

  /// Run one body per rank.
  sim::Duration run(const std::vector<RankBody>& bodies);

  /// Declare the workload this world runs as a *registered* spec
  /// (mpi/workload.hpp), making the run checkpointable: snapshots record
  /// the spec and a restore replays it. Call before run().
  void set_workload(WorkloadSpec spec) { workload_ = std::move(spec); }
  const std::optional<WorkloadSpec>& workload() const noexcept {
    return workload_;
  }

  /// Run the registered workload (set_workload must have been called).
  sim::Duration run_workload();

  /// Crash the simulation at the next event boundary (serial) or window
  /// barrier (sharded): run() kills every rank process still blocked
  /// mid-call and returns the elapsed time so far (no deadlock diagnosis,
  /// no exports). This is the churn harness's "kill -9 mid-flight" — the
  /// snapshot written *before* the abort is the state a restart resumes
  /// from.
  void abort_run() {
    abort_requested_ = true;
    if (sharded_ != nullptr) {
      sharded_->request_stop();
    } else {
      serial_->stop();
    }
  }
  bool aborted() const noexcept { return abort_requested_; }

  const WorldConfig& config() const noexcept { return cfg_; }
  int num_ranks() const noexcept { return cfg_.num_ranks; }

  /// True when this world runs the sharded engine (engine_threads > 0).
  bool is_sharded() const noexcept { return sharded_ != nullptr; }
  /// The engine rank r's node-local work runs on: its shard in a sharded
  /// world, the one serial engine otherwise.
  sim::Engine& engine_for(Rank r) noexcept {
    return sharded_ != nullptr ? sharded_->shard(static_cast<std::size_t>(r))
                               : *serial_;
  }
  /// Rank 0's engine / the serial engine. Callers acting for a specific
  /// rank use engine_for; world-global questions (executed counts,
  /// watchpoints, pending events) use the wrappers below, which aggregate
  /// across shards.
  sim::Engine& engine() noexcept { return engine_for(0); }
  /// Non-null in sharded worlds.
  sim::ShardedEngine* sharded_engine() noexcept { return sharded_.get(); }

  /// Events executed across the whole world (sum over shards).
  std::uint64_t executed_events() const noexcept;
  /// Live pending events across the whole world (sum over shards).
  std::size_t pending_events() const noexcept;
  /// Run `fn` once executed_events() reaches `executed`: at an exact event
  /// boundary in serial worlds, at the first window barrier where the total
  /// reaches it in sharded worlds (between windows every shard is quiescent
  /// and cross-shard state fully applied — the only globally consistent
  /// instants a parallel run has). The checkpoint layer arms its capture,
  /// audit, and kill hooks through this.
  void set_event_watchpoint(std::uint64_t executed, std::function<void()> fn);
  /// Engine section of a snapshot: shard count, then each engine's
  /// scheduler-agnostic dispatch state. Serial worlds write count 1 — a
  /// serial snapshot and a sharded one are deliberately *different* bytes,
  /// because their event interleavings genuinely differ; within sharded
  /// worlds the bytes are identical at every worker count.
  void serialize_engine_state(util::serial::BufWriter& w) const;
  /// Trace section of a snapshot: the world recorder plus each shard
  /// recorder, in shard order.
  void serialize_trace_state(util::serial::BufWriter& w) const;

  ib::Fabric& fabric() noexcept { return *fabric_; }
  Device& device(Rank r) { return *devices_.at(static_cast<std::size_t>(r)); }

  /// Create and connect the endpoint pair between two ranks (both sides
  /// activated). Used at init (eager mode) and by on-demand setup.
  void wire_pair(Rank a, Rank b);

  /// Rebuild a failed connection (DeviceConfig::auto_reconnect): retire
  /// both errored QPs, connect a fresh pair, repost the receive pools and
  /// replay unacknowledged wire traffic. Scheduled by the devices after a
  /// QP error; no-op when neither side is still recovering (both devices
  /// schedule it, the first firing repairs the pair).
  void recover_pair(Rank a, Rank b);

  /// Collect per-connection / per-device / fabric statistics.
  WorldStats collect_stats() const;

  // ---- invariant auditor (obs/audit.hpp, DESIGN.md §15) ----
  /// Auditor armed for this world (run config's MVFLOW_AUDIT snapshot).
  bool audit_enabled() const noexcept { return cfg_.run.audit; }
  /// Serial worlds check inline after every delivered message (Device
  /// caches this at construction); sharded worlds sweep at barriers.
  bool audit_inline() const noexcept {
    return cfg_.run.audit && sharded_ == nullptr;
  }
  /// Check every invariant on the (a, b) connection pair, both directions:
  /// credit conservation, backlog books, delivery window, and buffer
  /// accounting. Throws obs::AuditError naming the direction and section.
  void audit_pair(Rank a, Rank b);
  /// audit_pair over every wired pair — the sharded barrier sweep and the
  /// end-of-run final check; public so tests can force a sweep.
  void audit_sweep();

  /// Write the configured end-of-run artifacts (metrics snapshot, Chrome
  /// trace, credit CSV) now, once: run() calls it on every exit path —
  /// clean end, abort_run, deadlock diagnosis, audit/watchdog failure — so
  /// a failing run still leaves its evidence on disk (satellite: DESIGN.md
  /// §15). Idempotent; subsequent calls are no-ops.
  void flush_exports();

  /// Unified metrics registry: the engine, fabric, pool, per-device and
  /// per-connection stats all register sources here; one snapshot() yields
  /// the whole stack's counters as a flat document (DESIGN.md §11).
  obs::MetricsRegistry& metrics() noexcept { return metrics_; }

  /// This world's flight recorder (DESIGN.md §11-12). World-owned so
  /// concurrent worlds trace independently; the constructor binds it as the
  /// current thread's recorder and run() rebinds it on the running thread,
  /// where the rank fibers run too. Armed automatically when the run
  /// config requests a trace export; tests may enable() it directly.
  /// Sharded worlds additionally keep one recorder per shard (shard windows
  /// record concurrently) — this one then holds only coordinator-context
  /// events, and merged_trace() presents the union.
  obs::FlightRecorder& recorder() noexcept { return recorder_; }
  /// Shard s's recorder (sharded worlds only).
  obs::FlightRecorder& shard_recorder(std::size_t s) {
    return *shard_recorders_.at(s);
  }

  /// One world-ordered trace: the world recorder with every shard recorder
  /// absorbed in shard order (a plain copy of recorder() in serial worlds).
  /// What the trace/CSV exports and trace-reading tests should consume.
  obs::FlightRecorder merged_trace() const;
  /// Latency accumulators summed over the world and shard recorders; the
  /// "latency." metrics source emits this.
  obs::LatencyBreakdown merged_latency() const;

  /// Causal profiler armed for this world (WorldConfig::profile or the run
  /// config's $MVFLOW_PROF snapshot).
  bool prof_enabled() const noexcept {
    return cfg_.profile || cfg_.run.prof_enabled();
  }
  /// This world's profiler (DESIGN.md §16), bound exactly like the
  /// recorder: on the constructing thread, the run() thread, and — in
  /// sharded worlds — per shard via the shard hooks (shard_profiler(s)
  /// collects that shard's records).
  obs::Profiler& profiler() noexcept { return prof_; }
  obs::Profiler& shard_profiler(std::size_t s) { return *shard_profilers_.at(s); }
  /// Union of the world and shard record buffers (a plain copy of
  /// profiler() in serial worlds). The analysis re-sorts canonically, so
  /// absorb order never shows in results.
  obs::Profiler merged_prof() const;
  /// analyze() over merged_prof() — the full causal attribution.
  obs::ProfileAnalysis prof_analysis() const;

 private:
  /// One progress sample per live connection (sender side), fed to the
  /// watchdog: backlog depth + a monotonic progress counter (credited
  /// sends + ECMs + transport retransmits).
  std::vector<sim::WatchdogSample> watchdog_samples() const;
  /// Serial engine driving: self-rescheduling poll event. Stops once the
  /// queue is otherwise empty so runs still drain (and the DeadlockError
  /// diagnosis stays intact).
  void watchdog_poll_serial(sim::Duration period);
  /// Diagnose a detected stall: wait-for summary, metrics dump, optional
  /// checkpoint capture, export flush — then throw sim::WatchdogError.
  [[noreturn]] void handle_stall(const sim::WatchdogStall& stall);

  WorldConfig cfg_;
  // Exactly one of these two is non-null for the world's lifetime,
  // according to cfg_.engine_threads.
  std::unique_ptr<sim::Engine> serial_;
  std::unique_ptr<sim::ShardedEngine> sharded_;
  // Declared before fabric_/devices_: sources capture pointers into those
  // objects, and member order guarantees the registry outlives none of them
  // while they can still be snapshotted.
  obs::MetricsRegistry metrics_;
  obs::FlightRecorder recorder_;
  /// Sharded worlds: recorder_[s] for shard s, bound by the shard hooks on
  /// whichever worker thread runs the shard's window (and its rank fiber).
  std::vector<std::unique_ptr<obs::FlightRecorder>> shard_recorders_;
  /// Per-shard saved previous binding for the enter/exit hooks (only the
  /// worker currently running shard s touches slot s).
  std::vector<obs::FlightRecorder*> shard_prev_bindings_;
  /// Recorder bound on the constructing thread before this world; restored
  /// by the destructor (worlds nest strictly on a given thread).
  obs::FlightRecorder* prev_recorder_ = nullptr;
  /// Causal profiler, mirroring the recorder's ownership/binding pattern:
  /// one world buffer plus one per shard, with per-shard saved previous
  /// bindings for the shard hooks. Never serialized into snapshots — the
  /// profile is an export artifact, not world state.
  obs::Profiler prof_;
  std::vector<std::unique_ptr<obs::Profiler>> shard_profilers_;
  std::vector<obs::Profiler*> shard_prev_profilers_;
  obs::Profiler* prev_profiler_ = nullptr;
  std::unique_ptr<ib::Fabric> fabric_;
  std::vector<std::unique_ptr<Device>> devices_;
  sim::Duration elapsed_{0};
  bool ran_ = false;
  bool abort_requested_ = false;
  bool exports_flushed_ = false;
  std::unique_ptr<sim::Watchdog> watchdog_;
  std::optional<WorkloadSpec> workload_;
};

}  // namespace mvflow::mpi
