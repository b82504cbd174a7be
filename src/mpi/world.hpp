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

  /// Upper bound on simulated time; exceeding it is reported as a deadlock
  /// (protects against infinite hardware retry loops in the modeled system).
  sim::Duration max_sim_time = sim::seconds(30);

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

  /// World totals: the fold of `connections`, made as collect_stats()
  /// builds each report (counts sum, max_posted is a max; DESIGN.md §17).
  /// The accessors below read these.
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

  /// Crash the simulation at the next event boundary: run() kills every
  /// rank process still blocked mid-call and returns the elapsed time so
  /// far (no deadlock diagnosis, no exports). This is the churn harness's
  /// "kill -9 mid-flight" — the snapshot written *before* the abort is the
  /// state a restart resumes from.
  void abort_run() {
    abort_requested_ = true;
    engine_.stop();
  }
  bool aborted() const noexcept { return abort_requested_; }

  const WorldConfig& config() const noexcept { return cfg_; }
  int num_ranks() const noexcept { return cfg_.num_ranks; }

  /// The one engine every rank, device and HCA of this world runs on
  /// (DESIGN.md §14). The checkpoint layer arms its capture, audit and kill
  /// hooks as watchpoints on it.
  sim::Engine& engine() noexcept { return engine_; }
  std::uint64_t executed_events() const noexcept {
    return engine_.executed_events();
  }

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
  /// Auditor armed for this world (run config's MVFLOW_AUDIT snapshot):
  /// every delivered message audits its pair inline (Device caches this at
  /// construction).
  bool audit_enabled() const noexcept { return cfg_.run.audit; }
  /// Check every invariant on the (a, b) connection pair, both directions:
  /// credit conservation, backlog books, delivery window, and buffer
  /// accounting. Throws obs::AuditError naming the direction and section.
  void audit_pair(Rank a, Rank b);
  /// audit_pair over every wired pair — the end-of-run final check; public
  /// so tests can force a sweep.
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

  /// This world's flight recorder (DESIGN.md §11): its fabric's, which
  /// every QP and device reaches through its HCA. Armed at construction
  /// when the run config requests a trace ($MVFLOW_TRACE*: a ring) or a
  /// profile ($MVFLOW_PROF: unbounded); tests and benchmarks that read the
  /// profile in process call enable(FlightRecorder::kUnbounded) before
  /// run().
  obs::FlightRecorder& recorder() noexcept { return fabric_->recorder(); }
  /// analyze() over the recorder's stream — the full causal attribution
  /// (DESIGN.md §16); empty unless the stream is unbounded.
  obs::ProfileAnalysis prof_analysis() const;
  /// collect_stats()'s flow-control and QP totals: the books
  /// obs::audit_against cross-foots the profile against.
  obs::CounterBooks counter_books() const;

 private:
  /// One progress sample per live connection (sender side), fed to the
  /// watchdog: backlog depth + a monotonic progress counter (credited
  /// sends + ECMs + transport retransmits).
  std::vector<sim::WatchdogSample> watchdog_samples() const;
  /// Self-rescheduling poll event. Stops once the queue is otherwise empty
  /// so runs still drain (and the DeadlockError diagnosis stays intact).
  void watchdog_poll(sim::Duration period);
  /// Diagnose a detected stall: wait-for summary, metrics dump, optional
  /// checkpoint capture, export flush — then throw sim::WatchdogError.
  [[noreturn]] void handle_stall(const sim::WatchdogStall& stall);

  WorldConfig cfg_;
  // Declared before fabric_/devices_, which hold references to it.
  sim::Engine engine_;
  // Declared before fabric_/devices_: sources capture pointers into those
  // objects, and member order guarantees the registry outlives none of them
  // while they can still be snapshotted.
  obs::MetricsRegistry metrics_;
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
