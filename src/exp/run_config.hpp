// Experiment-run configuration (DESIGN.md §12).
//
// Everything a single simulation used to read from the environment at
// arbitrary points (MVFLOW_LOG, MVFLOW_METRICS, MVFLOW_TRACE,
// MVFLOW_TRACE_CSV, MVFLOW_TRACE_CAPACITY) is snapshotted here *once* and
// passed explicitly to each World. Two reasons:
//
//  1. Concurrency: getenv() racing against setenv() is undefined, and two
//     parallel worlds honouring $MVFLOW_METRICS would clobber one file.
//     With an explicit RunConfig the sweep runner hands every job a config
//     it controls (the parallel path hands out quiet() configs).
//  2. Reproducibility: a job's behaviour is a function of its config
//     struct, not of ambient process state that may drift mid-sweep.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace mvflow::exp {

struct RunConfig {
  /// Output paths for the end-of-run exports; empty = don't export.
  std::string metrics_path;    ///< was $MVFLOW_METRICS
  std::string trace_path;      ///< was $MVFLOW_TRACE
  std::string trace_csv_path;  ///< was $MVFLOW_TRACE_CSV

  /// Flight-recorder ring size when tracing is on (was
  /// $MVFLOW_TRACE_CAPACITY; 0 falls back to the recorder default).
  std::size_t trace_capacity = 0;

  /// Checkpoint request ($MVFLOW_CHECKPOINT = "path@ev1[,ev2,...]"): write
  /// a world snapshot (DESIGN.md §13) at each listed executed-event count.
  /// One event writes exactly `checkpoint_path`; several write
  /// `<path>.<k>` each. Only honoured by worlds running a *registered*
  /// workload (mpi/workload.hpp) — an ad-hoc closure body cannot be
  /// replayed, so a snapshot of it could never restore.
  std::string checkpoint_path;
  std::vector<std::uint64_t> checkpoint_events;

  bool checkpoint_enabled() const noexcept {
    return !checkpoint_path.empty() && !checkpoint_events.empty();
  }

  /// Parse a "path@ev1[,ev2,...]" request into the two fields above.
  /// Returns false (and clears both) when the syntax is malformed.
  bool parse_checkpoint(const std::string& request);

  /// Tracing is armed when any trace export is requested.
  bool trace_enabled() const noexcept {
    return !trace_path.empty() || !trace_csv_path.empty();
  }

  /// Causal profile export ($MVFLOW_PROF, DESIGN.md §16): record an
  /// unbounded stream (trace_capacity is ignored) and write its analyzed
  /// profile JSON here at world teardown. "-" writes to stdout. Empty =
  /// no profile.
  std::string prof_path;

  bool prof_enabled() const noexcept { return !prof_path.empty(); }

  /// Invariant auditor ($MVFLOW_AUDIT = 1): run the credit-conservation /
  /// buffer-accounting / delivery checks (obs/audit.hpp, DESIGN.md §15)
  /// inline after every delivered message. Off by default — the ledgers
  /// feeding the checks are always maintained, only the checks themselves
  /// cost.
  bool audit = false;

  /// Progress watchdog ($MVFLOW_WATCHDOG_US, sim-time horizon in
  /// microseconds; 0 = off): fire when a connection holds nonzero backlog
  /// but records no credited send / ECM / retransmit for a full horizon.
  std::int64_t watchdog_horizon_us = 0;

  /// Watchdog stall artifacts: metrics snapshot dump path and optional
  /// world-checkpoint capture path ($MVFLOW_WATCHDOG_DUMP /
  /// $MVFLOW_WATCHDOG_CKPT). Empty = don't write.
  std::string watchdog_dump_path;
  std::string watchdog_ckpt_path;

  bool watchdog_enabled() const noexcept { return watchdog_horizon_us > 0; }

  /// Read the MVFLOW_* variables right now (no caching). A value that does
  /// not parse in full (a count that is not all digits, a checkpoint
  /// request parse_checkpoint rejects) is reported with one error line on
  /// stderr and treated as unset.
  static RunConfig from_env();

  /// The one-time process snapshot: captured on first call and immutable
  /// afterwards, so every serial World sees the same configuration no
  /// matter when it starts. This is the default for WorldConfig::run.
  static const RunConfig& process();

  /// Copy of this config with every export path cleared. The sweep runner
  /// gives parallel jobs quiet configs: N concurrent worlds writing one
  /// $MVFLOW_METRICS path would race, and artifacts must not depend on
  /// which job finished last.
  RunConfig quiet() const;
};

}  // namespace mvflow::exp
