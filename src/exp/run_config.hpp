// Experiment-run configuration (DESIGN.md §12).
//
// Everything a single simulation reads from the environment (MVFLOW_METRICS,
// MVFLOW_TRACE, MVFLOW_TRACE_CSV, MVFLOW_PROF, MVFLOW_AUDIT,
// MVFLOW_WATCHDOG_US) is snapshotted here *once* and passed explicitly to
// each World. Two reasons:
//
//  1. Concurrency: getenv() racing against setenv() is undefined, and two
//     parallel worlds honouring $MVFLOW_METRICS would clobber one file.
//     With an explicit RunConfig the sweep runner hands every job a config
//     it controls (the parallel path hands out quiet() configs).
//  2. Reproducibility: a job's behaviour is a function of its config
//     struct, not of ambient process state that may drift mid-sweep.
//
// Checkpoints are not a run setting: `mvflow_ckpt --checkpoint` requests
// them, and mpi/checkpoint.hpp arms them from outside the world.
#pragma once

#include <cstdint>
#include <string>

namespace mvflow::exp {

struct RunConfig {
  /// Output paths for the end-of-run exports; empty = don't export.
  std::string metrics_path;    ///< was $MVFLOW_METRICS
  std::string trace_path;      ///< was $MVFLOW_TRACE
  std::string trace_csv_path;  ///< was $MVFLOW_TRACE_CSV

  /// Causal profile export ($MVFLOW_PROF, DESIGN.md §16): write the
  /// analyzed profile JSON here at world teardown. "-" writes to stdout.
  /// Empty = no profile.
  std::string prof_path;

  /// The flight recorder is armed when any of its views is exported: the
  /// trace, the credit CSV and the profile all read its one stream.
  bool recording() const noexcept {
    return !trace_path.empty() || !trace_csv_path.empty() ||
           !prof_path.empty();
  }

  /// Invariant auditor ($MVFLOW_AUDIT = 1): run the credit-conservation /
  /// buffer-accounting / delivery checks (obs/audit.hpp, DESIGN.md §15)
  /// inline after every delivered message. Off by default — the ledgers
  /// feeding the checks are always maintained, only the checks themselves
  /// cost.
  bool audit = false;

  /// Progress watchdog ($MVFLOW_WATCHDOG_US, sim-time horizon in
  /// microseconds; 0 = off): fire when a connection holds nonzero backlog
  /// but records no credited send / ECM / retransmit for a full horizon.
  /// A stall writes its wait-for line to stderr and flushes the exports
  /// above.
  std::int64_t watchdog_horizon_us = 0;

  bool watchdog_enabled() const noexcept { return watchdog_horizon_us > 0; }

  /// Read the MVFLOW_* variables right now (no caching). A value that does
  /// not parse in full (a horizon that is not all digits) is reported with
  /// one error line on stderr and treated as unset, and so is every set
  /// MVFLOW_* variable this function does not read (a typo, or a retired
  /// setting).
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
