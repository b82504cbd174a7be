// World checkpoint/restart (DESIGN.md §13).
//
// This layer wraps a World from outside: it runs a registered workload
// (mpi/workload.hpp) on it and arms capture, audit and kill as engine
// watchpoints; World knows nothing of checkpoints or workloads.
//
// A snapshot records (a) how to rebuild the world — the WorldConfig
// settings and the registered WorkloadSpec, (b) where to stop — the executed-event
// barrier, and (c) the complete serialized state of every layer at that
// barrier (engine scheduler, fabric + fault injector, per-rank devices with
// flow control and QPs, metrics, flight recorder).
//
// Restore is *deterministic replay plus a byte-exact audit*: rank bodies
// run on fiber stacks, which no snapshot can serialize, so a restore
// rebuilds the world from the config, replays the registered workload to
// the barrier, and then byte-compares every captured section against the
// freshly serialized live state. A single differing byte — a scheduler
// drift, an RNG draw out of place, one counter off — aborts the restore
// with SnapshotError naming the diverging section. Continued execution
// after a passing audit is bit-identical to the uninterrupted run by the
// engine's determinism guarantee; the serialized state is the proof.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mpi/workload.hpp"
#include "mpi/world.hpp"
#include "obs/metrics.hpp"
#include "util/serial.hpp"

namespace mvflow::mpi::ckpt {

// Section tags ("MVFLOWCK" container, util/serial.hpp).
inline constexpr std::uint32_t kSecConfig = 0x31474643;    // "CFG1"
inline constexpr std::uint32_t kSecWorkload = 0x31444b57;  // "WKD1"
inline constexpr std::uint32_t kSecBarrier = 0x31525242;   // "BRR1"
inline constexpr std::uint32_t kSecEngine = 0x31474e45;    // "ENG1"
inline constexpr std::uint32_t kSecFabric = 0x31424146;    // "FAB1"
inline constexpr std::uint32_t kSecDevices = 0x31564544;   // "DEV1"
inline constexpr std::uint32_t kSecMetrics = 0x3154454d;   // "MET1"
inline constexpr std::uint32_t kSecTrace = 0x31435254;     // "TRC1"

/// Human-readable name for a section tag ("engine", "devices", ...).
std::string section_name(std::uint32_t tag);

struct WorldSnapshot {
  WorldConfig config;         ///< Rebuild recipe (RunConfig not included).
  bool trace_armed = false;   ///< Recorder enabled at capture time.
  WorkloadSpec workload;      ///< Replayed by name at restore.
  std::uint64_t barrier = 0;  ///< Executed-event count at capture.
  /// Serialized per-layer state at the barrier (kSecEngine..kSecTrace),
  /// byte-compared against the replayed world by the restore audit.
  std::vector<util::serial::Section> state;
};

/// Capture the complete state of `world`, which is running the registered
/// workload `spec`. Must run at an event boundary — inside an engine
/// watchpoint — so no callback is mid-dispatch.
WorldSnapshot capture(World& world, const WorkloadSpec& spec);

/// Serialize to / parse from the framed, CRC-checked snapshot container.
/// decode() throws util::serial::SnapshotError on any structural problem
/// (truncation, corruption, bad magic, unsupported version, missing
/// section) with a diagnostic naming what was wrong.
std::vector<std::byte> encode(const WorldSnapshot& snap);
WorldSnapshot decode(const std::vector<std::byte>& file);

/// File forms: crash-safe write (tmp + fsync + atomic rename) / checked read.
void write_snapshot(const WorldSnapshot& snap, const std::string& path);
WorldSnapshot read_snapshot(const std::string& path);

struct RestoreOptions {
  /// Write a snapshot of the run at each of these absolute executed-event
  /// counts: one count writes exactly `checkpoint_path`, several write
  /// "<path>.<k>" each. A count the run never reaches — past its end or
  /// `kill_at`, or at or below a restore's barrier — fails the run with
  /// std::runtime_error naming the request.
  std::string checkpoint_path;
  std::vector<std::uint64_t> checkpoint_events;

  /// Parse a "path@k[,k...]" request (mvflow_ckpt --checkpoint) into the
  /// two fields above; each k is an unsigned decimal count, whole. Returns
  /// false, and clears both, when the request is malformed.
  bool parse_checkpoint(const std::string& request);

  /// Simulated crash: abort the run at this executed-event count
  /// (0 = run to completion). Used by the churn harness.
  std::uint64_t kill_at = 0;
};

struct RunResult {
  sim::Duration elapsed{0};
  obs::Snapshot metrics;
  WorldStats stats;
  bool aborted = false;
};

/// Rebuild a world from `snap`, replay its workload to the barrier, audit
/// every state section byte-for-byte (SnapshotError on divergence), then
/// continue to completion under `opts`.
RunResult restore_run(const WorldSnapshot& snap,
                      const RestoreOptions& opts = {});

/// Run a registered workload from scratch — the uninterrupted reference,
/// or a seed run writing checkpoints / being killed via `opts`.
RunResult run_reference(const WorldConfig& cfg, const WorkloadSpec& spec,
                        const RestoreOptions& opts = {});

}  // namespace mvflow::mpi::ckpt
