// Built-in, re-creatable rank bodies (DESIGN.md §13).
//
// A checkpoint cannot serialize a rank body: bodies are closures running on
// fiber stacks. Resumable runs therefore describe their workload as a
// *name plus integer parameters*; a restore looks the name up in the
// table of built-ins and replays the exact same body. Every workload here
// must be fully deterministic as a function of (WorldConfig, WorkloadSpec)
// — no wall clock, no process-global RNG.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace mvflow::mpi {

class Communicator;

/// Serializable workload identity: built-in name + integer parameters.
struct WorkloadSpec {
  std::string name;
  std::map<std::string, std::int64_t> params;  // ordered => deterministic

  std::int64_t param(const std::string& key, std::int64_t fallback) const {
    const auto it = params.find(key);
    return it == params.end() ? fallback : it->second;
  }
  /// "name(k1=v1,k2=v2)" — stable labels for logs and sweep output.
  std::string to_string() const;
};

using RankBodyFn = std::function<void(Communicator&)>;

/// Instantiate one of the built-in workloads below. Throws
/// util::serial::SnapshotError (naming the workload and listing the
/// built-ins) when `spec.name` is unknown — an unknown name in a snapshot
/// is a restore failure.
RankBodyFn make_workload(const WorkloadSpec& spec);

// The built-in workloads, a fixed table:
//   pingpong  — ranks 0/1 exchange `bytes`-sized messages `iters` times.
//   bw        — rank 0 streams `reps` windows of `window` sends of `bytes`
//               to rank 1 (blocking=1 waits each send; the paper's fig3-8
//               pattern); rank 1 sinks them.
//   allpairs  — every rank sends `bytes` to every other rank, `rounds`
//               times (uniform congestion; credit pressure on all pairs).
//   soak      — long-horizon churn body: `rounds` of pairwise exchanges
//               with per-round barriers, message size cycling over
//               {`bytes`, 4*`bytes`, 16*`bytes`}; designed to keep traffic
//               in flight continuously so mid-run kills land mid-message.
//   hotspot   — hub-and-spokes over a constant active set: rank 0
//               exchanges `bytes` with ranks 1..`actives` for `rounds`
//               rounds; all other ranks stay idle. With on-demand wiring
//               the idle ranks never connect — the O(active)-progress
//               probe for 1024-rank worlds (DESIGN.md §17).

}  // namespace mvflow::mpi
