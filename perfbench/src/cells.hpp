// The benchmark's workloads, each a list of independent cells. A cell builds
// its own world, runs it once, and reports what the host paid for it next to
// the simulated fingerprint the oracle checks.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "flowctl/flowctl.hpp"
#include "host.hpp"
#include "ib/fabric.hpp"
#include "sim/engine.hpp"

namespace perfbench {

/// Simulated outputs of one cell. `fixed` should hold for every --seed and
/// is compared with the committed oracle (perfbench/oracle.json);
/// `seeded` depends on the seed (the lossy ring's drop pattern) and must
/// only repeat within a run.
struct Fingerprint {
  using Fields = std::vector<std::pair<std::string, std::uint64_t>>;
  Fields fixed;
  Fields seeded;
  bool operator==(const Fingerprint&) const = default;
};

/// FNV-1a over delivered payload bytes, folded into a cell's fingerprint.
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline std::uint64_t fnv1a(std::span<const std::byte> bytes, std::uint64_t h) {
  for (std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct CellResult {
  std::string name;
  std::string group;  ///< NAS app name ("lu", "mg", "cg"), else empty
  bool ok = true;
  std::string error;

  // Host time, measured from outside the layer calls.
  double setup_s = 0;       ///< world / fabric construction and wiring
  double teardown_s = 0;    ///< world destruction
  double run_s = 0;         ///< wall time of the simulation after set-up
  double engine_cpu_s = 0;  ///< CPU of the thread that drives the engine
  double rank_cpu_s = 0;    ///< CPU of rank threads inside their bodies
  double connect_s = 0;     ///< ib::Fabric::connect calls (verbs cells)
  Usage usage;              ///< process getrusage delta over the run

  // Simulated work.
  std::uint64_t messages = 0;  ///< MPI messages, or verbs completions
  std::uint64_t events = 0;
  mvflow::sim::EnginePerfStats perf;
  mvflow::ib::FabricStats fabric;
  std::uint64_t payload_bytes = 0;  ///< user payload bytes sent
  std::uint64_t retransmits = 0;
  std::uint64_t rnr_naks = 0;
  mvflow::flowctl::Counters flow;

  Fingerprint fp;
};

using Cell = std::function<CellResult()>;

/// §6.2.2 window sweep on 2 ranks, prepost 10; `seed` orders the cells.
std::vector<Cell> pt2pt_window_cells(std::uint64_t seed);
/// LU, MG and CG on 8 ranks at prepost 1 under every scheme; `seed` feeds
/// NasParams::seed.
std::vector<Cell> nas_prepost1_cells(std::uint64_t seed);
/// 8-node RC ring at the verbs layer; `seed` feeds the lossy cell's
/// FaultConfig::seed.
std::vector<Cell> verbs_ring_cells(std::uint64_t seed);

/// A small fixed MPI cell (2 ranks, one window of 100 eager messages) for
/// the warm-up and the host-time accounting self-test.
CellResult run_small_mpi_cell();

}  // namespace perfbench
