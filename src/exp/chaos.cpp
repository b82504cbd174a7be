#include "exp/chaos.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "exp/runner.hpp"
#include "mpi/world.hpp"
#include "obs/audit.hpp"
#include "sim/watchdog.hpp"
#include "util/serial.hpp"

namespace mvflow::exp::chaos {

namespace {

/// The one workload every default cell runs: all-pairs congestion keeps
/// every connection under simultaneous credit pressure, which is where
/// conservation bugs hide.
mpi::WorkloadSpec default_workload() {
  mpi::WorkloadSpec w;
  w.name = "allpairs";
  w.params["bytes"] = 1024;
  w.params["rounds"] = 5;
  return w;
}

}  // namespace

std::string CellSpec::label() const {
  std::string s(flowctl::to_string(scheme));
  s += '/';
  s += profile.name;
  s += '/';
  s += std::string(sim::to_string(scheduler));
  s += "/s";
  s += std::to_string(seed);
  return s;
}

std::string CellResult::result_line() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "RESULT cell=%s events=%" PRIu64 " elapsed_ns=%" PRId64
                " metrics_crc=%08x metrics_n=%zu violation=%d kind=%s",
                label.c_str(), events, elapsed_ns, metrics_crc, metrics_n,
                violation ? 1 : 0, kind.empty() ? "none" : kind.c_str());
  return std::string(buf);
}

CellResult run_cell(const CellSpec& spec, bool record_faults) {
  mpi::WorldConfig cfg;
  cfg.run = RunConfig{};  // explicit: no env snapshot inside sweep cells
  cfg.run.audit = true;
  // Far above any legitimate quiet period (transport backoff caps at 5 ms,
  // flaps last tens of µs) yet well inside the 30 s deadlock ceiling, so
  // the watchdog diagnoses a genuine stall long before the blunt timeout.
  cfg.run.watchdog_horizon_us = 100000;
  cfg.num_ranks = spec.ranks;
  cfg.flow.scheme = spec.scheme;
  cfg.flow.prepost = 8;  // small pool: constant credit pressure
  cfg.scheduler = spec.scheduler;
  // Faults need the recovery protocol: a zero transport timeout disables
  // sequence NAKs and retransmits entirely (config.hpp), which would turn
  // every drop into a deadlock instead of a retransmit.
  cfg.fabric.transport_timeout = sim::microseconds(40);
  cfg.fabric.transport_retry_limit = spec.profile.transport_retry_limit;
  cfg.fabric.rnr_retry_limit = -1;
  cfg.fabric.fault.seed = spec.seed;
  cfg.fabric.fault.loss_prob = spec.profile.loss;
  cfg.fabric.fault.corrupt_prob = spec.profile.corrupt;
  cfg.fabric.fault.flaps = spec.profile.flaps;
  cfg.fabric.fault.scripted = spec.script;
  cfg.device.auto_reconnect = spec.profile.auto_reconnect;
  cfg.device.debug_skew_reconnect_credit = spec.debug_skew_reconnect_credit;

  mpi::World world(cfg);
  world.set_workload(spec.workload);
  if (record_faults) world.fabric().enable_fault_recording();

  CellResult res;
  res.label = spec.label();
  try {
    res.elapsed_ns = world.run_workload().count();
  } catch (const obs::AuditError& e) {
    res.violation = true;
    res.kind = "audit";
    res.what = e.what();
  } catch (const sim::WatchdogError& e) {
    res.violation = true;
    res.kind = "watchdog";
    res.what = e.what();
  } catch (const mpi::DeadlockError& e) {
    res.violation = true;
    res.kind = "deadlock";
    res.what = e.what();
  } catch (const std::exception& e) {
    res.violation = true;
    res.kind = "error";
    res.what = e.what();
  }
  const obs::Snapshot snap = world.metrics().snapshot();
  const std::string json = snap.to_json();
  res.metrics_crc = util::serial::crc32(json.data(), json.size());
  res.metrics_n = snap.values.size();
  res.events = static_cast<std::uint64_t>(snap.get("engine.executed", 0.0));
  if (record_faults) res.recorded = world.fabric().recorded_faults();
  return res;
}

std::vector<FaultProfile> default_profiles() {
  std::vector<FaultProfile> out;
  {
    FaultProfile p;
    p.name = "loss";
    p.loss = 0.05;
    out.push_back(std::move(p));
  }
  {
    FaultProfile p;
    p.name = "corrupt";
    p.corrupt = 0.05;
    out.push_back(std::move(p));
  }
  {
    FaultProfile p;
    p.name = "storm";
    p.loss = 0.03;
    p.corrupt = 0.03;
    out.push_back(std::move(p));
  }
  {
    FaultProfile p;
    p.name = "flap";
    // Two short outages mid-run: every packet toward/from the node
    // black-holes, the transport timer replays them after the link is back.
    p.flaps.push_back(
        {1, sim::TimePoint{sim::microseconds(8)}, sim::TimePoint{sim::microseconds(22)}});
    p.flaps.push_back(
        {2, sim::TimePoint{sim::microseconds(35)}, sim::TimePoint{sim::microseconds(55)}});
    out.push_back(std::move(p));
  }
  {
    FaultProfile p;
    p.name = "reconnect";
    p.loss = 0.05;
    p.transport_retry_limit = 2;  // drops escalate to QP errors
    p.auto_reconnect = true;
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<CellSpec> default_campaign(std::uint64_t base_seed) {
  const flowctl::Scheme schemes[] = {flowctl::Scheme::hardware,
                                     flowctl::Scheme::user_static,
                                     flowctl::Scheme::user_dynamic};
  const sim::SchedKind scheds[] = {sim::SchedKind::heap4,
                                   sim::SchedKind::calendar};
  std::vector<CellSpec> cells;
  std::uint64_t pos = 0;
  for (const flowctl::Scheme scheme : schemes) {
    for (const FaultProfile& profile : default_profiles()) {
      for (const sim::SchedKind sched : scheds) {
        CellSpec c;
        c.scheme = scheme;
        c.profile = profile;
        c.scheduler = sched;
        // Distinct per-cell streams, stable under grid reordering of the
        // runner (seed depends only on base_seed and grid position).
        c.seed = base_seed + 0x9e3779b97f4a7c15ULL * ++pos;
        c.workload = default_workload();
        cells.push_back(std::move(c));
      }
    }
  }
  return cells;
}

std::vector<CellResult> run_campaign(const std::vector<CellSpec>& cells,
                                     int jobs) {
  std::vector<std::function<CellResult()>> tasks;
  tasks.reserve(cells.size());
  for (const CellSpec& c : cells) {
    tasks.push_back([c] { return run_cell(c); });
  }
  return SweepRunner(jobs).run<CellResult>(tasks);
}

namespace {

/// Replay cell: same world, randomness off, `script` as the only faults.
/// Flaps stay (they are part of the deterministic plan, not the log).
CellSpec replay_spec(const CellSpec& base,
                     std::vector<ib::ScriptedFault> script) {
  CellSpec s = base;
  s.profile.loss = 0.0;
  s.profile.corrupt = 0.0;
  s.script = std::move(script);
  return s;
}

bool replays_failure(const CellSpec& base,
                     const std::vector<ib::ScriptedFault>& script,
                     MinimizeOutcome& out) {
  ++out.replays;
  const CellResult r = run_cell(replay_spec(base, script));
  if (r.violation) {
    out.kind = r.kind;
    out.what = r.what;
  }
  return r.violation;
}

bool same_filter(const ib::ScriptedFault& a, const ib::ScriptedFault& b) {
  return a.src_node == b.src_node && a.dst_node == b.dst_node &&
         a.kind == b.kind;
}

/// Script with entry `i` removed. The packet entry `i` faulted now passes
/// un-faulted, so it counts as one more survivor for every later entry on
/// the same (src, dst, kind) filter — their skip ordinals shift by one.
std::vector<ib::ScriptedFault> without_entry(
    const std::vector<ib::ScriptedFault>& script, std::size_t i) {
  std::vector<ib::ScriptedFault> out;
  out.reserve(script.size() - 1);
  for (std::size_t j = 0; j < script.size(); ++j) {
    if (j == i) continue;
    ib::ScriptedFault f = script[j];
    if (j > i && same_filter(f, script[i])) ++f.skip;
    out.push_back(f);
  }
  return out;
}

}  // namespace

MinimizeOutcome minimize_failure(
    const CellSpec& spec, const std::vector<ib::Fabric::RecordedFault>& log) {
  MinimizeOutcome out;
  std::vector<ib::ScriptedFault> full;
  full.reserve(log.size());
  for (const auto& rf : log) full.push_back(rf.fault);

  if (full.empty() || !replays_failure(spec, full, out)) {
    return out;  // reproduced stays false: failure not fault-driven
  }
  out.reproduced = true;

  // Shortest failing prefix. The final `hi` was always tested failing
  // (initialised from the full script), so no re-verification is needed.
  std::size_t lo = 1, hi = full.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    std::vector<ib::ScriptedFault> prefix(full.begin(),
                                          full.begin() + static_cast<long>(mid));
    if (replays_failure(spec, prefix, out)) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  std::vector<ib::ScriptedFault> script(full.begin(),
                                        full.begin() + static_cast<long>(hi));

  // Greedy backward removal to a fixpoint. The last entry is the trigger
  // by prefix minimality (dropping it yields the known-passing hi-1
  // prefix), so start one before it.
  bool shrunk = true;
  while (shrunk && script.size() > 1) {
    shrunk = false;
    for (std::size_t i = script.size() - 1; i-- > 0;) {
      const std::vector<ib::ScriptedFault> cand = without_entry(script, i);
      if (replays_failure(spec, cand, out)) {
        script = cand;
        shrunk = true;
      }
    }
  }

  // Refresh kind/what from the final reproducer (earlier probes may have
  // overwritten them with a passing candidate's empty outcome — probes
  // only write on violation, but make the pairing explicit).
  replays_failure(spec, script, out);
  out.script = std::move(script);
  return out;
}

}  // namespace mvflow::exp::chaos
