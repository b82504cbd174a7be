// Invariant auditor + progress watchdog + chaos campaign (DESIGN.md §15).
//
// Four claims under test:
//   1. Arming the auditor changes *when* checks run, never what the
//      protocol computes: the fig2/fig3 golden hashes reproduce bit-for-bit
//      with MVFLOW_AUDIT on.
//   2. A deliberately corrupted credit counter is caught, and the
//      AuditError names the right connection and section.
//   3. A genuine silent stall (nonzero backlog, zero progress) trips the
//      watchdog with the stuck connection identified.
//   4. The chaos campaign is violation-free and byte-identical across
//      runner widths, its reconnect cells really reconnect, and the
//      minimizer shrinks a planted credit bug to a <= 10-event scripted
//      reproducer.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "bw_figure.hpp"
#include "exp/chaos.hpp"
#include "fig_latency.hpp"
#include "fnv1a.hpp"
#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "obs/audit.hpp"
#include "sim/watchdog.hpp"

using namespace mvflow;
using namespace mvflow::mpi;

namespace {

using mvflow::test::fnv1a;

// Same constants the golden-determinism test pins (recorded from the seed
// engine). The auditor must reproduce them exactly: its ledger counters are
// maintained unconditionally, and the armed checks are read-only.
constexpr std::uint64_t kFig2GoldenHash = 18261021981650279701ull;
constexpr std::uint64_t kFig3GoldenHash = 312572578602472281ull;

}  // namespace

// ---- 1. differential: audit-on is bit-identical to audit-off ----------

TEST(AuditDifferential, Fig2GoldenWithAuditorArmed) {
  EXPECT_EQ(fnv1a(bench::build_fig2_table(200, nullptr, 1, /*audit=*/true)
                      .to_string()),
            kFig2GoldenHash);
}

TEST(AuditDifferential, Fig3GoldenWithAuditorArmed) {
  EXPECT_EQ(fnv1a(bench::build_bw_table(4, 100, true, nullptr, 1,
                                        /*audit=*/true)
                      .to_string()),
            kFig3GoldenHash);
}

// ---- 2. negative: corrupted counters are caught and named --------------

namespace {

/// Clean pingpong world the corruption tests poke afterwards.
void run_clean_pingpong(World& world) {
  world.run([](Communicator& comm) {
    std::vector<std::byte> buf(256);
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, 1, i);
        comm.recv(buf, 1, i);
      } else {
        comm.recv(buf, 0, i);
        comm.send(buf, 0, i);
      }
    }
  });
}

}  // namespace

TEST(AuditNegative, PhantomCreditNamesConnectionAndSection) {
  WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = flowctl::Scheme::user_static;
  cfg.flow.prepost = 8;
  World world(cfg);
  run_clean_pingpong(world);
  ASSERT_NO_THROW(world.audit_sweep());

  // A phantom credit on rank 0's sender side toward rank 1: the class of
  // miscount (duplicated credit grant) the auditor exists for.
  world.device(0).debug_flow(1).debug_add_credits_unaccounted(1);
  try {
    world.audit_sweep();
    FAIL() << "corrupted credit count must not pass the sweep";
  } catch (const obs::AuditError& e) {
    EXPECT_EQ(e.section(), "credit-conservation");
    EXPECT_EQ(e.src(), 0);
    EXPECT_EQ(e.dst(), 1);
    EXPECT_NE(std::string(e.what()).find("conservation equation"),
              std::string::npos)
        << e.what();
  }
}

TEST(AuditNegative, ReverseDirectionNamesTheOtherEndpoint) {
  WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 8;
  World world(cfg);
  run_clean_pingpong(world);
  ASSERT_NO_THROW(world.audit_sweep());

  world.device(1).debug_flow(0).debug_add_credits_unaccounted(2);
  try {
    world.audit_sweep();
    FAIL() << "corrupted credit count must not pass the sweep";
  } catch (const obs::AuditError& e) {
    EXPECT_EQ(e.section(), "credit-conservation");
    EXPECT_EQ(e.src(), 1);
    EXPECT_EQ(e.dst(), 0);
  }
}

// ---- satellite: failed backlog returns its slots to the books ----------

// When retry exhaustion kills a connection with sends still backlogged
// (the optimistic-famine bug class), the failure path must account every
// queued send as `backlog_failed` — the books close, nothing hangs, and
// the post-mortem sweep still passes on the dead endpoint.
TEST(AuditNegative, FailedBacklogIsAccountedNotLeaked) {
  WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 4;
  cfg.fabric.transport_timeout = sim::microseconds(50);
  cfg.fabric.transport_retry_limit = 2;
  ib::LinkFlap flap;  // permanent outage
  flap.node = 1;
  flap.down = sim::TimePoint(sim::microseconds(0));
  flap.up = sim::TimePoint(sim::seconds(100));
  cfg.fabric.fault.flaps.push_back(flap);
  World world(cfg);

  // Both ranks send: rank 1 must push traffic of its own so its endpoint
  // detects the dead link too (a pure receiver would otherwise wait on a
  // wire that never errors locally).
  constexpr int kSends = 30;
  world.run([&](Communicator& comm) {
    const Rank other = 1 - comm.rank();
    std::vector<std::byte> payload(512);
    std::vector<std::byte> buf(512);
    std::vector<RequestPtr> reqs;
    const int sends = comm.rank() == 0 ? kSends : 1;
    for (int i = 0; i < sends; ++i)
      reqs.push_back(comm.isend(payload, other, i));
    reqs.push_back(comm.irecv(buf, other, 0));
    comm.wait_all(reqs);
    for (const auto& r : reqs) EXPECT_TRUE(r->complete());
    EXPECT_TRUE(reqs.back()->failed());
  });

  bool found = false;
  for (const auto& conn : world.collect_stats().connections) {
    if (conn.rank == 0 && conn.peer == 1) {
      found = true;
      EXPECT_GT(conn.flow.backlog_entered, 0u);
      EXPECT_GT(conn.flow.backlog_failed, 0u)
          << "cleared backlog must be booked as failed, not leaked";
    }
  }
  EXPECT_TRUE(found);
  EXPECT_GE(world.device(0).stats().endpoint_failures, 1u);
  // The books must close even on the dead connection.
  EXPECT_NO_THROW(world.audit_sweep());
}

// ---- 3. watchdog: silent stalls are diagnosed, not timed out -----------

namespace {

/// A world where rank 0's stream to rank 1 goes silently dead: the first
/// data packet is dropped with the transport timer off, so every later
/// message is discarded as a sequence gap and no credit ever returns.
/// Rank 2 keeps the engine busy (pure compute) so the event queue never
/// drains — without the watchdog this runs until the 30 s deadlock
/// ceiling; with it, the stall is diagnosed within the horizon.
WorldConfig stalled_world_config() {
  WorldConfig cfg;
  cfg.num_ranks = 3;
  cfg.flow.scheme = flowctl::Scheme::user_static;
  cfg.flow.prepost = 4;
  // transport_timeout stays 0: no retransmission, the drop is permanent.
  ib::ScriptedFault drop;
  drop.src_node = 0;
  drop.dst_node = 1;
  drop.kind = static_cast<int>(ib::PacketKind::data);
  cfg.fabric.fault.scripted.push_back(drop);
  cfg.run = exp::RunConfig{};
  cfg.run.watchdog_horizon_us = 500;
  return cfg;
}

std::vector<World::RankBody> stalled_bodies() {
  return {
      [](Communicator& comm) {
        std::vector<std::byte> payload(256);
        std::vector<RequestPtr> reqs;
        for (int i = 0; i < 12; ++i)
          reqs.push_back(comm.isend(payload, 1, i));
        comm.wait_all(reqs);
      },
      [](Communicator& comm) {
        std::vector<std::byte> buf(256);
        for (int i = 0; i < 12; ++i) comm.recv(buf, 0, i);
      },
      [](Communicator& comm) {
        // ~4 ms of standalone compute: far past the 500 us horizon.
        for (int i = 0; i < 4000; ++i) comm.compute(sim::microseconds(1));
      },
  };
}

}  // namespace

TEST(Watchdog, DiagnosesSilentStallSerial) {
  WorldConfig cfg = stalled_world_config();
  const std::string dump = ::testing::TempDir() + "/watchdog_serial.json";
  std::remove(dump.c_str());
  cfg.run.watchdog_dump_path = dump;
  World world(cfg);
  try {
    world.run(stalled_bodies());
    FAIL() << "stalled run must trip the watchdog";
  } catch (const sim::WatchdogError& e) {
    EXPECT_EQ(e.src(), 0);
    EXPECT_EQ(e.dst(), 1);
    EXPECT_NE(std::string(e.what()).find("backlog"), std::string::npos)
        << e.what();
  }
  std::FILE* f = std::fopen(dump.c_str(), "r");
  EXPECT_NE(f, nullptr) << "stall must dump the metrics registry";
  if (f) std::fclose(f);
}

// ---- 4. chaos campaign + minimization ----------------------------------

TEST(ChaosCampaign, SmallGridZeroViolationsAndRunnerIdentity) {
  // A trimmed grid (loss + corrupt profiles, two schemes) — the full
  // sweep is the bench binary's job.
  std::vector<exp::chaos::CellSpec> cells;
  const auto profiles = exp::chaos::default_profiles();
  for (const auto scheme :
       {flowctl::Scheme::user_static, flowctl::Scheme::user_dynamic}) {
    for (std::size_t p = 0; p < 2; ++p) {  // loss, corrupt
      exp::chaos::CellSpec c;
      c.scheme = scheme;
      c.profile = profiles[p];
      c.seed = 40 + p;
      c.workload.name = "allpairs";
      c.workload.params["bytes"] = 512;
      c.workload.params["rounds"] = 2;
      cells.push_back(std::move(c));
    }
  }
  const auto j1 = exp::chaos::run_campaign(cells, 1);
  const auto j4 = exp::chaos::run_campaign(cells, 4);
  ASSERT_EQ(j1.size(), cells.size());
  for (std::size_t i = 0; i < j1.size(); ++i) {
    EXPECT_FALSE(j1[i].violation) << j1[i].label << ": " << j1[i].what;
    EXPECT_EQ(j1[i].result_line(), j4[i].result_line())
        << "runner width changed a cell result";
  }
}

TEST(ChaosCampaign, DefaultReconnectCellsReconnect) {
  // The reconnect profile's outage outlasts the transport retry budget, so
  // every reconnect cell of the default grid must rebuild a connection
  // under the armed auditor and watchdog without a violation.
  std::vector<exp::chaos::CellSpec> cells;
  for (const exp::chaos::CellSpec& c : exp::chaos::default_campaign(1)) {
    if (c.profile.name == "reconnect") cells.push_back(c);
  }
  ASSERT_EQ(cells.size(), 3u);
  for (const exp::chaos::CellResult& r : exp::chaos::run_campaign(cells, 1)) {
    EXPECT_FALSE(r.violation) << r.label << ": " << r.what;
    EXPECT_GT(r.reconnects, 0u) << r.label;
  }
}

TEST(ChaosCampaign, PlantedCreditBugIsCaughtAndMinimized) {
  exp::chaos::CellSpec spec;
  spec.scheme = flowctl::Scheme::user_static;
  spec.profile.name = "inject-bug";
  spec.profile.loss = 0.35;
  spec.profile.transport_retry_limit = 1;
  spec.profile.auto_reconnect = true;
  spec.seed = 3;
  spec.ranks = 2;
  spec.workload.name = "pingpong";
  spec.workload.params["bytes"] = 2048;
  spec.workload.params["iters"] = 40;
  spec.debug_skew_reconnect_credit = 1;

  const exp::chaos::CellResult r = exp::chaos::run_cell(spec, true);
  ASSERT_TRUE(r.violation) << "planted reconnect skew must trip the auditor";
  EXPECT_EQ(r.kind, "audit") << r.what;
  ASSERT_FALSE(r.recorded.empty());

  const exp::chaos::MinimizeOutcome m =
      exp::chaos::minimize_failure(spec, r.recorded);
  ASSERT_TRUE(m.reproduced)
      << "recorded fault script must reproduce with randomness off";
  EXPECT_EQ(m.kind, "audit") << m.what;
  EXPECT_LE(m.script.size(), 10u)
      << "minimizer must shrink the reproducer to a handful of events";
  EXPECT_LT(m.script.size(), r.recorded.size());
}
