// Connection-count scaling coverage (DESIGN.md §17): the flat lazy
// connection table must keep idle connections at literally zero progress
// cost, the dense QP slot table must survive reconnect churn without
// fragmenting, the incremental world aggregates must agree with a full
// per-connection re-sum, and the on-demand × checkpoint/restore ×
// auto-reconnect combination must stay bit-exact at N >= 256 ranks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exp/run_config.hpp"
#include "ib/fabric.hpp"
#include "mpi/checkpoint.hpp"
#include "mpi/communicator.hpp"
#include "mpi/workload.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace {

using namespace mvflow;
namespace ckpt = mpi::ckpt;

mpi::WorldConfig big_world(int ranks) {
  mpi::WorldConfig cfg;
  cfg.run = exp::RunConfig{};  // tests never honour ambient env exports
  cfg.num_ranks = ranks;
  cfg.on_demand_connections = true;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 8;
  return cfg;
}

mpi::WorkloadSpec hotspot_spec(int actives, int rounds) {
  mpi::WorkloadSpec spec;
  spec.name = "hotspot";
  spec.params["actives"] = actives;
  spec.params["rounds"] = rounds;
  spec.params["bytes"] = 128;
  return spec;
}

}  // namespace

// ---- lazy connection table -------------------------------------------

// 256 configured ranks, 6 of them talking to a hub: only the 6 hub-side
// and 6 spoke-side connections may exist. Idle ranks never create an
// endpoint, so their per-poll progress cost is structurally zero — there
// is no connection to walk (the bench measures the same property as a
// wall-clock invariance; this is the exact structural form).
TEST(ConnScaling, HotspotAt256RanksOnlyActiveConnectionsExist) {
  constexpr int kRanks = 256;
  constexpr int kActives = 6;
  mpi::WorldConfig cfg = big_world(kRanks);
  cfg.run.audit = true;  // arms the aggregate cross-check in collect_stats
  mpi::World world(cfg);
  world.run(mpi::make_workload(hotspot_spec(kActives, /*rounds=*/12)));

  EXPECT_EQ(world.device(0).endpoint_count(), static_cast<std::size_t>(kActives));
  for (int r = 1; r <= kActives; ++r) {
    EXPECT_EQ(world.device(r).endpoint_count(), 1u) << "spoke " << r;
    EXPECT_TRUE(world.device(r).has_endpoint(0));
  }
  for (int r = kActives + 1; r < kRanks; ++r) {
    ASSERT_EQ(world.device(r).endpoint_count(), 0u) << "idle rank " << r;
  }

  const mpi::WorldStats stats = world.collect_stats();
  EXPECT_EQ(stats.connections.size(), static_cast<std::size_t>(2 * kActives));
  // 12 rounds x 6 spokes x 2 credited messages, plus control traffic.
  EXPECT_GE(stats.total_messages(), 12u * kActives * 2u);
}

// The cached world totals must be exactly the per-connection re-sum (the
// same identity MVFLOW_AUDIT checks inside collect_stats, restated here
// from the public report so the accessors themselves are covered).
TEST(ConnScaling, CachedTotalsMatchPerConnectionResum) {
  mpi::WorldConfig cfg;
  cfg.run = exp::RunConfig{};
  cfg.num_ranks = 8;
  cfg.flow.scheme = flowctl::Scheme::user_dynamic;
  cfg.flow.prepost = 4;  // small pool => backlog + ECM + growth traffic
  mpi::World world(cfg);
  mpi::WorkloadSpec spec;
  spec.name = "allpairs";
  spec.params["rounds"] = 12;
  spec.params["bytes"] = 512;
  world.run(mpi::make_workload(spec));

  const mpi::WorldStats stats = world.collect_stats();
  std::uint64_t ecm = 0, msgs = 0, backlog = 0, rnr = 0, retx = 0;
  int max_posted = 0;
  for (const mpi::ConnectionReport& c : stats.connections) {
    ecm += c.flow.ecm_sent;
    msgs += c.flow.total_messages();
    backlog += c.flow.backlog_entered;
    rnr += c.qp.rnr_naks_received;
    retx += c.qp.retransmitted_messages;
    max_posted = std::max(max_posted, c.flow.max_posted);
  }
  EXPECT_EQ(stats.total_ecm(), ecm);
  EXPECT_EQ(stats.total_messages(), msgs);
  EXPECT_EQ(stats.total_backlogged(), backlog);
  EXPECT_EQ(stats.total_rnr_naks(), rnr);
  EXPECT_EQ(stats.total_retransmitted_messages(), retx);
  EXPECT_EQ(stats.max_posted_buffers(), max_posted);
  EXPECT_GT(msgs, 0u);
}

// ---- dense QP slots under churn --------------------------------------

// Reconnect churn destroys and recreates QPs; the HCA's slot table must
// stay dense (freelist reuse, no growth past the peak live count) and the
// QPN index must resolve every survivor. The density invariant itself is
// a util::require inside create_qp/destroy_qp — this test drives enough
// churn to catch a fragmenting regression, then checks resolution.
TEST(ConnScaling, QpSlotsStayDenseAfterChurn) {
  sim::Engine eng;
  ib::Fabric fabric(eng, ib::FabricConfig{}, /*nodes=*/2);
  ib::Hca& hca = fabric.hca(0);
  auto cq = hca.create_cq();

  std::vector<ib::QpNumber> live;
  for (int i = 0; i < 8; ++i) live.push_back(hca.create_qp(cq, cq)->qpn());
  // Destroy from the middle, the front, and the back, then refill.
  for (const int victim : {4, 0, 5}) {
    hca.destroy_qp(live[static_cast<std::size_t>(victim)]);
    live.erase(live.begin() + victim);
  }
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 3; ++i) live.push_back(hca.create_qp(cq, cq)->qpn());
    for (int i = 0; i < 3; ++i) {
      hca.destroy_qp(live[static_cast<std::size_t>(round % 2)]);
      live.erase(live.begin() + (round % 2));
    }
  }
  for (const ib::QpNumber qpn : live) {
    ib::QueuePair* qp = hca.find_qp(qpn);
    ASSERT_NE(qp, nullptr);
    EXPECT_EQ(qp->qpn(), qpn);
  }
  // A destroyed QPN must resolve to nothing, not to a slot reuser.
  const ib::QpNumber gone = live.back();
  hca.destroy_qp(gone);
  EXPECT_EQ(hca.find_qp(gone), nullptr);
}

// ---- on-demand x checkpoint/restore x auto-reconnect at N >= 256 ------

// The full combination at scale, serial path: a 256-rank on-demand world
// under packet loss with auto-reconnect, snapshotted mid-run, killed, and
// resumed. The resumed run must match the uninterrupted faulted run
// bit-for-bit (metrics registry JSON equality), proving the lazy table,
// the QPN index rebind on reconnect, and the incremental aggregates all
// survive capture/replay at a connection count the eager path never sees.
TEST(ConnScaling, OnDemandCheckpointReconnectAt256Ranks) {
  constexpr int kRanks = 256;
  mpi::WorldConfig cfg = big_world(kRanks);
  cfg.fabric.transport_timeout = sim::microseconds(30);
  cfg.fabric.transport_retry_limit = 2;
  cfg.fabric.fault.loss_prob = 0.005;  // background retransmit pressure
  cfg.fabric.fault.seed = 0xc0ffee42;
  // Deterministic reconnect trigger: spoke 1 goes dark long enough to
  // exhaust the transport retries, so auto-reconnect must rebuild the pair.
  ib::LinkFlap flap;
  flap.node = 1;
  flap.down = sim::TimePoint(sim::microseconds(60));
  flap.up = sim::TimePoint(sim::milliseconds(2));
  cfg.fabric.fault.flaps.push_back(flap);
  cfg.device.auto_reconnect = true;

  const mpi::WorkloadSpec spec = hotspot_spec(/*actives=*/6, /*rounds=*/40);

  const ckpt::RunResult ref = ckpt::run_reference(cfg, spec);
  const std::uint64_t total =
      static_cast<std::uint64_t>(ref.metrics.get("engine.executed", 0.0));
  ASSERT_GT(total, 1000u);
  EXPECT_GT(ref.stats.fabric.lost_packets, 0u);
  std::uint64_t reconnects = 0;
  for (const mpi::DeviceStats& d : ref.stats.devices) reconnects += d.reconnects;
  EXPECT_GT(reconnects, 0u) << "fault params too mild to force a QP error";

  ckpt::RestoreOptions crash;
  crash.checkpoint_path = ::testing::TempDir() + "mvflow_conn_scaling_256.ck";
  crash.checkpoint_events = {total / 3};
  crash.kill_at = (2 * total) / 3;
  const ckpt::RunResult crashed = ckpt::run_reference(cfg, spec, crash);
  EXPECT_TRUE(crashed.aborted);

  const ckpt::RunResult resumed =
      ckpt::restore_run(ckpt::read_snapshot(crash.checkpoint_path));
  EXPECT_FALSE(resumed.aborted);
  EXPECT_EQ(ref.elapsed.count(), resumed.elapsed.count());
  EXPECT_EQ(ref.metrics.to_json(), resumed.metrics.to_json());
}
