// Causal critical-path profile tests (DESIGN.md §16): exactness of the
// six-way latency split, the offline replay of the recorder's instants
// (zero-credit episodes, ECM round trips, backlog residency, QP lifecycles
// joined by wr_id), the latency.* view of the same stream, the cross-foot
// against the flow-control and QP counters, the arming rule (a trace alone
// arms the same stream a profile does), the profiles pinned from the online bookkeeping this replay replaced, and
// the export surfaces (profile JSON, flow arrows, "prof." metrics).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "exp/run_config.hpp"
#include "mpi/communicator.hpp"
#include "mpi/protocol.hpp"
#include "mpi/workload.hpp"
#include "mpi/world.hpp"
#include "nas/kernel.hpp"
#include "obs/prof.hpp"
#include "obs/recorder.hpp"
#include "fnv1a.hpp"

using namespace mvflow;
using mvflow::test::fnv1a;

namespace {

constexpr std::size_t kMsgBytes = 4;
constexpr int kFloodCount = 40;

mpi::WorldConfig prof_config(int ranks, int prepost) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = ranks;
  cfg.flow.scheme = flowctl::Scheme::user_static;
  cfg.flow.prepost = prepost;
  cfg.run = exp::RunConfig{};  // tests must ignore ambient MVFLOW_* exports
  return cfg;
}

/// Credit-starved one-way flood: with a tiny prepost every send after the
/// first few waits on an ECM round-trip, so all six segment kinds except
/// retransmit show up in the profile.
void starved_flood(mpi::Communicator& comm) {
  std::vector<std::byte> buf(kMsgBytes);
  if (comm.rank() == 0) {
    for (int i = 0; i < kFloodCount; ++i) {
      comm.send(std::span<const std::byte>(buf.data(), kMsgBytes), 1, 0);
    }
  } else if (comm.rank() == 1) {
    for (int i = 0; i < kFloodCount; ++i) {
      comm.recv(std::span<std::byte>(buf.data(), kMsgBytes), 0, 0);
    }
  }
}

std::unique_ptr<mpi::World> starved_world() {
  auto world = std::make_unique<mpi::World>(prof_config(2, 2));
  world->recorder().enable();
  world->run(starved_flood);
  return world;
}

obs::ProfileAnalysis starved_analysis() {
  return starved_world()->prof_analysis();
}

/// Every `latency.*` value of a metrics snapshot, by name.
std::map<std::string, double> latency_values(const obs::Snapshot& snap) {
  std::map<std::string, double> out;
  for (const auto& [name, v] : snap.values) {
    if (name.rfind("latency.", 0) == 0) out[name] = v;
  }
  return out;
}

bool audit_stream(mpi::World& world, std::span<const obs::TraceEvent> events) {
  return obs::audit_against(obs::analyze(events), obs::latency_view(events),
                            world.counter_books());
}

/// `events` without its first instant of `kind` that satisfies `pick`.
template <typename Pick>
std::vector<obs::TraceEvent> drop_first(std::span<const obs::TraceEvent> events,
                                        obs::Ev kind, Pick pick) {
  std::vector<obs::TraceEvent> out(events.begin(), events.end());
  const auto it = std::find_if(out.begin(), out.end(),
                               [&](const obs::TraceEvent& e) {
                                 return e.kind == kind && pick(e);
                               });
  if (it != out.end()) out.erase(it);
  return out;
}

}  // namespace

// ------------------------------------------------------------ attribution --

TEST(ProfAttribution, SegmentsSumExactlyToE2e) {
  const std::unique_ptr<mpi::World> world = starved_world();
  const obs::ProfileAnalysis a = world->prof_analysis();
  EXPECT_TRUE(a.exact);
  ASSERT_GT(a.messages.size(), 0u);
  for (const obs::MessageProfile& m : a.messages) {
    EXPECT_EQ(m.attributed(), m.e2e())
        << "message r" << m.src << "->r" << m.dst << " seq " << m.seq;
  }
  // Σ over the run telescopes the same way.
  EXPECT_EQ(a.payload.attributed(), a.payload.e2e_ns);
  EXPECT_EQ(a.control.attributed(), a.control.e2e_ns);
  // A prepost=2 flood is credit famine by construction: the profile must
  // show credit-stall / ECM round-trip time, not just wire time.
  EXPECT_GT(a.payload.seg[static_cast<int>(obs::Segment::credit_stall)] +
                a.payload.seg[static_cast<int>(obs::Segment::ecm_rtt)],
            0);
  // The analysis cross-foots against the counters the stream does not feed.
  EXPECT_TRUE(audit_stream(*world, world->recorder().stream()));
}

TEST(ProfAttribution, CriticalPathAndConnectionsPopulated) {
  obs::ProfileAnalysis a = starved_analysis();
  ASSERT_FALSE(a.critical_path.empty());
  for (const obs::CriticalStep& s : a.critical_path) {
    EXPECT_GE(s.ns, 0);
    EXPECT_NE(s.seq, obs::kProfNoSeq);
  }
  // Per-connection blame partitions the payload total exactly, and the
  // flood direction (r0 -> r1) must dominate it. (The teardown handshake
  // contributes a couple of messages on other directions.)
  std::int64_t blamed = 0;
  std::int64_t forward = 0;
  for (const obs::ConnectionBlame& c : a.connections) {
    blamed += c.totals.e2e_ns;
    if (c.src == 0 && c.dst == 1) forward = c.totals.e2e_ns;
  }
  EXPECT_EQ(blamed, a.payload.e2e_ns);
  EXPECT_GT(forward, a.payload.e2e_ns / 2);
}

TEST(ProfAttribution, DisarmedProfilerRecordsNothing) {
  mpi::World world(prof_config(2, 2));
  world.run(starved_flood);
  EXPECT_FALSE(world.recorder().enabled());
  EXPECT_EQ(world.recorder().size(), 0u);
  EXPECT_TRUE(world.recorder().stream().empty());
  EXPECT_TRUE(world.prof_analysis().messages.empty());
}

// ---------------------------------------------- profiles pinned at parent --

// Standard 64-bit FNV-1a of profile_to_json(analysis, "run"). The
// documents were first recorded from the online per-message bookkeeping
// the offline replay replaced (device zero-credit ledger, QP lifecycle
// stamps, receive records); the replay must reproduce them byte for byte.
constexpr std::uint64_t kStarvedFloodProfileHash = 0xd88f7a0b734ad9dbull;
constexpr std::uint64_t kReconnectAllPairsProfileHash = 0x95ea41a11caed076ull;

TEST(ProfGolden, StarvedFloodMatchesPinnedProfile) {
  const obs::ProfileAnalysis a = starved_analysis();
  EXPECT_TRUE(a.exact);
  EXPECT_EQ(a.incomplete, 0u);
  const std::string doc = obs::profile_to_json(a, "run");
  EXPECT_EQ(fnv1a(doc), kStarvedFloodProfileHash) << doc;
}

TEST(ProfGolden, ReconnectAllPairsMatchesPinnedProfile) {
  // The chaos campaign's reconnect profile (5% loss, two transport retries,
  // auto_reconnect) on a 3-rank all-pairs world at static prepost 2; this
  // seed loses a QP mid-run, so the replay meets a replayed wr_id.
  mpi::WorldConfig cfg = prof_config(3, 2);
  cfg.run.audit = true;
  cfg.run.watchdog_horizon_us = 100000;
  cfg.fabric.transport_timeout = sim::microseconds(40);
  cfg.fabric.transport_retry_limit = 2;
  cfg.fabric.fault.seed = 22;
  cfg.fabric.fault.loss_prob = 0.05;
  cfg.device.auto_reconnect = true;
  mpi::World world(cfg);
  mpi::WorkloadSpec w;
  w.name = "allpairs";
  w.params["bytes"] = 1024;
  w.params["rounds"] = 20;
  world.recorder().enable();
  world.run(mpi::make_workload(w));

  std::uint64_t reconnects = 0;
  std::uint64_t replayed = 0;
  for (const mpi::DeviceStats& d : world.collect_stats().devices) {
    reconnects += d.reconnects;
    replayed += d.replayed_wire_msgs;
  }
  ASSERT_GT(reconnects, 0u) << "the pinned world must reconnect";
  ASSERT_GT(replayed, 0u) << "and replay a wire message";

  const obs::ProfileAnalysis a = world.prof_analysis();
  EXPECT_TRUE(a.exact);
  EXPECT_EQ(a.incomplete, 0u);
  const std::string doc = obs::profile_to_json(a, "run");
  EXPECT_EQ(fnv1a(doc), kReconnectAllPairsProfileHash) << doc;
}

// --------------------------------------------------------------- arming --

TEST(ProfArming, ProfileAndLatencyIgnoreTheTrace) {
  // Every export reads the recorder's one stream, so arming a trace beside
  // a profile changes neither.
  mpi::WorldConfig alone = prof_config(2, 2);
  alone.run.prof_path = "prof_test_arming_alone.json";
  mpi::WorldConfig traced = prof_config(2, 2);
  traced.run.prof_path = "prof_test_arming_traced.json";
  traced.run.trace_path = "prof_test_arming_traced.trace.json";

  mpi::World a(alone);
  a.run(starved_flood);
  mpi::World b(traced);
  b.run(starved_flood);
  EXPECT_EQ(a.recorder().size(), b.recorder().size());

  const obs::ProfileAnalysis pa = a.prof_analysis();
  ASSERT_GT(pa.messages.size(), 0u);
  EXPECT_EQ(obs::profile_to_json(pa, "run"),
            obs::profile_to_json(b.prof_analysis(), "run"));
  const auto la = latency_values(a.metrics().snapshot());
  EXPECT_EQ(la.size(), 21u);
  EXPECT_GT(la.at("latency.backlog_residency.count"), 0.0);
  EXPECT_EQ(la, latency_values(b.metrics().snapshot()));
  for (const char* path :
       {"prof_test_arming_alone.json", "prof_test_arming_traced.json",
        "prof_test_arming_traced.trace.json"}) {
    std::remove(path);
  }
}

TEST(ProfArming, TraceAloneArmsTheWholeStream) {
  // A trace export alone records the stream a profile reads: the same
  // profile document, the same 21 latency.* values, and flow arrows in
  // the trace.
  mpi::WorldConfig profiled = prof_config(2, 2);
  profiled.run.prof_path = "prof_test_arming_profiled.json";
  mpi::WorldConfig traced = prof_config(2, 2);
  traced.run.trace_path = "prof_test_arming_trace_only.trace.json";

  mpi::World p(profiled);
  p.run(starved_flood);
  mpi::World t(traced);
  t.run(starved_flood);
  ASSERT_TRUE(t.recorder().enabled());

  const obs::ProfileAnalysis pa = p.prof_analysis();
  ASSERT_GT(pa.messages.size(), 0u);
  EXPECT_EQ(obs::profile_to_json(t.prof_analysis(), "run"),
            obs::profile_to_json(pa, "run"));
  const auto lp = latency_values(p.metrics().snapshot());
  EXPECT_EQ(lp.size(), 21u);
  EXPECT_GT(lp.at("latency.wire_to_ack.count"), 0.0);
  EXPECT_EQ(latency_values(t.metrics().snapshot()), lp);

  std::ifstream in("prof_test_arming_trace_only.trace.json");
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"ph\": \"s\""), std::string::npos);
  EXPECT_NE(ss.str().find("\"ph\": \"f\""), std::string::npos);
  for (const char* path : {"prof_test_arming_profiled.json",
                           "prof_test_arming_trace_only.trace.json"}) {
    std::remove(path);
  }
}

// ----------------------------------------------- replay on hand-built data --

namespace {

constexpr std::uint8_t kEager = static_cast<std::uint8_t>(
    (static_cast<unsigned>(mpi::MsgKind::eager_data) << obs::kMsgKindShift) |
    obs::kProfPayload);
constexpr std::uint8_t kEcm = static_cast<std::uint8_t>(
    static_cast<unsigned>(mpi::MsgKind::credit) << obs::kMsgKindShift);

/// A hand-built stream, kept in time order like a recorded one.
struct Stream {
  std::vector<obs::TraceEvent> ev;

  void add(std::int64_t t, obs::Ev kind, int rank, int peer, std::uint64_t a,
           std::int64_t b, std::uint64_t key = 0, std::uint8_t flags = 0,
           std::uint32_t qpn = 0) {
    obs::TraceEvent e;
    e.t = sim::TimePoint(t);
    e.kind = kind;
    e.rank = static_cast<std::int16_t>(rank);
    e.peer = static_cast<std::int16_t>(peer);
    e.a = a;
    e.b = b;
    e.key = key;
    e.flags = flags;
    e.qpn = qpn;
    ev.push_back(e);
  }
  /// One WQE's requester lifecycle on `qpn` (msn, wr_id), `retx`
  /// retransmissions spread between first_tx and last_tx.
  void qp(int rank, int peer, std::uint32_t qpn, std::uint64_t msn,
          std::uint64_t wr_id, std::int64_t posted, std::int64_t first_tx,
          std::int64_t acked, std::int64_t last_tx = -1) {
    add(posted, obs::Ev::msg_posted, rank, peer, msn, 0, wr_id, 0, qpn);
    add(first_tx, obs::Ev::msg_on_wire, rank, peer, msn, 0, wr_id, 0, qpn);
    if (last_tx >= 0) {
      add(last_tx, obs::Ev::retransmit, rank, peer, msn, 0, wr_id, 0, qpn);
    }
    add(acked, obs::Ev::msg_acked, rank, peer, msn, 0, wr_id, 0, qpn);
  }
  std::span<const obs::TraceEvent> sorted() {
    std::stable_sort(ev.begin(), ev.end(),
                     [](const obs::TraceEvent& x, const obs::TraceEvent& y) {
                       return x.t < y.t;
                     });
    return ev;
  }
};

const obs::MessageProfile* find_message(const obs::ProfileAnalysis& a,
                                        int src, int dst, std::uint64_t seq) {
  for (const obs::MessageProfile& m : a.messages) {
    if (m.src == src && m.dst == dst && m.seq == seq) return &m;
  }
  return nullptr;
}

std::int64_t seg(const obs::MessageProfile& m, obs::Segment s) {
  return m.seg[static_cast<std::size_t>(s)];
}

}  // namespace

TEST(ProfReplay, EcmGrantSplitsStallAndNamesGrantSeq) {
  Stream s;
  // r0 spends its last credit at t=0 (a zero-credit episode opens), and a
  // send queues at t=100. r1's ECM (seq 5) leaves at 300 and lands at 700:
  // its grant ends the famine and releases the send, which posts as seq 1.
  s.add(0, obs::Ev::credit_consume, 0, 1, 1, 0);
  s.add(100, obs::Ev::backlog_enter, 0, 1, 1, 0);
  s.add(300, obs::Ev::wire_post, 1, 0, /*wr_id=*/9, 0, /*seq=*/5, kEcm);
  s.qp(1, 0, 11, 0, 9, 300, 320, 1000);
  s.add(700, obs::Ev::wire_arrive, 0, 1, 0, 0, 5, kEcm);
  s.add(700, obs::Ev::credit_grant, 0, 1, 2, 2, 5, obs::kProfGrantEcm);
  s.add(700, obs::Ev::credit_consume, 0, 1, 1, 1);
  s.add(700, obs::Ev::backlog_dispatch, 0, 1, 0, 1);
  s.add(700, obs::Ev::wire_post, 0, 1, /*wr_id=*/2, 4, /*seq=*/1,
        kEager | obs::kProfBacklogged);
  s.qp(0, 1, 10, 0, 2, 700, 750, 2000);
  s.add(1200, obs::Ev::wire_arrive, 1, 0, 0, 4, 1, kEager);
  s.add(1300, obs::Ev::msg_matched, 1, 0, 0, 4, 1, kEager);

  const obs::ProfileAnalysis a = obs::analyze(s.sorted());
  EXPECT_TRUE(a.exact);
  EXPECT_EQ(a.incomplete, 0u);
  const obs::MessageProfile* m = find_message(a, 0, 1, 1);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->grant_seq, 5u);
  EXPECT_NE(m->flags & obs::kProfGrantEcm, 0);
  EXPECT_NE(m->flags & obs::kProfBacklogged, 0);
  EXPECT_EQ(m->e2e(), 1200);
  // Waiting 100 -> 700, all of it with no credit: the ECM was in flight
  // from its dispatch (300) to its arrival (700), the rest is plain stall.
  EXPECT_EQ(seg(*m, obs::Segment::ecm_rtt), 400);
  EXPECT_EQ(seg(*m, obs::Segment::credit_stall), 200);
  EXPECT_EQ(seg(*m, obs::Segment::backlog), 0);
  EXPECT_EQ(seg(*m, obs::Segment::wire), 50 + 450);
  EXPECT_EQ(seg(*m, obs::Segment::match_wait), 100);
  // The ECM is a control message, complete at its arrival.
  const obs::MessageProfile* ecm = find_message(a, 1, 0, 5);
  ASSERT_NE(ecm, nullptr);
  EXPECT_EQ(ecm->flags & obs::kProfPayload, 0);
  EXPECT_EQ(ecm->e2e(), 400);
  EXPECT_EQ(a.critical_path.front().seq, 5u) << "the grant chain roots at the ECM";

  const obs::LatencyBreakdown v = obs::latency_view(s.sorted());
  EXPECT_EQ(v.backlog_residency.count(), 1u);
  EXPECT_EQ(v.backlog_residency.min(), 600.0);
}

TEST(ProfReplay, CreditResetMidEpisodeClosesTheEpisode) {
  Stream s;
  // An ECM grant (seq 7) ends a first episode at 50; the pool empties
  // again at 60 and a send queues at 100. A reconnect resets the credits
  // to 3 at 400 and the send leaves at 500: its zero-credit overlap ends
  // at the reset (400 - 100), and the stale grant names nothing.
  s.add(0, obs::Ev::credit_consume, 0, 1, 1, 0);
  s.add(50, obs::Ev::credit_grant, 0, 1, 1, 1, 7, obs::kProfGrantEcm);
  s.add(60, obs::Ev::credit_consume, 0, 1, 1, 0);
  s.add(100, obs::Ev::backlog_enter, 0, 1, 1, 0);
  s.add(400, obs::Ev::credit_reset, 0, 1, 0, 3);
  s.add(500, obs::Ev::credit_consume, 0, 1, 1, 2);
  s.add(500, obs::Ev::backlog_dispatch, 0, 1, 0, 2);
  s.add(500, obs::Ev::wire_post, 0, 1, 2, 4, 1, kEager | obs::kProfBacklogged);
  s.qp(0, 1, 10, 0, 2, 500, 520, 900);
  s.add(600, obs::Ev::wire_arrive, 1, 0, 0, 4, 1, kEager);
  s.add(600, obs::Ev::msg_matched, 1, 0, 0, 4, 1, kEager);

  const obs::ProfileAnalysis a = obs::analyze(s.sorted());
  const obs::MessageProfile* m = find_message(a, 0, 1, 1);
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->grant_seq, obs::kProfNoSeq);
  EXPECT_EQ(m->flags & obs::kProfGrantEcm, 0);
  EXPECT_EQ(seg(*m, obs::Segment::credit_stall), 300);
  EXPECT_EQ(seg(*m, obs::Segment::ecm_rtt), 0);
  EXPECT_EQ(seg(*m, obs::Segment::backlog), 100);
  EXPECT_TRUE(a.exact);
}

TEST(ProfReplay, ReplayedWrIdCountsOnce) {
  Stream s;
  // wr 2 goes out on QP 10 with one retransmission and is ACKed at 300; a
  // reconnect replays the same wr_id on QP 20, ACKed again at 900. Only
  // the first ACK-retired lifecycle counts, in the profile and the view.
  s.add(0, obs::Ev::wire_post, 0, 1, 2, 4, 0, kEager);
  s.qp(0, 1, 10, 0, 2, 0, 10, 300, /*last_tx=*/110);
  s.qp(0, 1, 20, 0, 2, 500, 510, 900);
  s.add(200, obs::Ev::wire_arrive, 1, 0, 0, 4, 0, kEager);
  s.add(250, obs::Ev::msg_matched, 1, 0, 0, 4, 0, kEager);
  s.add(700, obs::Ev::wire_arrive, 1, 0, 0, 4, 0, kEager);  // duplicate

  const obs::ProfileAnalysis a = obs::analyze(s.sorted());
  ASSERT_EQ(a.messages.size(), 1u);
  const obs::MessageProfile& m = a.messages.front();
  EXPECT_EQ(m.n_retx, 1u);
  EXPECT_EQ(m.t_first_tx, 10);
  EXPECT_EQ(m.t_acked, 300);
  EXPECT_EQ(m.t_recv, 200);
  EXPECT_EQ(seg(m, obs::Segment::retransmit), 100);
  EXPECT_TRUE(a.exact);

  const obs::LatencyBreakdown v = obs::latency_view(s.sorted());
  EXPECT_EQ(v.post_to_wire.count(), 1u);
  EXPECT_EQ(v.wire_to_ack.count(), 1u);
  EXPECT_EQ(v.wire_to_ack.max(), 290.0);
}

// ------------------------------------------------------------ latency view --

TEST(LatencyView, FoldsFirstQpSendAndBackloggedDevSend) {
  Stream s;
  s.qp(0, 1, 1, 0, /*wr_id=*/1, 100, 300, 5'300);    // 200 ns, 5 000 ns
  s.qp(0, 1, 1, 1, /*wr_id=*/2, 1'000, 3'600, 153'600);  // 2 600, 150 000
  s.qp(0, 1, 2, 0, /*wr_id=*/1, 6'000, 51'000, 251'000);  // replay of wr 1
  s.add(500, obs::Ev::wire_post, 0, 1, 3, 4, 0, kEager);  // never backlogged
  // Two sends queue (10 000, 20 000) and leave in order (80 000, 90 000):
  // the backlog is FIFO, so each spent 70 000 ns in it.
  s.add(10'000, obs::Ev::backlog_enter, 0, 1, 1, 0);
  s.add(20'000, obs::Ev::backlog_enter, 0, 1, 2, 0);
  s.add(80'000, obs::Ev::backlog_dispatch, 0, 1, 1, 0);
  s.add(80'000, obs::Ev::wire_post, 0, 1, 4, 4, 1,
        kEager | obs::kProfBacklogged);
  s.add(90'000, obs::Ev::backlog_dispatch, 0, 1, 0, 0);
  s.add(90'000, obs::Ev::wire_post, 0, 1, 5, 4, 2,
        kEager | obs::kProfBacklogged);
  std::vector<std::pair<std::string, double>> got;
  obs::latency_view(s.sorted()).visit(
      [&got](const std::string& name, double v) { got.emplace_back(name, v); });
  ASSERT_EQ(got.size(), 21u);
  const auto value = [&got](const std::string& name) {
    for (const auto& [n, v] : got) {
      if (n == name) return v;
    }
    ADD_FAILURE() << "missing " << name;
    return -1.0;
  };
  // Histogram quantiles report bucket midpoints: 1 000 ns buckets for
  // post_to_wire, 4 000 for wire_to_ack, 40 000 for backlog_residency.
  EXPECT_EQ(value("post_to_wire.count"), 2.0);
  EXPECT_EQ(value("post_to_wire.min_ns"), 200.0);
  EXPECT_EQ(value("post_to_wire.max_ns"), 2'600.0);
  EXPECT_EQ(value("post_to_wire.mean_ns"), 1'400.0);
  EXPECT_EQ(value("post_to_wire.p50_ns"), 2'500.0);
  EXPECT_EQ(value("post_to_wire.p90_ns"), 2'500.0);
  EXPECT_EQ(value("post_to_wire.p99_ns"), 2'500.0);
  EXPECT_EQ(value("wire_to_ack.count"), 2.0);
  EXPECT_EQ(value("wire_to_ack.min_ns"), 5'000.0);
  EXPECT_EQ(value("wire_to_ack.max_ns"), 150'000.0);
  EXPECT_EQ(value("wire_to_ack.p50_ns"), 150'000.0);
  EXPECT_EQ(value("wire_to_ack.p90_ns"), 150'000.0);
  EXPECT_EQ(value("wire_to_ack.p99_ns"), 150'000.0);
  EXPECT_EQ(value("backlog_residency.count"), 2.0);
  EXPECT_EQ(value("backlog_residency.min_ns"), 70'000.0);
  EXPECT_EQ(value("backlog_residency.max_ns"), 70'000.0);
  EXPECT_EQ(value("backlog_residency.p50_ns"), 60'000.0);
  EXPECT_EQ(value("backlog_residency.p90_ns"), 60'000.0);
  EXPECT_EQ(value("backlog_residency.p99_ns"), 60'000.0);
  EXPECT_EQ(obs::latency_view({}).post_to_wire.count(), 0u);
}

// ------------------------------------------------------------- cross-foot --

TEST(ProfAudit, AnalysisCrossFootsCountersOnStarvedFlood) {
  const std::unique_ptr<mpi::World> world = starved_world();
  const std::span<const obs::TraceEvent> stream = world->recorder().stream();
  ASSERT_GT(obs::latency_view(stream).backlog_residency.count(), 0u)
      << "flood must backlog";
  EXPECT_TRUE(audit_stream(*world, stream));
}

TEST(ProfAudit, AnalysisCrossFootsCountersOnLuPrepost1) {
  nas::NasParams params;
  params.iterations = 2;
  mpi::WorldConfig cfg = prof_config(nas::default_ranks(nas::App::lu), 1);
  mpi::World world(cfg);
  world.recorder().enable();
  bool verified = false;
  world.run([&](mpi::Communicator& comm) {
    const nas::AppOutcome out = nas::run_lu(comm, params);
    if (comm.rank() == 0) verified = out.verified;
  });
  EXPECT_TRUE(verified);
  const std::span<const obs::TraceEvent> stream = world.recorder().stream();
  EXPECT_GT(obs::analyze(stream).messages.size(), 0u);
  EXPECT_TRUE(audit_stream(world, stream));
}

TEST(ProfAudit, AnalysisCrossFootsCountersUnderFamineConversion) {
  // At prepost >= 4 a credit-starved backlog head leaves as an uncredited
  // rendezvous RTS (paper §4.2); it is one wire post, counted as credited.
  mpi::World world(prof_config(2, 4));
  world.recorder().enable();
  world.run([](mpi::Communicator& comm) {
    constexpr int kWindow = 64;
    std::vector<std::byte> buf(kWindow * kMsgBytes);
    for (int rep = 0; rep < 3; ++rep) {
      std::vector<mpi::RequestPtr> reqs;
      for (int i = 0; i < kWindow; ++i) {
        std::byte* p = buf.data() + i * kMsgBytes;
        reqs.push_back(
            comm.rank() == 0
                ? comm.isend(std::span<const std::byte>(p, kMsgBytes), 1, 0)
                : comm.irecv(std::span<std::byte>(p, kMsgBytes), 0, 0));
      }
      comm.wait_all(reqs);
    }
  });
  std::uint64_t converted = 0;
  for (const mpi::DeviceStats& d : world.collect_stats().devices) {
    converted += d.small_converted_to_rndv;
  }
  ASSERT_GT(converted, 0u) << "the window must starve into famine RTSes";
  EXPECT_TRUE(audit_stream(world, world.recorder().stream()));
}

TEST(ProfAudit, DroppedBackloggedWirePostFailsTheAudit) {
  const std::unique_ptr<mpi::World> world = starved_world();
  const std::span<const obs::TraceEvent> stream = world->recorder().stream();
  ASSERT_TRUE(audit_stream(*world, stream));
  const std::vector<obs::TraceEvent> cut =
      drop_first(stream, obs::Ev::wire_post, [](const obs::TraceEvent& e) {
        return (e.flags & obs::kProfBacklogged) != 0;
      });
  ASSERT_EQ(cut.size() + 1, stream.size());
  EXPECT_FALSE(audit_stream(*world, cut));
}

TEST(ProfAudit, DroppedBacklogDispatchFailsTheAudit) {
  // The wire post stays, so every message is still analyzed; only the
  // backlog residency goes missing against backlog_dispatched.
  const std::unique_ptr<mpi::World> world = starved_world();
  const std::span<const obs::TraceEvent> stream = world->recorder().stream();
  const std::vector<obs::TraceEvent> cut =
      drop_first(stream, obs::Ev::backlog_dispatch,
                 [](const obs::TraceEvent&) { return true; });
  ASSERT_EQ(cut.size() + 1, stream.size());
  EXPECT_EQ(obs::analyze(cut).messages.size(),
            obs::analyze(stream).messages.size());
  EXPECT_FALSE(audit_stream(*world, cut));
}

TEST(ProfAudit, DroppedAckedInstantFailsTheAudit) {
  const std::unique_ptr<mpi::World> world = starved_world();
  const std::span<const obs::TraceEvent> stream = world->recorder().stream();
  const std::vector<obs::TraceEvent> cut = drop_first(
      stream, obs::Ev::msg_acked, [](const obs::TraceEvent&) { return true; });
  ASSERT_EQ(cut.size() + 1, stream.size());
  EXPECT_FALSE(audit_stream(*world, cut));
}

// ----------------------------------------------------------------- exports --

TEST(ProfExport, ProfileDocumentRoundTrips) {
  obs::ProfileAnalysis a = starved_analysis();
  const std::string path = "prof_test_export.json";
  ASSERT_TRUE(obs::write_profile(path, a, "unit"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  EXPECT_NE(doc.find("mvflow.prof.v1"), std::string::npos);
  EXPECT_NE(doc.find("\"label\""), std::string::npos);
  EXPECT_NE(doc.find("credit_stall"), std::string::npos);
  EXPECT_NE(doc.find("critical_path"), std::string::npos);
  EXPECT_EQ(doc, obs::profile_to_json(a, "unit"));
  std::remove(path.c_str());
  // "-" means stdout and must always succeed (no file to fail to open).
  EXPECT_TRUE(obs::write_profile("-", a, "unit"));
}

TEST(ProfExport, FlowArrowsPairUpAcrossRanks) {
  obs::ProfileAnalysis a = starved_analysis();
  const std::vector<obs::FlowArrowEvent> flows = obs::flow_events(a);
  ASSERT_FALSE(flows.empty());
  for (std::size_t i = 1; i < flows.size(); ++i) {
    EXPECT_LE(flows[i - 1].t, flows[i].t) << "arrows must be time-sorted";
  }
  // Every id appears exactly twice: one "s" endpoint on the sender's track
  // and one "f" endpoint on the receiver's, begin no later than finish.
  std::map<std::uint64_t, std::vector<obs::FlowArrowEvent>> by_id;
  for (const obs::FlowArrowEvent& f : flows) by_id[f.id].push_back(f);
  for (const auto& [id, pair] : by_id) {
    ASSERT_EQ(pair.size(), 2u) << "id " << id;
    const obs::FlowArrowEvent& s = pair[0].begin ? pair[0] : pair[1];
    const obs::FlowArrowEvent& f = pair[0].begin ? pair[1] : pair[0];
    EXPECT_TRUE(s.begin);
    EXPECT_FALSE(f.begin);
    EXPECT_LE(s.t, f.t);
    EXPECT_NE(s.rank, f.rank);
  }
  EXPECT_EQ(by_id.size(), a.messages.size());
}

TEST(ProfExport, MetricsRegistryExposesBlameAndQuantiles) {
  const std::unique_ptr<mpi::World> world = starved_world();
  const obs::Snapshot snap = world->metrics().snapshot();
  EXPECT_EQ(snap.get("prof.exact", -1.0), 1.0);
  EXPECT_GT(snap.get("prof.messages"), 0.0);
  EXPECT_GT(snap.get("prof.e2e_ns"), 0.0);
  EXPECT_TRUE(snap.has("prof.credit_stall_ns"));
  EXPECT_TRUE(snap.has("prof.conn.r0_r1.e2e_ns"));
  EXPECT_TRUE(snap.has("prof.link.up.r0.e2e_ns"));
  EXPECT_TRUE(snap.has("prof.link.down.r1.e2e_ns"));
  // Histogram quantiles are derived gauges in the same snapshot (the
  // stream's latency view), p50/p90/p99 all present.
  EXPECT_GT(snap.count_suffix(".p50_ns"), 0u);
  EXPECT_GT(snap.count_suffix(".p90_ns"), 0u);
  EXPECT_GT(snap.count_suffix(".p99_ns"), 0u);
}

TEST(ProfExport, CsvEscapeQuotesSeparatorsAndQuotes) {
  EXPECT_EQ(obs::csv_escape("plain"), "plain");
  EXPECT_EQ(obs::csv_escape(""), "");
  EXPECT_EQ(obs::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(obs::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(obs::csv_escape("line\nbreak"), "\"line\nbreak\"");
}
