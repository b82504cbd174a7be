// Causal critical-path profiler tests (DESIGN.md §16): exactness of the
// six-way latency split, the latency.* view of the records, the
// cross-subsystem audit against the flight recorder's instants, the
// zero-record disarmed contract, the deterministic chain-id join key, and
// the export surfaces (profile JSON, flow arrows, "prof." metrics).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/run_config.hpp"
#include "mpi/communicator.hpp"
#include "mpi/protocol.hpp"
#include "mpi/world.hpp"
#include "obs/prof.hpp"
#include "obs/recorder.hpp"

using namespace mvflow;

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

obs::ProfileAnalysis starved_analysis(
    std::unique_ptr<mpi::World>* out_world = nullptr) {
  auto world = std::make_unique<mpi::World>(prof_config(2, 2));
  world->profiler().enable();
  world->recorder().enable(obs::FlightRecorder::kDefaultCapacity);
  world->run(starved_flood);
  obs::ProfileAnalysis a = world->prof_analysis();
  if (out_world != nullptr) *out_world = std::move(world);
  return a;
}

/// The deterministic join/causal key: (src, dst, per-connection sequence),
/// the same packing mpi::Device uses for the engine's causal token and the
/// flow-arrow ids.
std::uint64_t chain_id(std::int16_t src, std::int16_t dst,
                       std::uint64_t seq) {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(src)) << 48) |
         (static_cast<std::uint64_t>(static_cast<std::uint16_t>(dst)) << 32) |
         (seq & 0xffffffffull);
}

}  // namespace

// ------------------------------------------------------------ attribution --

TEST(ProfAttribution, SegmentsSumExactlyToE2e) {
  std::unique_ptr<mpi::World> world;
  obs::ProfileAnalysis a = starved_analysis(&world);
  ASSERT_NE(world, nullptr);
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
  // Cross-subsystem audit: the latency view equals the ring's instants.
  EXPECT_TRUE(obs::audit_against(
      obs::latency_view(world->profiler().records()), world->recorder()));
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
  EXPECT_FALSE(world.profiler().enabled());
  EXPECT_TRUE(world.profiler().records().empty());
  EXPECT_TRUE(world.prof_analysis().messages.empty());
}

TEST(ProfAttribution, DevRecvCarriesDeterministicChainId) {
  mpi::World world(prof_config(2, 2));
  world.profiler().enable();
  world.run(starved_flood);
  std::size_t checked = 0;
  for (const obs::ProfRecord& r : world.profiler().records()) {
    if (r.family != obs::ProfFamily::dev_recv) continue;
    if (r.msg_kind != static_cast<std::uint8_t>(mpi::MsgKind::eager_data))
      continue;
    ASSERT_NE(r.seq, obs::kProfNoSeq);
    // The receive-side record's aux is the engine causal token at arrival,
    // which the sender stamped as its own chain id at post_send.
    EXPECT_EQ(r.aux, chain_id(r.src, r.dst, r.seq));
    ++checked;
  }
  // At least the whole flood (the teardown handshake may add a couple).
  EXPECT_GE(checked, static_cast<std::size_t>(kFloodCount));
}

// ------------------------------------------------------------ latency view --

namespace {

obs::ProfRecord qp_send(std::int16_t src, std::uint64_t tx_id,
                        std::int64_t post, std::int64_t first_tx,
                        std::int64_t acked) {
  obs::ProfRecord r;
  r.family = obs::ProfFamily::qp_send;
  r.src = src;
  r.aux = tx_id;
  r.t0 = sim::TimePoint(post);
  r.t1 = sim::TimePoint(first_tx);
  r.t2 = sim::TimePoint(first_tx);
  r.t3 = sim::TimePoint(acked);
  return r;
}

obs::ProfRecord dev_send(std::int64_t post, std::int64_t dispatch,
                         bool backlogged) {
  obs::ProfRecord r;
  r.family = obs::ProfFamily::dev_send;
  r.src = 0;
  r.t0 = sim::TimePoint(post);
  r.t1 = sim::TimePoint(dispatch);
  if (backlogged) {
    r.t2 = sim::TimePoint(dispatch);
    r.flags = obs::kProfBacklogged;
  }
  return r;
}

/// Replay `from`'s ring into a fresh recorder of `capacity` slots, with
/// the first msg_on_wire instant moved `late_ns` later.
obs::FlightRecorder replay_ring(const obs::FlightRecorder& from,
                                std::size_t capacity, std::int64_t late_ns) {
  obs::FlightRecorder to;
  to.enable(capacity);
  bool shifted = false;
  for (const obs::TraceEvent& e : from.events()) {
    sim::TimePoint t = e.t;
    if (!shifted && e.kind == obs::Ev::msg_on_wire) {
      t += sim::Duration(late_ns);
      shifted = true;
    }
    to.record(t, e.kind, e.rank, e.peer, e.qpn, e.a, e.b);
  }
  return to;
}

}  // namespace

TEST(LatencyView, FoldsFirstQpSendAndBackloggedDevSend) {
  const std::vector<obs::ProfRecord> records = {
      qp_send(0, 1, 100, 300, 5'300),       // 200 ns to wire, 5 000 to ACK
      qp_send(0, 2, 1'000, 3'600, 153'600),  // 2 600 ns, 150 000 ns
      qp_send(0, 1, 0, 45'000, 245'000),    // recovery replay of tx 1: skipped
      dev_send(10'000, 80'000, true),       // 70 000 ns in the backlog
      dev_send(0, 500, false),              // never backlogged: skipped
  };
  std::vector<std::pair<std::string, double>> got;
  obs::latency_view(records).visit(
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
  EXPECT_EQ(value("backlog_residency.count"), 1.0);
  EXPECT_EQ(value("backlog_residency.min_ns"), 70'000.0);
  EXPECT_EQ(value("backlog_residency.max_ns"), 70'000.0);
  EXPECT_EQ(value("backlog_residency.p50_ns"), 60'000.0);
  EXPECT_EQ(value("backlog_residency.p90_ns"), 60'000.0);
  EXPECT_EQ(value("backlog_residency.p99_ns"), 60'000.0);
  EXPECT_EQ(obs::latency_view({}).post_to_wire.count(), 0u);
}

TEST(ProfAudit, ViewAgreesWithTraceRingOnStarvedFlood) {
  std::unique_ptr<mpi::World> world;
  (void)starved_analysis(&world);
  ASSERT_NE(world, nullptr);
  const obs::LatencyBreakdown view =
      obs::latency_view(world->profiler().records());
  ASSERT_GT(view.backlog_residency.count(), 0u) << "flood must backlog";
  EXPECT_TRUE(obs::audit_against(view, world->recorder()));
  // An exact copy of the ring is the same book.
  const obs::FlightRecorder& rec = world->recorder();
  EXPECT_TRUE(obs::audit_against(view, replay_ring(rec, rec.size(), 0)));
}

TEST(ProfAudit, OneLateOnWireInstantFailsTheAudit) {
  std::unique_ptr<mpi::World> world;
  (void)starved_analysis(&world);
  ASSERT_NE(world, nullptr);
  const obs::FlightRecorder& rec = world->recorder();
  EXPECT_FALSE(
      obs::audit_against(obs::latency_view(world->profiler().records()),
                         replay_ring(rec, rec.size(), 1)));
}

TEST(ProfAudit, WrappedRingFailsTheAudit) {
  std::unique_ptr<mpi::World> world;
  (void)starved_analysis(&world);
  ASSERT_NE(world, nullptr);
  const obs::FlightRecorder& rec = world->recorder();
  ASSERT_GT(rec.size(), 1u);
  const obs::FlightRecorder wrapped = replay_ring(rec, rec.size() - 1, 0);
  ASSERT_GT(wrapped.dropped(), 0u);
  EXPECT_FALSE(obs::audit_against(
      obs::latency_view(world->profiler().records()), wrapped));
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
  std::unique_ptr<mpi::World> world;
  (void)starved_analysis(&world);
  ASSERT_NE(world, nullptr);
  const obs::Snapshot snap = world->metrics().snapshot();
  EXPECT_EQ(snap.get("prof.exact", -1.0), 1.0);
  EXPECT_GT(snap.get("prof.messages"), 0.0);
  EXPECT_GT(snap.get("prof.e2e_ns"), 0.0);
  EXPECT_TRUE(snap.has("prof.credit_stall_ns"));
  EXPECT_TRUE(snap.has("prof.conn.r0_r1.e2e_ns"));
  EXPECT_TRUE(snap.has("prof.link.up.r0.e2e_ns"));
  EXPECT_TRUE(snap.has("prof.link.down.r1.e2e_ns"));
  // Histogram quantiles are derived gauges in the same snapshot (the
  // profile's latency view), p50/p90/p99 all present.
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
