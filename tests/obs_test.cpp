// Observability layer: metrics registry round-trip, flight-recorder ring
// semantics, Chrome trace well-formedness, failed exports, and end-to-end
// scenarios (trace/metric agreement on a NAS LU run; backlog episodes
// visible at prepost=10 and absent at prepost=100; the latency.* view of a
// disarmed world).
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "nas/kernel.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/recorder.hpp"

namespace obs = mvflow::obs;
namespace mpi = mvflow::mpi;
namespace nas = mvflow::nas;
namespace sim = mvflow::sim;

namespace {

// The flight recorder is world-owned: tests enable tracing on a World's
// own recorder (World::recorder()) before run() and read it back after.
// Nothing here touches process-global state, so fixtures cannot leak
// instrumentation into each other.

mpi::WorldConfig two_rank_config(int prepost) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = mvflow::flowctl::Scheme::user_static;
  cfg.flow.prepost = prepost;
  return cfg;
}

}  // namespace

// ---------------------------------------------------------------- registry --

TEST(MetricsRegistry, SourcesPrefix) {
  obs::MetricsRegistry reg;
  reg.add_source("rank0.", [](const obs::MetricsRegistry::EmitFn& emit) {
    emit("flow.ecm_sent", 7.0);
  });
  reg.add_source("rank1.", [](const obs::MetricsRegistry::EmitFn& emit) {
    emit("flow.ecm_sent", 3.0);
  });
  const obs::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.values.size(), 2u);
  EXPECT_EQ(snap.values[0].first, "rank0.flow.ecm_sent");  // source order
  EXPECT_EQ(snap.get("rank0.flow.ecm_sent"), 7.0);
  EXPECT_EQ(snap.get("rank1.flow.ecm_sent"), 3.0);
  EXPECT_EQ(snap.sum_suffix(".ecm_sent"), 10.0);
  EXPECT_EQ(snap.count_suffix(".ecm_sent"), 2u);
}

TEST(MetricsRegistry, SnapshotJsonRoundTripsBitExactly) {
  obs::MetricsRegistry reg;
  reg.add_source("", [](const obs::MetricsRegistry::EmitFn& emit) {
    emit("a.big", static_cast<double>(1234567890123456789ull));
    emit("b.pi", 3.141592653589793);
    emit("c.tiny", 1.0e-300);
    emit("d.negative", -0.0625);
    emit("e \"quoted\"\n", 1.0);  // name needing JSON escaping
  });

  const obs::Snapshot snap = reg.snapshot();
  const auto parsed = obs::Snapshot::from_json(snap.to_json());
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->values.size(), snap.values.size());
  for (std::size_t i = 0; i < snap.values.size(); ++i) {
    EXPECT_EQ(parsed->values[i].first, snap.values[i].first);
    EXPECT_EQ(parsed->values[i].second, snap.values[i].second) << "index " << i;
  }
}

TEST(MetricsRegistry, FromJsonRejectsMalformedDocuments) {
  EXPECT_FALSE(obs::Snapshot::from_json("").has_value());
  EXPECT_FALSE(obs::Snapshot::from_json("{\"metrics\": 3}").has_value());
  EXPECT_FALSE(obs::Snapshot::from_json("{\"metrics\": {\"a\": \"x\"}}").has_value());
  EXPECT_FALSE(obs::Snapshot::from_json("{\"metrics\": {}} trailing").has_value());
  EXPECT_TRUE(obs::Snapshot::from_json("{\"metrics\": {}}").has_value());
}

// ------------------------------------------------------------ flight ring --

TEST(FlightRecorder, RingOverwritesOldestAtCapacity) {
  obs::FlightRecorder rec;
  rec.enable(8);
  for (int i = 0; i < 12; ++i) {
    rec.record(sim::TimePoint(i), obs::Ev::msg_posted, 0, 1, 5,
               static_cast<std::uint64_t>(i), 0);
  }
  EXPECT_EQ(rec.size(), 8u);
  EXPECT_EQ(rec.capacity(), 8u);
  EXPECT_EQ(rec.dropped(), 4u);
  EXPECT_EQ(rec.recorded(), 12u);
  EXPECT_EQ(rec.count(obs::Ev::msg_posted), 12u);

  const auto evs = rec.events();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(evs.front().a, 4u);  // events 0..3 were evicted
  EXPECT_EQ(evs.back().a, 11u);
  for (std::size_t i = 1; i < evs.size(); ++i) {
    EXPECT_LT(evs[i - 1].t, evs[i].t) << "oldest-first order";
  }
}

TEST(FlightRecorder, DisabledRecorderRecordsNothing) {
  obs::FlightRecorder rec;
  rec.record(sim::TimePoint(1), obs::Ev::ecm_sent, 0, 1, 2, 0, 0);
  EXPECT_FALSE(rec.enabled());
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);

  rec.enable(4);
  rec.record(sim::TimePoint(2), obs::Ev::ecm_sent, 0, 1, 2, 0, 0);
  rec.disable();
  rec.record(sim::TimePoint(3), obs::Ev::ecm_sent, 0, 1, 2, 0, 0);
  EXPECT_EQ(rec.recorded(), 1u);
}

TEST(FlightRecorder, CsvCarriesLastKnownValues) {
  obs::FlightRecorder rec;
  rec.enable(16);
  rec.record(sim::TimePoint(10), obs::Ev::credit_grant, 0, 1, 3, 5, 5);
  rec.record(sim::TimePoint(20), obs::Ev::backlog_enter, 0, 1, 3, 2, 0);
  rec.record(sim::TimePoint(30), obs::Ev::msg_posted, 0, 1, 3, 1, 64);  // not sampled
  std::ostringstream csv;
  rec.export_credit_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("time_ns,rank,peer,event,credits,backlog_depth"),
            std::string::npos);
  EXPECT_NE(text.find("10,0,1,credit_grant,5,0"), std::string::npos);
  EXPECT_NE(text.find("20,0,1,backlog_enter,0,2"), std::string::npos);
  EXPECT_EQ(text.find("msg_posted"), std::string::npos);
}

// ------------------------------------------------------- end-to-end trace --

TEST(ChromeTrace, PingPongProducesWellFormedTrace) {
  mpi::World world(two_rank_config(/*prepost=*/16));
  world.recorder().enable(obs::FlightRecorder::kUnbounded);
  world.run([](mpi::Communicator& comm) {
    std::byte buf[256];
    std::memset(buf, 0, sizeof buf);
    for (int i = 0; i < 8; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, 1, 7);
        comm.recv(buf, 1, 7);
      } else {
        comm.recv(buf, 0, 7);
        comm.send(buf, 0, 7);
      }
    }
  });

  const obs::FlightRecorder& rec = world.recorder();
  ASSERT_GT(rec.size(), 0u);
  std::ostringstream os;
  rec.export_chrome_trace(os);
  const auto doc = obs::json::parse(os.str());
  ASSERT_TRUE(doc.has_value()) << "trace must be valid JSON";
  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_FALSE(events->array.empty());

  std::size_t instants = 0;
  double last_ts = 0.0;
  for (const auto& e : events->array) {
    ASSERT_TRUE(e.is_object());
    const obs::json::Value* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_TRUE(ph->is_string());
    const obs::json::Value* name = e.find("name");
    ASSERT_NE(name, nullptr);
    ASSERT_TRUE(name->is_string());
    ASSERT_NE(e.find("pid"), nullptr);
    if (ph->string == "M") continue;  // metadata carries no ts
    const obs::json::Value* ts = e.find("ts");
    ASSERT_NE(ts, nullptr);
    ASSERT_TRUE(ts->is_number());
    EXPECT_GE(ts->number, last_ts) << "timestamps must be non-decreasing";
    last_ts = ts->number;
    if (ph->string == "i") ++instants;
  }
  EXPECT_GT(instants, 0u);

  // Both ranks posted, transmitted, delivered and retired messages.
  EXPECT_GT(rec.count(obs::Ev::msg_posted), 0u);
  EXPECT_GT(rec.count(obs::Ev::msg_on_wire), 0u);
  EXPECT_GT(rec.count(obs::Ev::msg_delivered), 0u);
  EXPECT_GT(rec.count(obs::Ev::msg_acked), 0u);
  // The latency breakdown is a view of the same (unbounded) stream.
  const obs::LatencyBreakdown lat = obs::latency_view(rec.stream());
  EXPECT_GT(lat.post_to_wire.count(), 0u);
  EXPECT_GT(lat.wire_to_ack.count(), 0u);
}

namespace {

/// Drive one NAS LU run on a caller-owned World so the test can read the
/// World's recorder afterwards (run_app hides its World, and with it the
/// trace). Mirrors run_app's harness for the one app these tests use.
struct TracedLuRun {
  nas::AppOutcome outcome;
  mpi::WorldStats stats;
  obs::Snapshot metrics;
};

TracedLuRun run_lu_traced(mpi::World& world, const nas::NasParams& params) {
  TracedLuRun r;
  world.run([&](mpi::Communicator& comm) {
    const nas::AppOutcome local = nas::run_lu(comm, params);
    if (comm.rank() == 0) r.outcome = local;
  });
  r.stats = world.collect_stats();
  r.metrics = world.metrics().snapshot();
  return r;
}

}  // namespace

TEST(ChromeTrace, LuEcmEventsMatchFlowCounters) {
  // ISSUE acceptance: on a NAS LU static-scheme run, the number of
  // ecm_sent instants in the exported trace equals the flowctl layer's
  // aggregate ecm_sent counter, and the metrics snapshot agrees.
  nas::NasParams params;
  params.iterations = 2;
  auto cfg = two_rank_config(/*prepost=*/10);
  cfg.num_ranks = nas::default_ranks(nas::App::lu);
  mpi::World world(cfg);
  world.recorder().enable(1u << 20);
  const TracedLuRun r = run_lu_traced(world, params);
  ASSERT_TRUE(r.outcome.verified);

  const std::uint64_t flow_ecm = r.stats.total_ecm();
  EXPECT_EQ(world.recorder().count(obs::Ev::ecm_sent), flow_ecm);
  EXPECT_EQ(r.metrics.sum_suffix(".flow.ecm_sent"),
            static_cast<double>(flow_ecm));

  // And the exported trace carries exactly that many ecm_sent instants.
  std::ostringstream os;
  world.recorder().export_chrome_trace(os);
  const auto doc = obs::json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const obs::json::Value* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  std::uint64_t ecm_instants = 0;
  for (const auto& e : events->array) {
    const obs::json::Value* name = e.find("name");
    const obs::json::Value* ph = e.find("ph");
    if (name && ph && ph->string == "i" && name->string == "ecm_sent")
      ++ecm_instants;
  }
  EXPECT_EQ(ecm_instants, flow_ecm);
  EXPECT_EQ(world.recorder().dropped(), 0u) << "ring must not have wrapped";
}

TEST(CreditTimeSeries, BacklogEpisodesOnlyUnderSmallPools) {
  // A starved credit pool shows backlog episodes on LU's bursty wavefront;
  // a roomy one shows none. The paper contrasts prepost 10 vs 100 on
  // full-size NAS grids; this scaled-down LU has a burst depth of ~8, so
  // the starved side sits below that to actually exhaust the pool.
  nas::NasParams params;
  params.iterations = 2;

  auto starved = two_rank_config(/*prepost=*/6);
  starved.num_ranks = nas::default_ranks(nas::App::lu);
  mpi::World small_world(starved);
  small_world.recorder().enable(1u << 20);
  const TracedLuRun small = run_lu_traced(small_world, params);
  ASSERT_TRUE(small.outcome.verified);
  EXPECT_GT(small_world.recorder().count(obs::Ev::backlog_enter), 0u);
  std::ostringstream csv_small;
  small_world.recorder().export_credit_csv(csv_small);
  EXPECT_NE(csv_small.str().find("backlog_enter"), std::string::npos);

  auto roomy = two_rank_config(/*prepost=*/100);
  roomy.num_ranks = nas::default_ranks(nas::App::lu);
  mpi::World big_world(roomy);
  big_world.recorder().enable(1u << 20);
  const TracedLuRun big = run_lu_traced(big_world, params);
  ASSERT_TRUE(big.outcome.verified);
  EXPECT_EQ(big_world.recorder().count(obs::Ev::backlog_enter), 0u);
  std::ostringstream csv_big;
  big_world.recorder().export_credit_csv(csv_big);
  EXPECT_EQ(csv_big.str().find("backlog_enter"), std::string::npos);
}

TEST(WorldMetrics, SnapshotCoversEveryLayer) {
  mpi::World world(two_rank_config(/*prepost=*/16));
  world.run([](mpi::Communicator& comm) {
    std::byte buf[64] = {};
    if (comm.rank() == 0) comm.send(buf, 1, 1);
    else comm.recv(buf, 0, 1);
  });
  const obs::Snapshot snap = world.metrics().snapshot();
  EXPECT_GT(snap.get("engine.executed"), 0.0);
  EXPECT_GT(snap.get("fabric.packets"), 0.0);
  EXPECT_GT(snap.get("msg_pool.acquires"), 0.0);
  EXPECT_TRUE(snap.has("rank0.device.eager_sent"));
  EXPECT_TRUE(snap.has("rank1.device.eager_sent"));
  EXPECT_TRUE(snap.has("rank0.peer1.flow.credited_sent"));
  EXPECT_TRUE(snap.has("rank0.peer1.qp.messages_sent"));
  EXPECT_TRUE(snap.has("latency.post_to_wire.count"));
  EXPECT_GT(snap.sum_suffix(".flow.total_messages"), 0.0);
}

TEST(WorldMetrics, DisarmedWorldReadsZeroLatencyView) {
  // latency.* is a view of the profile: a world that arms nothing still
  // emits all 21 names, in their fixed order, all zero, and no prof.*.
  mpi::WorldConfig cfg = two_rank_config(/*prepost=*/16);
  cfg.run = mvflow::exp::RunConfig{};  // ignore ambient MVFLOW_* exports
  mpi::World world(cfg);
  world.run([](mpi::Communicator& comm) {
    std::byte buf[64] = {};
    if (comm.rank() == 0) comm.send(buf, 1, 1);
    else comm.recv(buf, 0, 1);
  });
  std::vector<std::string> want;
  for (const char* series :
       {"post_to_wire", "wire_to_ack", "backlog_residency"}) {
    for (const char* field : {"count", "mean_ns", "min_ns", "max_ns", "p50_ns",
                              "p90_ns", "p99_ns"}) {
      want.push_back(std::string("latency.") + series + "." + field);
    }
  }
  std::vector<std::string> got;
  for (const auto& [name, value] : world.metrics().snapshot().values) {
    EXPECT_NE(name.rfind("prof.", 0), 0u) << name;
    if (name.rfind("latency.", 0) != 0) continue;
    got.push_back(name);
    EXPECT_EQ(value, 0.0) << name;
  }
  EXPECT_EQ(got, want);
}

// ----------------------------------------------------------------- exports --

TEST(Exports, EveryFileExportReportsAFullDevice) {
  // /dev/full accepts the open and fails the flush: each export must check
  // its close, not just its open.
  const std::string full = "/dev/full";
  obs::Snapshot snap;
  snap.values.emplace_back("a", 1.0);
  EXPECT_FALSE(snap.write_json(full));

  obs::FlightRecorder rec;
  rec.enable(16);
  rec.record(sim::TimePoint(10), obs::Ev::credit_grant, 0, 1, 3, 5, 5);
  EXPECT_FALSE(rec.export_chrome_trace(full));
  EXPECT_FALSE(rec.export_credit_csv(full));

  EXPECT_FALSE(obs::write_profile(full, obs::ProfileAnalysis{}, "full"));
}
