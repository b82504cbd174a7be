// Causal-profiler validation bench (DESIGN.md §16): reproduce the paper's
// Figure 3 blocking-bandwidth gap between an amply-provisioned receiver
// (prepost=100, the window never exhausts the credits) and a credit-starved
// one (prepost=2, every send queues behind the ECM round-trip), then let the
// profiler *explain* it. The verdicts this bench gates:
//
//   exact      — every message's six segments sum exactly to its e2e latency
//   identical  — two runs of each cell give byte-identical profile
//                documents
//   audit_ok   — the profile's latency view equals the flight recorder's
//                own lifecycle instants (independent books, same call
//                sites; obs::audit_against)
//   gap_attributed — the fraction of the e2e gap the profiler pins on
//                credit_stall + ecm_rtt; the starved run's slowdown *is*
//                credit famine, so ≥ 0.90 must land there
//
// Artifacts: PROF_attribution_pre100.json / PROF_attribution_pre2.json
// (mvflow.prof.v1 documents — `mvflow_prof analyze` / `diff` read these in
// CI) and BENCH_prof_attribution.json for the perf gate.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/prof.hpp"
#include "obs/recorder.hpp"

namespace {

using namespace mvflow;

constexpr std::size_t kMsgBytes = 4;
// Window 4 keeps the ample run's QP tx pipeline shallow, so the only
// material difference between the two runs is credit availability and the
// attribution fraction lands near 1.0; deeper windows make the *ample* run
// pay growing self-queueing (charged to wire) that the starved run avoids,
// and the fraction drifts upward before the gap itself inverts.
int g_window = 4;
int g_reps = 20;

struct Cell {
  obs::ProfileAnalysis analysis;
  std::string profile_json;
  bool audit_ok = false;
};

Cell run_cell(int prepost, const std::string& label) {
  mpi::WorldConfig cfg =
      bench::base_config(flowctl::Scheme::user_static, prepost);
  cfg.run = exp::RunConfig{};  // no env-driven exports from bench cells
  mpi::World world(cfg);
  world.profiler().enable();
  // Arm the recorder too: the cross-subsystem audit checks the profile's
  // latency view against the ring's own instants.
  world.recorder().enable(obs::FlightRecorder::kDefaultCapacity);

  // The paper's blocking bandwidth pattern (§6.2.2), adapted so the two
  // prepost configurations differ *only* in credit availability: the
  // receiver pre-posts the whole window and says READY before the sender
  // bursts. Without the handshake the ample run pays for its own speed —
  // messages pile up in the unexpected queue (match_wait) and the QP tx
  // pipeline (wire) — and those artifacts, not credit famine, would
  // dominate the diff.
  world.run([&](mpi::Communicator& comm) {
    std::vector<std::byte> payload(kMsgBytes);
    std::vector<std::byte> ready(1);
    std::vector<std::byte> rxbuf(kMsgBytes);
    for (int rep = 0; rep < g_reps; ++rep) {
      if (comm.rank() == 0) {
        comm.recv(ready, 1, 1);
        for (int i = 0; i < g_window; ++i) {
          comm.send(std::span<const std::byte>(payload.data(), kMsgBytes), 1,
                    0);
        }
      } else {
        std::vector<mpi::RequestPtr> reqs;
        reqs.reserve(static_cast<std::size_t>(g_window));
        for (int i = 0; i < g_window; ++i) {
          reqs.push_back(
              comm.irecv(std::span<std::byte>(rxbuf.data(), kMsgBytes), 0, 0));
        }
        comm.send(ready, 0, 1);
        comm.wait_all(reqs);
      }
    }
  });

  Cell cell;
  cell.analysis = world.prof_analysis();
  cell.profile_json = obs::profile_to_json(cell.analysis, label);
  cell.audit_ok = obs::audit_against(
      obs::latency_view(world.profiler().records()), world.recorder());
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Options opts(argc, argv);
  g_window = static_cast<int>(opts.get_int("window", g_window));
  g_reps = static_cast<int>(opts.get_int("reps", g_reps));
  bench::WallTimer timer;
  bench::BenchJson json("prof_attribution");

  const int kPreposts[] = {100, 2};

  std::printf(
      "Causal profiler attribution: Figure 3 blocking bandwidth, %zu-byte "
      "messages, window %d x %d reps\n",
      kMsgBytes, g_window, g_reps);

  obs::SegmentTotals payload[2];
  bool all_exact = true;
  bool all_identical = true;
  bool all_audit = true;
  for (std::size_t pi = 0; pi < 2; ++pi) {
    const int prepost = kPreposts[pi];
    const std::string label = "prepost=" + std::to_string(prepost);
    // Each cell runs twice; the repeat must reproduce the profile document
    // byte for byte.
    const Cell cell = run_cell(prepost, label);
    const Cell repeat = run_cell(prepost, label);
    const bool identical = repeat.profile_json == cell.profile_json;
    const bool audit_ok = cell.audit_ok && repeat.audit_ok;
    payload[pi] = cell.analysis.payload;
    const obs::SegmentTotals& t = cell.analysis.payload;
    std::printf("  %s: %llu payload msgs, e2e %lld ns (", label.c_str(),
                static_cast<unsigned long long>(t.messages),
                static_cast<long long>(t.e2e_ns));
    for (std::size_t i = 0; i < obs::kSegmentCount; ++i) {
      std::printf("%s%s %lld", i == 0 ? "" : ", ",
                  std::string(obs::to_string(static_cast<obs::Segment>(i)))
                      .c_str(),
                  static_cast<long long>(t.seg[i]));
    }
    std::printf(")  exact=%d identical=%d audit=%d\n",
                cell.analysis.exact ? 1 : 0, identical ? 1 : 0,
                audit_ok ? 1 : 0);
    obs::write_profile("PROF_attribution_pre" + std::to_string(prepost) +
                           ".json",
                       cell.analysis, label);
    all_exact = all_exact && cell.analysis.exact;
    all_identical = all_identical && identical;
    all_audit = all_audit && audit_ok;

    json.add_point({{"prepost", static_cast<double>(prepost)},
                    {"messages", static_cast<double>(t.messages)},
                    {"e2e_ns", static_cast<double>(t.e2e_ns)},
                    {"credit_stall_ns", static_cast<double>(t.seg[0])},
                    {"ecm_rtt_ns", static_cast<double>(t.seg[1])},
                    {"backlog_ns", static_cast<double>(t.seg[2])},
                    {"retransmit_ns", static_cast<double>(t.seg[3])},
                    {"wire_ns", static_cast<double>(t.seg[4])},
                    {"match_wait_ns", static_cast<double>(t.seg[5])},
                    {"exact", cell.analysis.exact ? 1.0 : 0.0},
                    {"identical", identical ? 1.0 : 0.0},
                    {"audit_ok", audit_ok ? 1.0 : 0.0}});
  }

  // The gap: credit-starved minus provisioned, over payload messages. The
  // two runs move the same messages, so segment deltas decompose the
  // slowdown — and famine's signature is credit_stall + ecm_rtt.
  const std::int64_t de2e = payload[1].e2e_ns - payload[0].e2e_ns;
  const std::int64_t dstall = (payload[1].seg[0] - payload[0].seg[0]) +
                              (payload[1].seg[1] - payload[0].seg[1]);
  const double gap_fraction =
      de2e > 0 ? static_cast<double>(dstall) / static_cast<double>(de2e) : 0.0;
  const bool gap_ok = gap_fraction >= 0.90;
  std::printf(
      "gap: %lld ns e2e, %lld ns credit_stall+ecm_rtt (%.4f attributed) "
      "-> %s\n",
      static_cast<long long>(de2e), static_cast<long long>(dstall),
      gap_fraction, gap_ok ? "ok" : "FAIL");

  json.add_meta("exact", all_exact ? 1.0 : 0.0);
  json.add_meta("identical", all_identical ? 1.0 : 0.0);
  json.add_meta("audit_ok", all_audit ? 1.0 : 0.0);
  json.add_meta("gap_e2e_ns", static_cast<double>(de2e));
  json.add_meta("gap_fraction", gap_fraction);
  json.add_meta("gap_attributed_ok", gap_ok ? 1.0 : 0.0);
  json.write(timer.seconds());

  return all_exact && all_identical && all_audit && gap_ok ? 0 : 1;
}
