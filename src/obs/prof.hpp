// Causal critical-path profiler (DESIGN.md §16).
//
// Where the flight recorder answers "what happened", the profiler answers
// "which stall delayed *this* message". Instrumented layers emit one compact
// checkpoint record per side of every wire message:
//
//   dev_send — the sending mpi::Device: post time, dispatch time (credit
//              acquired, header sequence stamped), the zero-credit overlap of
//              the wait, and the inbound sequence number of the credit grant
//              that released it (the causal predecessor).
//   qp_send  — the sending ib::QueuePair, committed when the ACK retires the
//              WQE: first/last transmission times and the retransmit count.
//   dev_recv — the receiving mpi::Device: arrival (handle_inbound) and the
//              instant the message matched a posted receive.
//
// Records join *offline* by deterministic keys — the per-connection wire
// sequence number across ranks, the device tx id between device and QP — so
// attribution is a pure function of the record multiset: each record is a
// function of one message's protocol history, so a deterministic run
// produces the identical multiset — and the identical analysis — every
// time.
//
// Each completed message's end-to-end latency decomposes exactly into six
// disjoint segments (differences of consecutive timeline checkpoints, so
// Σ segments == e2e by construction):
//
//   credit_stall — waiting for a credit, no grant in flight
//   ecm_rtt      — waiting for a credit while the releasing ECM was in flight
//   backlog      — queued behind other backlogged sends with credits > 0
//   retransmit   — first transmission start → last transmission start
//   wire         — QP queueing/pacing + serialization + flight of the final
//                  transmission (dispatch → first tx, last tx → arrival)
//   match_wait   — arrival → matched to a posted receive
//
// The same overhead contract and ownership as the recorder: every ib::Fabric
// owns one profiler, the instrumented layers reach it through their HCA's
// fabric(), and a disabled profiler costs one predictable branch per site.
//
// The `latency.*` metrics are a view of these records (latency_view), so
// the QP's four qp_send stamps are the only per-message latency stamps in
// the simulator; audit_against cross-foots the view against the flight
// recorder's own lifecycle instants.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"
#include "util/stats.hpp"

namespace mvflow::obs {

class FlightRecorder;
struct FlowArrowEvent;

enum class ProfFamily : std::uint8_t { dev_send, qp_send, dev_recv };

inline constexpr std::uint64_t kProfNoSeq = ~0ull;

// ProfRecord::flags bits (set by the instrumented layers).
inline constexpr std::uint8_t kProfBacklogged = 1u << 0;  ///< left via backlog
inline constexpr std::uint8_t kProfOptimistic = 1u << 1;  ///< uncredited famine RTS
inline constexpr std::uint8_t kProfGrantEcm = 1u << 2;    ///< releasing grant was an ECM
inline constexpr std::uint8_t kProfUnexpected = 1u << 3;  ///< matched from unexpected queue
inline constexpr std::uint8_t kProfPayload = 1u << 4;     ///< credited kind (eager/RTS)

/// One checkpoint record. Field meaning varies by family:
///   dev_send: t0 = post, t1 = dispatch; zero_ns = zero-credit overlap of
///             [t0, t1]; grant_seq = inbound (dst→src) sequence of the grant
///             that released it; aux = device tx id (joins qp_send). For
///             backlogged sends t2 = the dispatch *decision* time (the
///             backlog-residency endpoint; it can precede t1 by host-time
///             charges on the famine-conversion path).
///   qp_send:  t0 = WQE posted, t1 = first tx, t2 = last tx, t3 = ACK
///             retired; aux = wr_id (the device tx id); n_retx retransmits.
///   dev_recv: t0 = arrival at handle_inbound, t1 = matched (== t0 for
///             control messages, which have no MPI-level receive).
struct ProfRecord {
  ProfFamily family = ProfFamily::dev_send;
  std::uint8_t msg_kind = 0;  ///< mpi::MsgKind (dev_*) / ib wr opcode (qp_send)
  std::uint8_t flags = 0;
  std::int16_t src = -1;  ///< sending rank of the wire message
  std::int16_t dst = -1;  ///< receiving rank
  std::uint32_t bytes = 0;
  std::uint32_t n_retx = 0;
  std::uint64_t seq = kProfNoSeq;  ///< per-connection wire sequence number
  std::uint64_t aux = 0;           ///< family-specific join key (see above)
  std::uint64_t grant_seq = kProfNoSeq;
  std::int64_t zero_ns = 0;
  sim::TimePoint t0{-1};
  sim::TimePoint t1{-1};
  sim::TimePoint t2{-1};
  sim::TimePoint t3{-1};
};

/// Append-only record buffer, one per fabric. Unlike the recorder's bounded
/// ring, attribution needs every record of every completed message, so the
/// buffer grows geometrically; a profiled run trades memory for exactness
/// by design.
class Profiler {
 public:
  /// The one branch instrumentation sites take when profiling is off.
  bool enabled() const noexcept { return enabled_; }

  void enable();
  void disable() noexcept { enabled_ = false; }

  /// Append one record. Out of line: the enabled() branch at the call site
  /// is the hot-path cost.
  void record(const ProfRecord& r);

  const std::vector<ProfRecord>& records() const noexcept { return records_; }

 private:
  bool enabled_ = false;
  std::vector<ProfRecord> records_;
};

// ------------------------------------------------------- offline analysis --

enum class Segment : std::uint8_t {
  credit_stall,
  ecm_rtt,
  backlog,
  retransmit,
  wire,
  match_wait,
};
inline constexpr std::size_t kSegmentCount = 6;
std::string_view to_string(Segment s);

/// One fully-joined message with its exact six-way latency split.
struct MessageProfile {
  std::int16_t src = -1;
  std::int16_t dst = -1;
  std::uint64_t seq = kProfNoSeq;
  std::uint64_t grant_seq = kProfNoSeq;
  std::uint8_t msg_kind = 0;
  std::uint8_t flags = 0;
  std::uint32_t bytes = 0;
  std::uint32_t n_retx = 0;
  std::int64_t t_post = -1;     // ns; every later stamp likewise
  std::int64_t t_disp = -1;
  std::int64_t t_first_tx = -1;
  std::int64_t t_last_tx = -1;
  std::int64_t t_acked = -1;
  std::int64_t t_recv = -1;
  std::int64_t t_matched = -1;
  std::int64_t seg[kSegmentCount] = {};

  std::int64_t e2e() const noexcept { return t_matched - t_post; }
  std::int64_t attributed() const noexcept {
    std::int64_t s = 0;
    for (std::int64_t v : seg) s += v;
    return s;
  }
  bool operator==(const MessageProfile&) const = default;
};

/// Exact integer-ns totals over a set of messages.
struct SegmentTotals {
  std::int64_t seg[kSegmentCount] = {};
  std::int64_t e2e_ns = 0;
  std::uint64_t messages = 0;

  void add(const MessageProfile& m) noexcept {
    for (std::size_t i = 0; i < kSegmentCount; ++i) seg[i] += m.seg[i];
    e2e_ns += m.e2e();
    ++messages;
  }
  std::int64_t attributed() const noexcept {
    std::int64_t s = 0;
    for (std::int64_t v : seg) s += v;
    return s;
  }
};

struct ConnectionBlame {
  std::int16_t src = -1;
  std::int16_t dst = -1;
  SegmentTotals totals;
};

/// One step of the run's critical path: a segment of one message on the
/// grant-chain walked back from the last completion.
struct CriticalStep {
  std::int16_t src = -1;
  std::int16_t dst = -1;
  std::uint64_t seq = kProfNoSeq;
  Segment segment = Segment::wire;
  std::int64_t ns = 0;
};

struct ProfileAnalysis {
  /// Fully-joined messages in canonical (src, dst, seq) order — the form
  /// whose byte-for-byte identity across repeated runs the attribution
  /// bench asserts.
  std::vector<MessageProfile> messages;
  SegmentTotals payload;  ///< credited kinds (eager data, rendezvous RTS)
  SegmentTotals control;  ///< CTS / FIN / ECM
  std::vector<ConnectionBlame> connections;  ///< payload blame per direction
  std::vector<CriticalStep> critical_path;   ///< root first, last completion last
  std::uint64_t incomplete = 0;  ///< dev_send records lacking a full chain
  bool exact = true;  ///< every message: Σ segments == e2e (invariant)
};

/// Join the record multiset into per-message attributions. Pure function of
/// the records: bit-identical input multisets give bit-identical analyses.
ProfileAnalysis analyze(const std::vector<ProfRecord>& records);

/// Per-message latency breakdown: the value type of the `latency.*` view,
/// derived from the records at snapshot time.
struct LatencyBreakdown {
  util::RunningStats post_to_wire;       ///< WQE post → first byte on wire
  util::RunningStats wire_to_ack;        ///< first transmission → retired
  util::RunningStats backlog_residency;  ///< backlog enter → dispatch
  util::Histogram post_to_wire_hist{0.0, 50'000.0, 50};        // ns
  util::Histogram wire_to_ack_hist{0.0, 200'000.0, 50};        // ns
  util::Histogram backlog_residency_hist{0.0, 2'000'000.0, 50};  // ns

  template <typename Fn>
  void visit(Fn&& f) const {
    emit_visit("post_to_wire", post_to_wire, post_to_wire_hist, f);
    emit_visit("wire_to_ack", wire_to_ack, wire_to_ack_hist, f);
    emit_visit("backlog_residency", backlog_residency, backlog_residency_hist, f);
  }

 private:
  template <typename Fn>
  static void emit_visit(std::string_view name, const util::RunningStats& rs,
                         const util::Histogram& h, Fn& f) {
    const std::string base(name);
    f(base + ".count", static_cast<double>(rs.count()));
    f(base + ".mean_ns", rs.mean());
    f(base + ".min_ns", rs.min());
    f(base + ".max_ns", rs.max());
    f(base + ".p50_ns", h.quantile(0.50));
    f(base + ".p90_ns", h.quantile(0.90));
    f(base + ".p99_ns", h.quantile(0.99));
  }
};

/// The `latency.*` view of a record multiset (DESIGN.md §11):
///   post_to_wire      = qp_send t1 − t0 (WQE posted → first transmission)
///   wire_to_ack       = qp_send t3 − t1 (first transmission → ACK retired)
/// over the first qp_send per (src, device tx id) — a QP recovery replay
/// reuses the id — and
///   backlog_residency = dev_send t2 − t0 over backlogged sends.
LatencyBreakdown latency_view(const std::vector<ProfRecord>& records);

/// Cross-subsystem audit: the profile's latency view must equal the flight
/// recorder's own instants — Σ(msg_on_wire − msg_posted),
/// Σ(msg_acked − msg_on_wire) and Σ(backlog_dispatch − backlog_enter),
/// with their counts. The two books are stamped independently at the same
/// call sites, so they agree only on a drained (fully-ACKed) run that
/// armed both sinks throughout and whose ring never wrapped; a wrapped
/// ring fails the audit.
bool audit_against(const LatencyBreakdown& view, const FlightRecorder& rec);

/// Chrome-trace flow arrows (ph:"s"/"f") for every joined message: the "s"
/// endpoint on the sender's track at dispatch, the "f" endpoint on the
/// receiver's track at arrival. Sorted by timestamp, ready to interleave
/// into FlightRecorder::export_chrome_trace.
std::vector<FlowArrowEvent> flow_events(const ProfileAnalysis& a);

/// Emit run-level blame through a MetricsRegistry source ("prof." prefix):
/// totals, per-segment sums, per-connection and per-link (uplink/downlink)
/// blame, and the exactness verdict.
template <typename EmitFn>
void emit_metrics(const ProfileAnalysis& a, const EmitFn& e);

/// Profile document (schema "mvflow.prof.v1") consumed by mvflow_prof:
/// run totals, per-connection blame, the top messages by end-to-end
/// latency, and the critical path. All times are exact integer ns.
std::string profile_to_json(const ProfileAnalysis& a, std::string_view label);

/// Write the profile to `path`; "-" writes to stdout. Returns false when
/// the file cannot be opened or written, or stdout has failed.
bool write_profile(const std::string& path, const ProfileAnalysis& a,
                   std::string_view label);

// ----------------------------------------------------- template definition --

template <typename EmitFn>
void emit_metrics(const ProfileAnalysis& a, const EmitFn& e) {
  const auto emit_totals = [&e](const std::string& base,
                                const SegmentTotals& t) {
    e(base + "messages", static_cast<double>(t.messages));
    e(base + "e2e_ns", static_cast<double>(t.e2e_ns));
    for (std::size_t i = 0; i < kSegmentCount; ++i) {
      e(base + std::string(to_string(static_cast<Segment>(i))) + "_ns",
        static_cast<double>(t.seg[i]));
    }
  };
  e("exact", a.exact ? 1.0 : 0.0);
  e("incomplete", static_cast<double>(a.incomplete));
  emit_totals("", a.payload);
  emit_totals("control.", a.control);
  for (const ConnectionBlame& c : a.connections) {
    emit_totals("conn.r" + std::to_string(c.src) + "_r" +
                    std::to_string(c.dst) + ".",
                c.totals);
  }
  // Link blame: this fabric is a single-switch crossbar, so a directed
  // connection occupies exactly the sender's uplink and the receiver's
  // downlink — per-link blame is the marginal sum over connections.
  const auto emit_links = [&](bool up) {
    std::vector<std::int16_t> seen;
    for (const ConnectionBlame& c : a.connections) {
      const std::int16_t node = up ? c.src : c.dst;
      bool dup = false;
      for (std::int16_t s : seen) dup = dup || s == node;
      if (dup) continue;
      seen.push_back(node);
      std::int64_t ns = 0;
      for (const ConnectionBlame& o : a.connections) {
        if ((up ? o.src : o.dst) == node) ns += o.totals.e2e_ns;
      }
      e(std::string("link.") + (up ? "up.r" : "down.r") +
            std::to_string(node) + ".e2e_ns",
        static_cast<double>(ns));
    }
  };
  emit_links(true);
  emit_links(false);
}

}  // namespace mvflow::obs
