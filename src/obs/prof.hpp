// Causal critical-path profile (DESIGN.md §16): an offline view of the
// flight recorder's stream.
//
// Where the Chrome trace answers "what happened", the profile answers
// "which stall delayed *this* message". It needs no books of its own: one
// pass over the recorded instants (obs/recorder.hpp) rebuilds each wire
// message's history from the sites that already stamp it —
//
//   device send — wire_post (dispatch; post time, backlog residency and
//                 zero-credit overlap come from the connection's
//                 backlog_enter / backlog_dispatch and credit_consume /
//                 credit_grant / credit_reset instants, replayed in
//                 stream order), joined to its QP lifecycle by
//                 (rank, wr_id);
//   QP lifecycle — msg_posted, msg_on_wire, retransmit and msg_acked of
//                 one WQE; the first acked lifecycle per (rank, wr_id)
//                 counts, so a reconnect replay of the same wr_id does not;
//   device receive — wire_arrive and msg_matched, joined to the send by
//                 (src, dst, per-connection wire sequence).
//
// Every join key is protocol data (the wr_id, the wire sequence), so the
// analysis is a pure function of the stream: a deterministic run records
// the identical stream and yields the identical profile.
//
// Each completed message's end-to-end latency decomposes exactly into six
// disjoint segments (differences of consecutive timeline checkpoints, so
// Σ segments == e2e by construction):
//
//   credit_stall — waiting for a credit, no grant in flight
//   ecm_rtt      — waiting for a credit while the releasing ECM was in flight
//   backlog      — queued behind other backlogged sends with credits > 0
//   retransmit   — first transmission start → last transmission start
//   wire         — QP queueing + serialization + flight of the final
//                  transmission (dispatch → first tx, last tx → arrival)
//   match_wait   — arrival → matched to a posted receive
//
// The `latency.*` metrics are a second view of the same pass
// (latency_view), and audit_against cross-foots both views against books
// the stream does not feed: the flow-control and QP counters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"

namespace mvflow::obs {

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
  std::uint64_t incomplete = 0;  ///< wire posts lacking a full chain
  bool exact = true;  ///< every message: Σ segments == e2e (invariant)
};

/// Replay the stream into per-message attributions. Pure function of the
/// instants: identical streams give bit-identical analyses. `events` must
/// be a whole stream (FlightRecorder::stream()): one missing its oldest
/// instants would attribute against a truncated history.
ProfileAnalysis analyze(std::span<const TraceEvent> events);

/// Per-message latency breakdown: the value type of the `latency.*` view,
/// derived from the stream at snapshot time.
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

/// The `latency.*` view of a stream (DESIGN.md §11), from the same replay
/// as analyze():
///   post_to_wire      = msg_on_wire − msg_posted (first transmission)
///   wire_to_ack       = msg_acked − msg_on_wire (first transmission → ACK)
/// over the first acked QP lifecycle per (rank, wr_id), in msg_acked order
/// — a reconnect replay reuses the wr_id — and
///   backlog_residency = backlog_dispatch − backlog_enter
/// over backlogged sends, in wire_post order.
LatencyBreakdown latency_view(std::span<const TraceEvent> events);

/// Totals from books the stream does not feed, summed over a world: the
/// devices' flowctl::Counters and their QPs' QpStats (live and retired).
struct CounterBooks {
  /// Device wire posts: credited_sent (famine RTSes included) +
  /// control_sent + ecm_sent.
  std::uint64_t wire_msgs = 0;
  std::uint64_t backlog_dispatched = 0;
  /// QpStats::messages_sent: WQEs whose first transmission started.
  std::uint64_t qp_sends = 0;
};

/// Cross-foot the views of one stream against the counters: every device
/// wire post is analyzed (messages + incomplete == wire_msgs), every
/// backlog dispatch has its residency, every QP send its ACK-retired
/// lifecycle, and every message is exact. The books hold on a drained,
/// fault-free run; a reconnect's replays count again in QpStats.
bool audit_against(const ProfileAnalysis& a, const LatencyBreakdown& view,
                   const CounterBooks& books);

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
