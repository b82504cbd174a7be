// Sim-time flight recorder (DESIGN.md §11): the simulator's one
// instrumentation stream.
//
// Instrumented sites in the ib and mpi layers append compact 48-byte
// instants covering the flow-control lifecycle the paper argues about:
// message posted → segmented → on-wire → delivered → ACKed, credit
// grant/consume/reset, backlog enter/dispatch, ECM sent, RNR NAK,
// retransmit, QP error, and the device's wire post, wire arrival and
// receive match. Events are stamped with engine (simulated) time by the
// call site. Every export is a view of the stream: the Chrome
// `trace_event` JSON (one process track per rank/node, one thread track
// per QP, viewable in Perfetto or chrome://tracing), a CSV time-series of
// credit count and backlog depth per connection, and — computed offline
// from the same instants — the causal profile and the `latency.*` metrics
// (obs/prof.hpp).
//
// One mode: enable() starts an append-only stream that keeps every
// instant, 48 bytes each, with nothing allocated up front. Every view —
// the trace, the CSV, the profile and `latency.*` — reads that stream, so
// every armed run yields all of them.
//
// Overhead contract: the recorder is OFF by default and a disabled
// recorder costs exactly one predictable branch at each instrumentation
// site (`if (rec.enabled()) ...` around out-of-line record() calls).
//
// Ownership: every ib::Fabric owns one recorder (mpi::World forwards
// World::recorder() to its fabric's), and the instrumented layers reach it
// through the object graph — a QP or device asks its HCA's fabric() — so
// concurrent worlds record into their own streams with no binding and no
// shared state. Tests may also instantiate private FlightRecorders and
// drive record() directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::obs {

enum class Ev : std::uint8_t {
  msg_posted,        ///< WQE accepted by the QP; a = msn, b = bytes
  msg_segmented,     ///< multi-packet message; a = msn, b = packet count
  msg_on_wire,       ///< first transmission started; a = msn, b = bytes
  msg_acked,         ///< requester retired the send;  a = msn, b = bytes
  msg_delivered,     ///< responder completed arrival; a = msn, b = bytes
  credit_grant,      ///< credits learned from peer;   a = granted, b = credits now
  credit_consume,    ///< credit spent on a send;      a = 1, b = credits now
  backlog_enter,     ///< send queued, no credit;      a = depth now, b = credits
  backlog_dispatch,  ///< backlogged send released;    a = depth now, b = credits
  ecm_sent,          ///< explicit credit message;     a = credits carried
  rnr_nak,           ///< responder had no buffer;     a = msn
  retransmit,        ///< message re-entered the wire; a = msn, b = bytes
  qp_error,          ///< QP entered the error state
  wire_post,         ///< device posted a wire message; a = wr_id, b = payload bytes
  wire_arrive,       ///< wire message reached the device; b = payload bytes
  msg_matched,       ///< credited message met its receive; b = payload bytes
  credit_reset,      ///< reconnect restarted credits;  a = credited replays, b = credits now
};

// Join keys (TraceEvent::key). The QP lifecycle instants (msg_posted,
// msg_segmented, msg_on_wire, retransmit, msg_acked) carry the WQE's
// wr_id — the device's tx id, which wire_post carries in `a`. The device
// instants wire_post, wire_arrive and msg_matched carry the message's
// per-connection wire sequence, and credit_grant the inbound sequence of
// the message that carried the credits.
//
// TraceEvent::flags of wire_post / wire_arrive / msg_matched: the
// mpi::MsgKind above kMsgKindShift, and the flag bits below it. The
// profile's MessageProfile::flags reuse the same bits.
inline constexpr std::uint8_t kProfBacklogged = 1u << 0;  ///< left via backlog
inline constexpr std::uint8_t kProfOptimistic = 1u << 1;  ///< uncredited famine RTS
inline constexpr std::uint8_t kProfGrantEcm = 1u << 2;    ///< the grant was an ECM (also on credit_grant)
inline constexpr std::uint8_t kProfUnexpected = 1u << 3;  ///< matched from unexpected queue
inline constexpr std::uint8_t kProfPayload = 1u << 4;     ///< credited kind (eager/RTS)
inline constexpr int kMsgKindShift = 5;
inline constexpr std::uint64_t kProfNoSeq = ~0ull;

std::string_view to_string(Ev e);

struct TraceEvent {
  sim::TimePoint t{0};
  std::uint64_t a = 0;    ///< kind-specific, see Ev
  std::int64_t b = 0;     ///< kind-specific, see Ev
  std::uint64_t key = 0;  ///< join key: wr_id or wire sequence (see above)
  std::uint32_t qpn = 0;
  std::int16_t rank = -1;  ///< originating rank/node
  std::int16_t peer = -1;  ///< remote rank/node (-1 when not applicable)
  Ev kind = Ev::msg_posted;
  std::uint8_t flags = 0;  ///< message kind and flag bits (see above)
};
static_assert(sizeof(TraceEvent) == 48, "TraceEvent is the stream's unit");

/// One endpoint of a Chrome-trace flow arrow (ph:"s" start on the sender's
/// track, ph:"f" finish on the receiver's). Derived from the profile
/// (obs::flow_events) and interleaved into export_chrome_trace by
/// timestamp.
struct FlowArrowEvent {
  sim::TimePoint t{0};
  std::int16_t rank = -1;
  std::uint64_t id = 0;  ///< binds the s/f pair; unique per wire message
  bool begin = true;     ///< true = "s" (sender), false = "f" (receiver)
};

/// Escape one CSV field: fields containing the separator, a double quote,
/// or a line break are quoted with embedded quotes doubled (RFC 4180);
/// plain fields pass through byte-identical.
std::string csv_escape(std::string_view field);

class FlightRecorder {
 public:
  /// The one branch instrumentation sites take when recording is off.
  bool enabled() const noexcept { return enabled_; }

  /// Start recording: clears prior instants.
  void enable();

  /// Append one instant. Out-of-line on purpose: the enabled() branch at
  /// the call site is the hot-path cost.
  void record(sim::TimePoint t, Ev kind, int rank, int peer, std::uint32_t qpn,
              std::uint64_t a, std::int64_t b, std::uint64_t key = 0,
              std::uint8_t flags = 0);

  std::size_t size() const noexcept { return events_.size(); }
  /// Instants of one kind since enable(): a fold of the stream.
  std::uint64_t count(Ev kind) const noexcept {
    return static_cast<std::uint64_t>(
        std::count_if(events_.begin(), events_.end(),
                      [kind](const TraceEvent& e) { return e.kind == kind; }));
  }

  /// Every instant since enable(), in record order, for the views
  /// (obs/prof.hpp); empty while disarmed.
  std::span<const TraceEvent> stream() const noexcept { return events_; }

  /// Chrome trace_event JSON ({"traceEvents": [...]}) with rank process
  /// tracks, QP thread tracks, instant events for every kind, and counter
  /// tracks for credits / backlog depth per connection. Non-empty `flows`
  /// interleave the profile's sender→receiver flow arrows by timestamp
  /// (ph:"s"/"f"); `flows` must be time-sorted.
  std::string chrome_trace(const std::vector<FlowArrowEvent>& flows = {}) const;

  /// CSV time-series: time_ns,rank,peer,event,credits,backlog_depth —
  /// one row per credit/backlog event, carrying the last-known value of
  /// the other column for that connection. Free-text fields go through
  /// csv_escape, so labels containing the separator round-trip.
  std::string credit_csv() const;

  /// Write chrome_trace(flows) / credit_csv() with json::write_file: a
  /// `path` of "-" writes to stdout, and false means the file could not be
  /// written in full.
  bool export_chrome_trace(const std::string& path,
                           const std::vector<FlowArrowEvent>& flows = {}) const;
  bool export_credit_csv(const std::string& path) const;

  /// Serialize the recorder for the snapshot restore audit: whether it is
  /// armed, and its instants.
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> events_;
};

/// Inert: binds nothing. Instrumentation reaches its recorder through the
/// ib::Fabric that owns it, so there is no thread-local binding left to
/// make. The type survives only because perfbench's verbs_ring cell still
/// constructs one; ROADMAP's "For the next benchmark change" entry deletes
/// that use and then this shim.
class RecorderBinding {
 public:
  explicit RecorderBinding(FlightRecorder*) noexcept {}
  ~RecorderBinding() {}  // user-provided: an unused binding stays warning-free
  RecorderBinding(const RecorderBinding&) = delete;
  RecorderBinding& operator=(const RecorderBinding&) = delete;
};

}  // namespace mvflow::obs
