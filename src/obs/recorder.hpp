// Sim-time flight recorder (DESIGN.md §11).
//
// A bounded ring buffer of compact 32-byte trace events covering the
// flow-control lifecycle the paper argues about: message posted → segmented
// → on-wire → delivered → ACKed, credit grant/consume, backlog
// enter/dispatch, ECM sent, RNR NAK, retransmit, QP error. Events are
// stamped with engine (simulated) time by the call site and exported as
// Chrome `trace_event` JSON — one process track per rank/node, one thread
// track per QP, viewable in Perfetto or chrome://tracing — plus a CSV
// time-series of credit count and backlog depth per connection. The ring
// keeps instants only: the `latency.*` breakdown is a view of the causal
// profile (obs/prof.hpp), which audit_against cross-foots against these
// instants.
//
// Overhead contract: the recorder is OFF by default and a disabled
// recorder costs exactly one predictable branch at each instrumentation
// site (`if (rec.enabled()) ...` around an out-of-line record()). Nothing
// allocates while recording — the ring is sized at enable() time and
// overwrites its oldest events at capacity (`dropped()` counts evictions).
//
// Ownership: every ib::Fabric owns one recorder (mpi::World forwards
// World::recorder() to its fabric's), and the instrumented layers reach it
// through the object graph — a QP or device asks its HCA's fabric() — so
// concurrent worlds record into their own rings with no binding and no
// shared state. Tests may also instantiate private FlightRecorders and
// drive record() directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
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
};
inline constexpr std::size_t kEvKinds = 13;

std::string_view to_string(Ev e);

struct TraceEvent {
  sim::TimePoint t{0};
  std::uint64_t a = 0;  ///< kind-specific, see Ev
  std::int64_t b = 0;   ///< kind-specific, see Ev
  std::uint32_t qpn = 0;
  std::int16_t rank = -1;  ///< originating rank/node
  std::int16_t peer = -1;  ///< remote rank/node (-1 when not applicable)
  Ev kind = Ev::msg_posted;
};

/// One endpoint of a Chrome-trace flow arrow (ph:"s" start on the sender's
/// track, ph:"f" finish on the receiver's). Produced by the causal profiler
/// (obs/prof.hpp) and interleaved into export_chrome_trace by timestamp.
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
  static constexpr std::size_t kDefaultCapacity = 1u << 20;

  /// The one branch instrumentation sites take when tracing is off.
  bool enabled() const noexcept { return enabled_; }

  /// Size (or resize) the ring and start recording. Clears prior events.
  void enable(std::size_t capacity = kDefaultCapacity);
  /// Stop recording; the captured events stay exportable.
  void disable() noexcept { enabled_ = false; }

  /// Append one event (overwrites the oldest at capacity). Out-of-line on
  /// purpose: the enabled() branch at the call site is the hot-path cost.
  void record(sim::TimePoint t, Ev kind, int rank, int peer, std::uint32_t qpn,
              std::uint64_t a, std::int64_t b) noexcept;

  std::size_t size() const noexcept;
  std::size_t capacity() const noexcept { return ring_.size(); }
  /// Events evicted by the ring wrapping.
  std::uint64_t dropped() const noexcept;
  /// Total record() calls since enable(), per kind and overall —
  /// counted even for events the ring later overwrote.
  std::uint64_t recorded() const noexcept { return recorded_; }
  std::uint64_t count(Ev kind) const noexcept {
    return kind_counts_[static_cast<std::size_t>(kind)];
  }

  /// Copy of the retained events, oldest first.
  std::vector<TraceEvent> events() const;

  /// Chrome trace_event JSON ({"traceEvents": [...]}) with rank process
  /// tracks, QP thread tracks, instant events for every kind, and counter
  /// tracks for credits / backlog depth per connection. The overload taking
  /// `flows` interleaves the profiler's sender→receiver flow arrows by
  /// timestamp (ph:"s"/"f"); `flows` must be time-sorted. A `path` of "-"
  /// writes to stdout.
  void export_chrome_trace(std::ostream& os) const;
  void export_chrome_trace(std::ostream& os,
                           const std::vector<FlowArrowEvent>& flows) const;
  bool export_chrome_trace(const std::string& path) const;
  bool export_chrome_trace(const std::string& path,
                           const std::vector<FlowArrowEvent>& flows) const;

  /// CSV time-series: time_ns,rank,peer,event,credits,backlog_depth —
  /// one row per credit/backlog event, carrying the last-known value of
  /// the other column for that connection. Free-text fields go through
  /// csv_escape, so labels containing the separator round-trip. A `path`
  /// of "-" writes to stdout.
  void export_credit_csv(std::ostream& os) const;
  bool export_credit_csv(const std::string& path) const;

  /// Serialize the recorder for the snapshot restore audit: configuration,
  /// per-kind counts and the retained ring (oldest first).
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  bool enabled_ = false;
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;        ///< next write position
  std::uint64_t recorded_ = 0;  ///< total record() calls
  std::uint64_t kind_counts_[kEvKinds] = {};
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
