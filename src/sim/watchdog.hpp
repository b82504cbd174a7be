// Progress watchdog (DESIGN.md §15): a sim-time monitor that fires when a
// connection holds nonzero backlog but records no progress — no credited
// send, no ECM, no transport retransmit — for a configurable horizon.
//
// The watchdog itself is engine-agnostic bookkeeping: callers feed it
// (connection, backlog depth, progress counter) samples at whatever cadence
// suits them (World uses a self-rescheduling poll event) and it answers
// "has any connection been stuck a full horizon?". Diagnosis — the
// wait-for dump, the flight-recorder flush, the optional checkpoint
// capture — is the caller's job (World), because only the caller can see
// the protocol state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace mvflow::sim {

/// Raised (by the caller) when a stall is diagnosed: names the stuck
/// connection and carries the wait-for summary in the message.
class WatchdogError : public std::runtime_error {
 public:
  WatchdogError(int src, int dst, const std::string& detail);
  int src() const noexcept { return src_; }
  int dst() const noexcept { return dst_; }

 private:
  int src_ = -1;
  int dst_ = -1;
};

/// One observation of a connection: its backlog depth and a monotonic
/// progress counter (credited sends + ECMs + retransmits). Any movement of
/// either value counts as progress and re-arms the horizon.
struct WatchdogSample {
  int src = -1;
  int dst = -1;
  std::size_t backlog = 0;
  std::uint64_t progress = 0;
};

/// A detected stall: the connection, its frozen sample, and how long it
/// has been frozen (>= the horizon by construction).
struct WatchdogStall {
  int src = -1;
  int dst = -1;
  std::size_t backlog = 0;
  std::uint64_t progress = 0;
  TimePoint since{0};     ///< Sim time of the last observed change.
  Duration stalled_for{0};
};

class Watchdog {
 public:
  explicit Watchdog(Duration horizon) : horizon_(horizon) {}

  Duration horizon() const noexcept { return horizon_; }

  /// Feed one round of samples at sim time `now`. Returns the first
  /// connection (in sample order) whose backlog has been nonzero with an
  /// unchanged progress counter for at least the horizon, or nullopt.
  /// Connections absent from a round keep their recorded state (a failed
  /// endpoint the caller stops sampling simply stops aging).
  std::optional<WatchdogStall> observe(
      TimePoint now, const std::vector<WatchdogSample>& samples);

 private:
  struct State {
    std::size_t backlog = 0;
    std::uint64_t progress = 0;
    TimePoint since{0};
  };
  Duration horizon_;
  std::map<std::pair<int, int>, State> state_;
};

}  // namespace mvflow::sim
