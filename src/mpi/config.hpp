// MPI device calibration constants and the device's settings. The
// constants follow the paper's implementation (2 KB pre-pinned buffers,
// pin-down cache for rendezvous); DESIGN.md §4 tabulates them with their
// derivation. DeviceConfig keeps only what an experiment varies.
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpi/protocol.hpp"
#include "sim/time.hpp"

namespace mvflow::mpi {

/// Size of each pre-posted buffer (paper §5: 2 KBytes). The pool holds
/// exactly the credited buffers: optimistic control messages (CTS/FIN/ECM)
/// ride on the RC RNR NAK retry as their backstop, as in the paper.
inline constexpr std::uint32_t kBufferSize = 2048;

// ---- host software costs (simulated time) ----
// Receive-side handling is charged by message class: consuming an eager
// data message (copy, matching, status fill) costs more than a rendezvous
// start (matching only), which costs more than a bare control message
// (header decode). The send post path is cheaper than eager consumption —
// which is why a one-way eager flood slowly outruns its receiver (the
// paper's hardware-scheme failure mode) while a rendezvous control stream
// does not.
/// Per send call.
inline constexpr sim::Duration kSendOverhead = sim::nanoseconds(500);
/// Per irecv.
inline constexpr sim::Duration kRecvPostOverhead = sim::nanoseconds(150);
/// Consuming eager data.
inline constexpr sim::Duration kEagerHandleOverhead = sim::nanoseconds(550);
/// Consuming a rendezvous start.
inline constexpr sim::Duration kRtsHandleOverhead = sim::nanoseconds(300);
/// Consuming a CTS/FIN/ECM.
inline constexpr sim::Duration kCtrlHandleOverhead = sim::nanoseconds(150);
/// Issuing a control message (CTS/FIN/ECM) costs host time too — this is
/// the run-time overhead the paper attributes to explicit credit messages
/// in LU's Figure 9 comparison.
inline constexpr sim::Duration kCtrlSendOverhead = sim::nanoseconds(350);
/// Eager bounce-buffer memcpy rate (PCI-X era host memory).
inline constexpr double kCopyBandwidthBps = 2.4e9;

// ---- memory registration (buffer pinning) ----
inline constexpr sim::Duration kRegBase = sim::microseconds(10);
inline constexpr sim::Duration kRegPerPage = sim::nanoseconds(50);
inline constexpr std::size_t kPageSize = 4096;
/// Pin-down cache (Tezuka et al.; the paper's §3.1 cites it): repeat
/// registrations of the same buffer are free until evicted from this
/// many LRU entries.
inline constexpr std::size_t kRegCacheCapacity = 256;

/// On-demand connection setup handshake cost (three control messages
/// through an out-of-band channel).
inline constexpr sim::Duration kConnectSetup = sim::microseconds(30);

/// Delay between a QP error and the rebuild of the pair under
/// DeviceConfig::auto_reconnect.
inline constexpr sim::Duration kReconnectDelay = sim::microseconds(50);

struct DeviceConfig {
  /// Ride through connection failures: when a QP errors (e.g. transport
  /// retries exhausted during a link flap), rebuild the pair after
  /// kReconnectDelay and replay unacknowledged wire traffic instead of
  /// failing every outstanding request on the endpoint.
  bool auto_reconnect = false;

  /// Test-only fault (chaos campaign --inject-bug): skew the credit count
  /// handed to ConnectionFlow::reconnect_reset by this many credits. A
  /// nonzero value plants exactly the class of reconnect-path accounting
  /// bug the auditor's conservation equation exists to catch. Never set
  /// outside negative tests.
  int debug_skew_reconnect_credit = 0;

  /// Largest payload that fits an eager message.
  static constexpr std::uint32_t eager_max_payload() {
    return kBufferSize - kHeaderBytes;
  }
};

}  // namespace mvflow::mpi
