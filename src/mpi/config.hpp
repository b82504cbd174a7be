// MPI device configuration: buffer pool geometry, host-side overheads, and
// protocol policy knobs. Defaults follow the paper's implementation
// (2 KB pre-pinned buffers, pin-down cache for rendezvous).
#pragma once

#include <cstddef>
#include <cstdint>

#include "mpi/protocol.hpp"
#include "sim/time.hpp"

namespace mvflow::mpi {

struct DeviceConfig {
  /// Size of each pre-posted buffer (paper §5: 2 KBytes). The pool holds
  /// exactly the credited buffers: optimistic control messages (CTS/FIN/
  /// ECM) ride on the RC RNR NAK retry as their backstop, as in the paper.
  std::uint32_t buffer_size = 2048;

  // ---- host software costs (simulated time) ----
  // Receive-side handling is charged by message class: consuming an eager
  // data message (copy, matching, status fill) costs more than a
  // rendezvous start (matching only), which costs more than a bare control
  // message (header decode). The send post path is cheaper than eager
  // consumption — which is why a one-way eager flood slowly outruns its
  // receiver (the paper's hardware-scheme failure mode) while a rendezvous
  // control stream does not.
  sim::Duration send_overhead = sim::nanoseconds(500);        ///< Per send call.
  sim::Duration recv_post_overhead = sim::nanoseconds(150);   ///< Per irecv.
  sim::Duration eager_handle_overhead = sim::nanoseconds(550);///< Eager data.
  sim::Duration rts_handle_overhead = sim::nanoseconds(300);  ///< Rendezvous start.
  sim::Duration ctrl_handle_overhead = sim::nanoseconds(150); ///< CTS/FIN/ECM.
  /// Issuing a control message (CTS/FIN/ECM) costs host time too — this is
  /// the run-time overhead the paper attributes to explicit credit
  /// messages in LU's Figure 9 comparison.
  sim::Duration ctrl_send_overhead = sim::nanoseconds(350);
  double copy_bandwidth_bps = 2.4e9;  ///< Eager bounce-buffer memcpy rate.

  // ---- memory registration (buffer pinning) ----
  sim::Duration reg_base = sim::microseconds(10);
  sim::Duration reg_per_page = sim::nanoseconds(50);
  std::size_t page_size = 4096;
  /// Pin-down cache (Tezuka et al.; the paper's §3.1 cites it): repeat
  /// registrations of the same buffer are free until evicted.
  bool reg_cache = true;
  std::size_t reg_cache_capacity = 256;

  /// On-demand connection setup handshake cost (three control messages
  /// through an out-of-band channel).
  sim::Duration connect_setup = sim::microseconds(30);

  /// Ride through connection failures: when a QP errors (e.g. transport
  /// retries exhausted during a link flap), rebuild the pair after
  /// reconnect_delay and replay unacknowledged wire traffic instead of
  /// failing every outstanding request on the endpoint.
  bool auto_reconnect = false;
  sim::Duration reconnect_delay = sim::microseconds(50);

  /// Test-only fault (chaos campaign --inject-bug): skew the credit count
  /// handed to ConnectionFlow::reconnect_reset by this many credits. A
  /// nonzero value plants exactly the class of reconnect-path accounting
  /// bug the auditor's conservation equation exists to catch. Never set
  /// outside negative tests.
  int debug_skew_reconnect_credit = 0;

  /// Largest payload that fits an eager message.
  std::uint32_t eager_max_payload() const { return buffer_size - kHeaderBytes; }
};

}  // namespace mvflow::mpi
