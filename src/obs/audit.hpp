// Invariant auditor (DESIGN.md §15): credit conservation, buffer
// accounting, backlog books and delivery-window checks, evaluated over
// flattened per-connection rows the MPI layer assembles (World::audit_pair).
//
// The *ledger* counters feeding these checks are maintained
// unconditionally — single integer adds on hot paths — so arming the
// auditor (MVFLOW_AUDIT=1) changes when checks run, never what the
// protocol computes. A failed check throws AuditError naming the
// connection, the section that failed, and the full counter row, so a
// chaos-campaign violation pinpoints the event that introduced it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace mvflow::obs {

/// Structured invariant violation: which check, which connection, and a
/// detail string carrying the counter deltas that broke it.
class AuditError : public std::runtime_error {
 public:
  AuditError(std::string section, int src, int dst, const std::string& detail);
  const std::string& section() const noexcept { return section_; }
  int src() const noexcept { return src_; }
  int dst() const noexcept { return dst_; }

 private:
  std::string section_;
  int src_ = -1;
  int dst_ = -1;
};

/// One direction of a connection (sender src → receiver dst), flattened.
/// Per DESIGN.md §15 the conservation equation reads:
///
///   credits + [consumed − delivered] + pending_return
///           + [granted − received]  == posted
///
/// with both bracketed in-flight terms >= 0. Callers skip the hardware
/// scheme (its MPI-level ledger is deliberately all-zero) and directions
/// whose endpoints are failed or mid-reconnect.
struct ConnCredit {
  int src = -1;
  int dst = -1;
  std::string scheme;                 ///< For the violation message.
  std::int64_t credits = 0;           ///< Sender's live credit count.
  std::uint64_t consumed = 0;         ///< Sender: credits spent on sends.
  std::uint64_t received = 0;         ///< Sender: credits learned from dst.
  std::int64_t pending_return = 0;    ///< Receiver: accumulated, not yet sent.
  std::uint64_t delivered = 0;        ///< Receiver: credited buffers processed.
  std::uint64_t granted = 0;          ///< Receiver: credits handed to the wire.
  std::int64_t posted = 0;            ///< Receiver's credited pool size.
};
void audit_credit_conservation(const ConnCredit& c);

/// Backlog liveness books for one sender: every send that entered the
/// backlog either dispatched, failed with the connection, or is still
/// queued. A leak here is the optimistic-famine bug class.
struct BacklogBooks {
  int src = -1;
  int dst = -1;
  std::uint64_t entered = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t failed = 0;
  std::size_t depth = 0;
};
void audit_backlog_books(const BacklogBooks& b);

/// Delivery window for one direction: the receiver must never apply a
/// sequence number the sender has not issued (duplicate filtering keeps
/// rx monotonic; rx > tx means an out-of-window / phantom delivery).
struct DeliveryWindow {
  int src = -1;
  int dst = -1;
  std::uint64_t tx_seq = 0;  ///< Sender: next seq to stamp.
  std::uint64_t rx_seq = 0;  ///< Receiver: next seq expected.
};
void audit_delivery_window(const DeliveryWindow& d);

/// Buffer accounting for one endpoint (owner's pool toward peer):
///   slots == current_posted                                 (pool shape)
///   wqes_posted == recvq_depth + holds + completed + flushed (QP ledger)
/// The first catches a pre-posted buffer leaked or double-consumed across
/// growth / retransmit / reconnect; the second catches the QP losing or
/// duplicating a recv WQE. Callers skip endpoints mid-reconnect (the
/// fresh QP's ledger restarts at zero while the pool carries over).
struct EndpointBuffers {
  int owner = -1;
  int peer = -1;
  std::size_t slots = 0;
  std::int64_t current_posted = 0;
  std::uint64_t wqes_posted = 0;
  std::uint64_t wqes_completed = 0;
  std::uint64_t wqes_flushed = 0;
  std::size_t recvq_depth = 0;
  bool assembly_holds_wqe = false;
};
void audit_buffer_accounting(const EndpointBuffers& e);

}  // namespace mvflow::obs
