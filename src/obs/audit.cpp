#include "obs/audit.hpp"

#include <sstream>

namespace mvflow::obs {

namespace {

std::string compose(const std::string& section, int src, int dst,
                    const std::string& detail) {
  std::ostringstream os;
  os << "audit violation [" << section << "] connection " << src << "->" << dst
     << ": " << detail;
  return os.str();
}

}  // namespace

AuditError::AuditError(std::string section, int src, int dst,
                       const std::string& detail)
    : std::runtime_error(compose(section, src, dst, detail)),
      section_(std::move(section)),
      src_(src),
      dst_(dst) {}

void audit_credit_conservation(const ConnCredit& c) {
  const auto fail = [&](const std::string& what) {
    std::ostringstream os;
    os << what << " (scheme=" << c.scheme << " credits=" << c.credits
       << " consumed=" << c.consumed << " delivered=" << c.delivered
       << " pending_return=" << c.pending_return << " granted=" << c.granted
       << " received=" << c.received << " posted=" << c.posted << ")";
    throw AuditError("credit-conservation", c.src, c.dst, os.str());
  };
  if (c.credits < 0) fail("negative credit count");
  if (c.pending_return < 0) fail("negative pending-return accumulator");
  if (c.consumed < c.delivered)
    fail("receiver delivered more credited messages than sender consumed");
  if (c.granted < c.received)
    fail("sender received more credits than receiver granted");
  const std::int64_t in_flight_msgs =
      static_cast<std::int64_t>(c.consumed - c.delivered);
  const std::int64_t in_flight_credits =
      static_cast<std::int64_t>(c.granted - c.received);
  const std::int64_t lhs =
      c.credits + in_flight_msgs + c.pending_return + in_flight_credits;
  if (lhs != c.posted) {
    std::ostringstream os;
    os << "conservation equation broken: credits(" << c.credits
       << ") + in_flight_msgs(" << in_flight_msgs << ") + pending_return("
       << c.pending_return << ") + in_flight_credits(" << in_flight_credits
       << ") = " << lhs << " != posted(" << c.posted << ")";
    fail(os.str());
  }
}

void audit_backlog_books(const BacklogBooks& b) {
  const std::uint64_t accounted =
      b.dispatched + b.failed + static_cast<std::uint64_t>(b.depth);
  if (b.entered != accounted) {
    std::ostringstream os;
    os << "backlog books unbalanced: entered(" << b.entered
       << ") != dispatched(" << b.dispatched << ") + failed(" << b.failed
       << ") + depth(" << b.depth << ") = " << accounted;
    throw AuditError("backlog-books", b.src, b.dst, os.str());
  }
}

void audit_delivery_window(const DeliveryWindow& d) {
  if (d.rx_seq > d.tx_seq) {
    std::ostringstream os;
    os << "receiver ahead of sender: rx_seq(" << d.rx_seq << ") > tx_seq("
       << d.tx_seq << ") — duplicate or out-of-window delivery";
    throw AuditError("delivery-window", d.src, d.dst, os.str());
  }
}

void audit_buffer_accounting(const EndpointBuffers& e) {
  const auto fail = [&](const std::string& what) {
    std::ostringstream os;
    os << what << " (slots=" << e.slots << " current_posted=" << e.current_posted
       << " wqes_posted=" << e.wqes_posted
       << " recvq_depth=" << e.recvq_depth << " assembly_holds="
       << (e.assembly_holds_wqe ? 1 : 0) << " completed=" << e.wqes_completed
       << " flushed=" << e.wqes_flushed << ")";
    throw AuditError("buffer-accounting", e.owner, e.peer, os.str());
  };
  if (static_cast<std::int64_t>(e.slots) != e.current_posted) {
    std::ostringstream os;
    os << "receive pool shape broken: slots = " << e.slots
       << " != current_posted = " << e.current_posted;
    fail(os.str());
  }
  const std::uint64_t accounted = static_cast<std::uint64_t>(e.recvq_depth) +
                                  (e.assembly_holds_wqe ? 1u : 0u) +
                                  e.wqes_completed + e.wqes_flushed;
  if (e.wqes_posted != accounted) {
    std::ostringstream os;
    os << "recv WQE ledger unbalanced: posted(" << e.wqes_posted
       << ") != queued(" << e.recvq_depth << ") + holds("
       << (e.assembly_holds_wqe ? 1 : 0) << ") + completed("
       << e.wqes_completed << ") + flushed(" << e.wqes_flushed
       << ") = " << accounted;
    fail(os.str());
  }
}

}  // namespace mvflow::obs
