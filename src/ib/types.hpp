// Core verbs-level types: work requests, completions, access flags.
//
// These mirror the InfiniBand Verbs surface the paper's MPI sits on
// (post_send / post_recv / poll_cq, channel and memory semantics), reduced
// to what an RC-service MPI actually touches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace mvflow::ib {

using QpNumber = std::uint32_t;
using Msn = std::uint64_t;  ///< Message sequence number within a QP.

/// Memory-region access rights (combinable).
enum class Access : std::uint32_t {
  none = 0,
  local_read = 1u << 0,
  local_write = 1u << 1,
  remote_read = 1u << 2,
  remote_write = 1u << 3,
};

constexpr Access operator|(Access a, Access b) {
  return static_cast<Access>(static_cast<std::uint32_t>(a) |
                             static_cast<std::uint32_t>(b));
}
constexpr bool has_access(Access set, Access bit) {
  return (static_cast<std::uint32_t>(set) & static_cast<std::uint32_t>(bit)) != 0;
}

/// Handle to a registered memory region.
struct MemoryRegionHandle {
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
  bool valid() const { return lkey != 0; }
};

enum class WrOpcode : std::uint8_t { send, rdma_write };

/// Work request posted to a send queue. Channel semantics (send) describe
/// only the source; memory semantics (rdma_write) also name the remote side.
struct SendWr {
  std::uint64_t wr_id = 0;
  WrOpcode opcode = WrOpcode::send;
  const std::byte* local_addr = nullptr;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
  // RDMA only:
  std::byte* remote_addr = nullptr;
  std::uint32_t rkey = 0;
  bool signaled = true;  ///< Generate a CQE on completion.
};

/// Work request posted to a receive queue (channel semantics destination).
struct RecvWr {
  std::uint64_t wr_id = 0;
  std::byte* local_addr = nullptr;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

enum class WcStatus : std::uint8_t {
  success,
  local_protection_error,   ///< lkey/bounds check failed at this HCA
  remote_access_error,      ///< rkey/bounds check failed at the responder
  transport_retry_exceeded, ///< ACK-timeout retransmissions exhausted
  length_error,             ///< inbound message larger than the posted buffer
  flushed,                  ///< QP entered error state; WR flushed
};

enum class WcOpcode : std::uint8_t { send, recv, rdma_write };

/// Work completion reported through a CQ.
struct Completion {
  std::uint64_t wr_id = 0;
  WcStatus status = WcStatus::success;
  WcOpcode opcode = WcOpcode::send;
  std::uint32_t byte_len = 0;
  QpNumber qp_num = 0;      ///< Local QP this completion belongs to.
  QpNumber src_qp = 0;      ///< Remote QP (recv completions).
  bool ok() const { return status == WcStatus::success; }
};

/// Per-QP protocol statistics; drives the hardware-scheme analysis
/// (RNR storms, retransmitted bytes) in the benchmarks.
struct QpStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t rnr_naks_received = 0;  ///< As requester.
  std::uint64_t rnr_naks_sent = 0;      ///< As responder (no buffer posted).
  std::uint64_t retransmitted_messages = 0;
  std::uint64_t retransmitted_bytes = 0;
  std::uint64_t packets_dropped = 0;    ///< Out-of-sequence / no-buffer drops.
  std::uint64_t transport_retries = 0;  ///< ACK-timeout firings that replayed.
  std::uint64_t seq_naks_sent = 0;      ///< As responder (sequence gap seen).
  std::uint64_t seq_naks_received = 0;  ///< As requester.
  std::uint64_t corrupt_packets_received = 0;  ///< CRC-failed arrivals dropped.
  // Receive-WQE ledger (obs/audit.hpp, DESIGN.md §15). Every WQE posted to
  // the receive queue must end exactly one way: still queued, consumed by
  // the in-progress inbound message, completed through the CQ, or flushed
  // by an error transition. The auditor checks
  //   posted == queue depth + (assembly holds one) + completed + flushed.
  std::uint64_t recv_wqes_posted = 0;
  std::uint64_t recv_wqes_completed = 0;  ///< CQEs produced (any status).
  std::uint64_t recv_wqes_flushed = 0;    ///< Discarded by enter_error.
  std::int64_t last_advertised_credits = -1;  ///< From the newest ACK.

  void accumulate(const QpStats& o) {
    messages_sent += o.messages_sent;
    bytes_sent += o.bytes_sent;
    packets_sent += o.packets_sent;
    messages_received += o.messages_received;
    rnr_naks_received += o.rnr_naks_received;
    rnr_naks_sent += o.rnr_naks_sent;
    retransmitted_messages += o.retransmitted_messages;
    retransmitted_bytes += o.retransmitted_bytes;
    packets_dropped += o.packets_dropped;
    transport_retries += o.transport_retries;
    seq_naks_sent += o.seq_naks_sent;
    seq_naks_received += o.seq_naks_received;
    corrupt_packets_received += o.corrupt_packets_received;
    recv_wqes_posted += o.recv_wqes_posted;
    recv_wqes_completed += o.recv_wqes_completed;
    recv_wqes_flushed += o.recv_wqes_flushed;
  }

  /// Enumerate every counter as (name, value) for a metrics sink.
  template <typename Fn>
  void visit(Fn&& f) const {
    f("messages_sent", static_cast<double>(messages_sent));
    f("bytes_sent", static_cast<double>(bytes_sent));
    f("packets_sent", static_cast<double>(packets_sent));
    f("messages_received", static_cast<double>(messages_received));
    f("rnr_naks_received", static_cast<double>(rnr_naks_received));
    f("rnr_naks_sent", static_cast<double>(rnr_naks_sent));
    f("retransmitted_messages", static_cast<double>(retransmitted_messages));
    f("retransmitted_bytes", static_cast<double>(retransmitted_bytes));
    f("packets_dropped", static_cast<double>(packets_dropped));
    f("transport_retries", static_cast<double>(transport_retries));
    f("seq_naks_sent", static_cast<double>(seq_naks_sent));
    f("seq_naks_received", static_cast<double>(seq_naks_received));
    f("corrupt_packets_received",
      static_cast<double>(corrupt_packets_received));
    f("recv_wqes_posted", static_cast<double>(recv_wqes_posted));
    f("recv_wqes_completed", static_cast<double>(recv_wqes_completed));
    f("recv_wqes_flushed", static_cast<double>(recv_wqes_flushed));
    f("last_advertised_credits",
      static_cast<double>(last_advertised_credits));
  }
};

}  // namespace mvflow::ib
