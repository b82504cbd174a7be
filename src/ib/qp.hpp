// Reliable Connection queue pair.
//
// Implements the requester/responder protocol the flow-control study
// depends on:
//   * messages segment at the path MTU and pipeline onto the wire in order;
//   * the responder consumes posted recv WQEs in FIFO order (channel
//     semantics) and ACKs each completed message, advertising how many
//     recv WQEs remain (end-to-end credit information);
//   * if a send arrives with no recv WQE posted, the whole message is
//     dropped and an RNR NAK returned; the requester rewinds, waits the
//     RNR timer, and replays — subsequent pipelined messages that were
//     already on the wire are dropped as out-of-sequence (wasted
//     bandwidth, exactly the hardware-scheme cost the paper discusses);
//   * RDMA write/read bypass recv WQEs (memory semantics) and are bounds-
//     checked against the responder's registry;
//   * with FabricConfig::transport_timeout set, the requester also runs the
//     ACK-timeout half of the RC state machine: unacked sends are rewound
//     and replayed after the (exponentially backed-off) timeout, the
//     responder NAKs observed sequence gaps so recovery does not have to
//     wait out the timer, and duplicates created by replays are re-ACKed /
//     re-executed rather than wedging the connection. Exhausting
//     transport_retry_limit completes the oldest send with
//     transport_retry_exceeded and errors the QP.
#pragma once

#include <deque>
#include <memory>
#include <optional>

#include "ib/packet.hpp"
#include "ib/types.hpp"
#include "sim/engine.hpp"
#include "util/flat_fifo.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::ib {

class Hca;
class CompletionQueue;

enum class QpState : std::uint8_t { reset, ready, error };

class QueuePair {
 public:
  QueuePair(Hca& hca, QpNumber qpn, std::shared_ptr<CompletionQueue> send_cq,
            std::shared_ptr<CompletionQueue> recv_cq,
            QpType type = QpType::rc);

  QpType type() const noexcept { return type_; }
  QueuePair(const QueuePair&) = delete;
  QueuePair& operator=(const QueuePair&) = delete;

  QpNumber qpn() const noexcept { return qpn_; }
  QpState state() const noexcept { return state_; }
  QpNumber remote_qpn() const noexcept { return remote_qpn_; }
  int remote_node() const noexcept { return remote_node_; }
  bool connected() const noexcept { return state_ == QpState::ready; }

  /// Queue a send-side work request. Requires a connected QP. Local
  /// protection failures complete with an error CQE and error the QP.
  void post_send(const SendWr& wr);

  /// Post a receive buffer (channel semantics destination).
  void post_recv(const RecvWr& wr);

  std::size_t posted_recv_count() const noexcept { return recvq_.size(); }
  std::size_t pending_send_count() const noexcept {
    return pending_tx_.size() + unacked_.size();
  }
  /// True while the in-progress inbound reassembly owns a popped recv WQE
  /// (channel-semantics sends only; an RDMA-write assembly holds none).
  /// One term of the auditor's recv-WQE ledger.
  bool rx_assembly_holds_wqe() const noexcept {
    return rx_cur_.has_value() && rx_cur_->holds_wqe;
  }
  /// Timer-state introspection for the watchdog's wait-for dump.
  bool retx_timer_armed() const noexcept { return retx_armed_; }
  bool rnr_waiting() const noexcept { return rnr_waiting_; }

  /// Force the QP into the error state, flushing all outstanding work
  /// requests (the verbs modify_qp(..., IBV_QPS_ERR) used to quiesce a
  /// connection before tearing it down or rebuilding it).
  void modify_error();

  const QpStats& stats() const noexcept { return stats_; }

  /// Serialize the QP's complete protocol state for the snapshot restore
  /// audit (DESIGN.md §13): connection identity, message sequence windows,
  /// the send pipeline (queued + unacked entries with their MSNs, sizes and
  /// retry budgets), the RNR / ACK-timeout retransmission machinery
  /// (including whether each timer is armed), the responder's receive
  /// window and reassembly cursor, and the per-QP counters.
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  friend class Fabric;
  friend class Hca;

  void set_remote(int node, QpNumber qpn);  // connection setup (Fabric)
  void rx_packet(const Packet& pkt);        // fabric delivery

  struct PendingSend {
    SendWr wr;
    Msn msn = 0;
    MsgRef data;
    std::byte* read_dst = nullptr;  ///< rdma_read landing buffer (mutable)
    int rnr_retries_left = 0;
    bool retransmission = false;
    bool acked = false;
  };

  void pump_tx();
  void transmit_message(PendingSend& ps);
  void send_control(PacketKind kind, Msn msn, std::int64_t credits = -1);
  void complete_send(const PendingSend& ps, WcStatus status, WcOpcode op);
  void handle_ack(const Packet& pkt);
  void retire_acked_();
  void handle_rnr_nak(const Packet& pkt);
  void handle_access_nak(const Packet& pkt);
  void handle_seq_nak(const Packet& pkt);
  void handle_data(const Packet& pkt);
  void handle_read_req(const Packet& pkt);
  void handle_read_resp(const Packet& pkt);
  void responder_accept_send(const Packet& pkt);
  void responder_accept_write(const Packet& pkt);
  void stream_read_response(const Packet& pkt);
  void enter_error();

  // Transport (ACK-timeout) reliability; all no-ops unless
  // FabricConfig::transport_enabled().
  void arm_retx_timer();
  void disarm_retx_timer();
  void handle_transport_timeout();
  void rewind_unacked_from(Msn msn);
  void maybe_send_seq_nak();

  void post_send_ud(const SendWr& wr);
  void rx_packet_ud(const Packet& pkt);

  Hca& hca_;
  QpNumber qpn_;
  QpType type_;
  std::shared_ptr<CompletionQueue> send_cq_;
  std::shared_ptr<CompletionQueue> recv_cq_;
  QpState state_ = QpState::reset;
  int remote_node_ = -1;
  QpNumber remote_qpn_ = 0;

  // Requester side. The send pipeline queues are cursor FIFOs: they cycle
  // once per message, so deque block churn would dominate their cost.
  util::FlatFifo<PendingSend> pending_tx_;  // queued, not yet on the wire
  util::FlatFifo<PendingSend> unacked_;     // on the wire, awaiting ACK
  Msn next_msn_ = 0;
  bool rnr_waiting_ = false;
  /// IBA end-to-end flow control: the responder's last advertised recv-WQE
  /// count (piggybacked on ACKs). < 0 = no information yet (unlimited).
  /// The requester paces channel sends against it, keeping one "probe"
  /// message allowance so stale information cannot deadlock the flow —
  /// a probe that loses the race takes the RNR NAK path.
  std::int64_t advertised_credits_ = -1;
  sim::EventHandle rnr_timer_;
  // ACK-timeout retransmission: the timer covers the oldest unacked send;
  // attempts reset whenever the ACK clock makes forward progress.
  sim::EventHandle retx_timer_;
  bool retx_armed_ = false;
  int retx_attempts_ = 0;
  // RDMA read reassembly (one outstanding read at a time is enough for us,
  // but multiple are supported keyed by msn).
  struct ReadPending {
    SendWr wr;
    std::byte* dst = nullptr;  ///< validated mutable local landing buffer
    std::uint32_t received = 0;
  };
  std::deque<std::pair<Msn, ReadPending>> reads_;

  // Responder side.
  util::FlatFifo<RecvWr> recvq_;
  Msn expected_msn_ = 0;
  Msn dropping_msn_ = static_cast<Msn>(-1);  // message being discarded
  Msn last_seq_nak_msn_ = static_cast<Msn>(-1);  // one NAK per observed gap
  struct RxAssembly {
    Msn msn;
    RecvWr wr;
    std::uint32_t pkts_seen = 0;
    bool holds_wqe = false;  ///< Consumed a recv WQE (send, not RDMA write).
  };
  std::optional<RxAssembly> rx_cur_;

  QpStats stats_;
};

}  // namespace mvflow::ib
