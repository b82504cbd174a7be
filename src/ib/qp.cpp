#include "ib/qp.hpp"

#include <algorithm>
#include <cstring>

#include "ib/cq.hpp"
#include "ib/fabric.hpp"
#include "ib/hca.hpp"
#include "obs/recorder.hpp"
#include "util/check.hpp"
#include "util/serial.hpp"

namespace mvflow::ib {

namespace {

/// Number of MTU-sized packets a message of `len` bytes occupies (at least
/// one even for zero-length messages).
std::uint32_t packet_count(std::uint32_t len, std::uint32_t mtu) {
  if (len == 0) return 1;
  return (len + mtu - 1) / mtu;
}

}  // namespace

QueuePair::QueuePair(Hca& hca, QpNumber qpn,
                     std::shared_ptr<CompletionQueue> send_cq,
                     std::shared_ptr<CompletionQueue> recv_cq, QpType type)
    : hca_(hca), qpn_(qpn), type_(type), send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)) {
  util::require(send_cq_ && recv_cq_, "QP needs send and recv CQs");
  // UD queue pairs are connectionless and usable immediately.
  if (type_ == QpType::ud) state_ = QpState::ready;
}

void QueuePair::set_remote(int node, QpNumber qpn) {
  util::check(state_ == QpState::reset, "QP already connected");
  remote_node_ = node;
  remote_qpn_ = qpn;
  state_ = QpState::ready;
}

void QueuePair::post_send(const SendWr& wr) {
  if (type_ == QpType::ud) {
    post_send_ud(wr);
    return;
  }
  util::require(state_ != QpState::reset, "post_send on unconnected QP");
  if (state_ == QpState::error) {
    if (wr.signaled)
      send_cq_->push(Completion{wr.wr_id, WcStatus::flushed,
                                WcOpcode::send, 0, qpn_, remote_qpn_});
    return;
  }

  // Local protection: the source of send/rdma_write needs local_read; the
  // destination of an rdma_read needs local_write (and we resolve its
  // mutable pointer here, where the registry legitimately owns it).
  std::byte* read_dst = nullptr;
  bool local_ok;
  if (wr.opcode == WrOpcode::rdma_read) {
    read_dst = hca_.memory().local_write_ptr(wr.local_addr, wr.length, wr.lkey);
    local_ok = read_dst != nullptr;
  } else {
    local_ok = hca_.memory().check_local(wr.local_addr, wr.length, wr.lkey,
                                         Access::local_read);
  }
  if (!local_ok) {
    if (wr.signaled)
      send_cq_->push(Completion{wr.wr_id, WcStatus::local_protection_error,
                                WcOpcode::send, 0, qpn_, remote_qpn_});
    enter_error();
    return;
  }

  PendingSend ps;
  ps.wr = wr;
  ps.msn = next_msn_++;
  ps.read_dst = read_dst;
  ps.rnr_retries_left = hca_.fabric().config().rnr_retry_limit;
  MsgRef data = hca_.msg_pool().acquire();
  MessageData& d = data.fill();
  d.opcode = wr.opcode;
  d.length = wr.length;
  d.remote_addr = wr.remote_addr;
  d.rkey = wr.rkey;
  if (wr.opcode != WrOpcode::rdma_read) {
    d.src = wr.local_addr;  // zero-copy: registered buffer is stable until
                            // this WQE completes (verbs ownership rule)
  }
  ps.data = std::move(data);
  if (auto& rec = hca_.fabric().recorder(); rec.enabled()) {
    rec.record(hca_.engine().now(), obs::Ev::msg_posted, hca_.node_id(),
               remote_node_, qpn_, ps.msn, wr.length, wr.wr_id);
  }
  pending_tx_.push_back(std::move(ps));
  pump_tx();
}

void QueuePair::post_recv(const RecvWr& wr) {
  util::require(state_ != QpState::reset, "post_recv on unconnected QP");
  // Recv-WQE ledger: every accepted post is counted here and must leave
  // through exactly one of {queued, assembly, completed, flushed}.
  ++stats_.recv_wqes_posted;
  if (state_ == QpState::error) {
    ++stats_.recv_wqes_flushed;
    recv_cq_->push(Completion{wr.wr_id, WcStatus::flushed, WcOpcode::recv, 0,
                              qpn_, remote_qpn_});
    return;
  }
  if (!hca_.memory().check_local(wr.local_addr, wr.length, wr.lkey,
                                 Access::local_write)) {
    ++stats_.recv_wqes_completed;
    recv_cq_->push(Completion{wr.wr_id, WcStatus::local_protection_error,
                              WcOpcode::recv, 0, qpn_, remote_qpn_});
    enter_error();
    return;
  }
  recvq_.push_back(wr);
}

void QueuePair::pump_tx() {
  while (state_ == QpState::ready && !rnr_waiting_ && !pending_tx_.empty()) {
    // End-to-end credit pacing (channel sends only): with credit
    // information, keep at most advertised+2 unacked sends outstanding.
    // The two-message allowance reflects that credit information is a
    // round trip stale; the optimistic extra messages race the receiver's
    // reposts, and a lost race takes the RNR NAK + timeout path — which is
    // exactly how the paper's hardware scheme degrades on bursty patterns.
    if (hca_.fabric().config().e2e_credit_pacing &&
        pending_tx_.front().wr.opcode == WrOpcode::send &&
        advertised_credits_ >= 0) {
      std::int64_t unacked_sends = 0;
      for (const auto& u : unacked_)
        if (u.wr.opcode == WrOpcode::send) ++unacked_sends;
      if (unacked_sends > advertised_credits_ + 1) break;
    }
    PendingSend ps = std::move(pending_tx_.front());
    pending_tx_.pop_front();
    transmit_message(ps);
    if (ps.wr.opcode == WrOpcode::rdma_read) {
      // Register (or restart) the reassembly slot. A rewind erases the
      // slot, so a replayed read must re-create it or its response would
      // be dropped as stale and the read could never complete.
      auto it = std::find_if(reads_.begin(), reads_.end(),
                             [&](const auto& p) { return p.first == ps.msn; });
      if (it == reads_.end()) {
        reads_.emplace_back(ps.msn, ReadPending{ps.wr, ps.read_dst, 0});
      } else {
        it->second.received = 0;
      }
    }
    unacked_.push_back(std::move(ps));
  }
  arm_retx_timer();
}

void QueuePair::transmit_message(PendingSend& ps) {
  Fabric& fabric = hca_.fabric();
  const auto& cfg = fabric.config();
  const auto now = hca_.engine().now();

  if (ps.retransmission) {
    ++stats_.retransmitted_messages;
    stats_.retransmitted_bytes += ps.data->length;
  } else {
    ++stats_.messages_sent;
    stats_.bytes_sent += ps.data->length;
  }

  const std::uint32_t count =
      ps.wr.opcode == WrOpcode::rdma_read ? 1
                                          : packet_count(ps.data->length, cfg.mtu);
  if (auto& rec = fabric.recorder(); rec.enabled()) {
    const int me = hca_.node_id();
    const std::uint64_t wr_id = ps.wr.wr_id;
    if (ps.retransmission) {
      rec.record(now, obs::Ev::retransmit, me, remote_node_, qpn_, ps.msn,
                 ps.data->length, wr_id);
    } else {
      rec.record(now, obs::Ev::msg_on_wire, me, remote_node_, qpn_, ps.msn,
                 ps.data->length, wr_id);
      if (count > 1)
        rec.record(now, obs::Ev::msg_segmented, me, remote_node_, qpn_, ps.msn,
                   count, wr_id);
    }
  }
  std::uint32_t remaining = ps.data->length;
  for (std::uint32_t i = 0; i < count; ++i) {
    Packet pkt;
    pkt.kind = ps.wr.opcode == WrOpcode::rdma_read ? PacketKind::rdma_read_req
                                                   : PacketKind::data;
    pkt.src_qpn = qpn_;
    pkt.dst_qpn = remote_qpn_;
    pkt.msn = ps.msn;
    pkt.pkt_index = i;
    pkt.pkt_count = count;
    pkt.payload_bytes =
        pkt.kind == PacketKind::rdma_read_req ? 0 : std::min(remaining, cfg.mtu);
    remaining -= pkt.payload_bytes;
    pkt.msg = ps.data;
    fabric.transmit(hca_.node_id(), remote_node_, std::move(pkt),
                    now + cfg.tx_wqe_process);
    ++stats_.packets_sent;
  }
}

void QueuePair::send_control(PacketKind kind, Msn msn, std::int64_t credits) {
  Packet pkt;
  pkt.kind = kind;
  pkt.src_qpn = qpn_;
  pkt.dst_qpn = remote_qpn_;
  pkt.msn = msn;
  pkt.credits = credits;
  hca_.fabric().transmit(hca_.node_id(), remote_node_, std::move(pkt),
                         hca_.engine().now());
}

void QueuePair::complete_send(const PendingSend& ps, WcStatus status,
                              WcOpcode op) {
  if (!ps.wr.signaled && status == WcStatus::success) return;
  send_cq_->push(Completion{ps.wr.wr_id, status, op,
                            ps.data ? ps.data->length : 0, qpn_, remote_qpn_});
}

void QueuePair::post_send_ud(const SendWr& wr) {
  // Unreliable Datagram (paper §2.1): connectionless — every work request
  // names its destination; messages are at most one MTU; delivery is
  // best-effort with no ACK, no retry, and silent drops when the target
  // has no receive posted. The send completes as soon as it leaves.
  const auto& cfg = hca_.fabric().config();
  util::require(wr.opcode == WrOpcode::send, "UD supports send only");
  util::require(wr.length <= cfg.mtu, "UD message exceeds one MTU");
  util::require(wr.dest_node >= 0, "UD send needs a destination");
  if (!hca_.memory().check_local(wr.local_addr, wr.length, wr.lkey,
                                 Access::local_read)) {
    if (wr.signaled)
      send_cq_->push(Completion{wr.wr_id, WcStatus::local_protection_error,
                                WcOpcode::send, 0, qpn_, wr.dest_qpn});
    return;  // UD QPs do not transition to error for a bad post
  }
  MsgRef data = hca_.msg_pool().acquire();
  MessageData& d = data.fill();
  d.opcode = WrOpcode::send;
  d.length = wr.length;
  // The UD send completion is pushed below, at post time — so the app may
  // legally reuse or deregister the buffer before the datagram is delivered
  // by a later engine event. Snapshot the (≤ one MTU) payload instead of
  // borrowing the registered buffer; the pooled vector keeps its capacity,
  // so steady-state UD traffic still never touches the allocator.
  d.payload.assign(wr.local_addr, wr.local_addr + wr.length);

  Packet pkt;
  pkt.kind = PacketKind::data;
  pkt.src_qpn = qpn_;
  pkt.dst_qpn = wr.dest_qpn;
  pkt.msn = next_msn_++;
  pkt.payload_bytes = wr.length;
  pkt.msg = std::move(data);
  hca_.fabric().transmit(hca_.node_id(), wr.dest_node, std::move(pkt),
                         hca_.engine().now() + cfg.tx_wqe_process);
  ++stats_.messages_sent;
  stats_.bytes_sent += wr.length;
  ++stats_.packets_sent;
  if (wr.signaled)
    send_cq_->push(Completion{wr.wr_id, WcStatus::success, WcOpcode::send,
                              wr.length, qpn_, wr.dest_qpn});
}

void QueuePair::rx_packet_ud(const Packet& pkt) {
  if (pkt.kind != PacketKind::data) return;  // UD carries datagrams only
  if (pkt.corrupted) {
    // CRC failure on an unreliable datagram: dropped, nobody is told.
    ++stats_.corrupt_packets_received;
    ++stats_.packets_dropped;
    return;
  }
  if (recvq_.empty()) {
    // No buffer: the datagram is silently dropped — the defining contrast
    // with RC's RNR NAK + retry that the paper's flow-control study
    // builds on.
    ++stats_.packets_dropped;
    return;
  }
  const RecvWr wr = recvq_.front();
  recvq_.pop_front();
  ++stats_.recv_wqes_completed;
  if (pkt.msg->length > wr.length) {
    recv_cq_->push(Completion{wr.wr_id, WcStatus::length_error, WcOpcode::recv,
                              pkt.msg->length, qpn_, pkt.src_qpn});
    return;
  }
  if (pkt.msg->length > 0)
    std::memmove(wr.local_addr, pkt.msg->bytes(), pkt.msg->length);
  ++stats_.messages_received;
  recv_cq_->push(Completion{wr.wr_id, WcStatus::success, WcOpcode::recv,
                            pkt.msg->length, qpn_, pkt.src_qpn});
}

void QueuePair::rx_packet(const Packet& pkt) {
  if (type_ == QpType::ud) {
    rx_packet_ud(pkt);
    return;
  }
  if (state_ != QpState::ready) return;  // drop on errored QP
  if (pkt.corrupted) {
    // CRC failure at the receiving HCA: drop the packet. For payload-
    // bearing kinds the responder NAKs its expected MSN so the requester
    // recovers immediately; corrupted ACKs/NAKs and read responses are
    // recovered by the requester's transport timer instead.
    ++stats_.corrupt_packets_received;
    ++stats_.packets_dropped;
    if (pkt.kind == PacketKind::data || pkt.kind == PacketKind::rdma_read_req)
      maybe_send_seq_nak();
    return;
  }
  switch (pkt.kind) {
    case PacketKind::data: handle_data(pkt); break;
    case PacketKind::rdma_read_req: handle_read_req(pkt); break;
    case PacketKind::rdma_read_resp: handle_read_resp(pkt); break;
    case PacketKind::ack: handle_ack(pkt); break;
    case PacketKind::rnr_nak: handle_rnr_nak(pkt); break;
    case PacketKind::access_nak: handle_access_nak(pkt); break;
    case PacketKind::seq_nak: handle_seq_nak(pkt); break;
  }
}

void QueuePair::handle_data(const Packet& pkt) {
  if (pkt.msn != expected_msn_) {
    // Either a stale duplicate (already accepted) or a pipelined message
    // racing ahead of an RNR-dropped predecessor: drop silently; the
    // requester's RNR rewind replays everything from the NAK'd message.
    ++stats_.packets_dropped;
    if (hca_.fabric().config().transport_enabled()) {
      if (pkt.msn < expected_msn_) {
        // Duplicate of an already-accepted message: a timeout replay raced
        // the (lost or slow) ACK. Re-ACK at the end of the message so the
        // requester can retire it instead of timing out again.
        if (pkt.pkt_index + 1 == pkt.pkt_count && expected_msn_ > 0)
          send_control(PacketKind::ack, expected_msn_ - 1,
                       static_cast<std::int64_t>(recvq_.size()));
      } else if (dropping_msn_ == static_cast<Msn>(-1)) {
        // Gap with no RNR drop in progress: a predecessor was lost on the
        // wire. Ask for retransmission from the expected MSN.
        maybe_send_seq_nak();
      }
    }
    return;
  }
  if (pkt.pkt_index == 0) {
    dropping_msn_ = static_cast<Msn>(-1);
    // The expected message is (re)starting: a later gap is a new event and
    // deserves its own NAK.
    last_seq_nak_msn_ = static_cast<Msn>(-1);
    // Keep an in-progress reassembly of this very message: a replay of a
    // partially-assembled message restarts it on the same recv WQE.
    if (rx_cur_ && rx_cur_->msn != pkt.msn) rx_cur_.reset();
    if (pkt.msg->opcode == WrOpcode::send) {
      responder_accept_send(pkt);
    } else {
      responder_accept_write(pkt);
    }
    return;
  }
  // Continuation packet.
  if (dropping_msn_ == pkt.msn) {
    ++stats_.packets_dropped;
    return;
  }
  if (rx_cur_ && rx_cur_->msn == pkt.msn &&
      pkt.pkt_index != rx_cur_->pkts_seen) {
    // A packet inside the message was lost (in-order fabric, so an index
    // skip means a wire drop, not reordering). Keep the assembly — the
    // replayed index-0 packet restarts it on the same WQE — and NAK.
    ++stats_.packets_dropped;
    if (hca_.fabric().config().transport_enabled()) maybe_send_seq_nak();
    return;
  }
  if (pkt.msg->opcode == WrOpcode::send) {
    if (!rx_cur_ || rx_cur_->msn != pkt.msn) {
      // Continuation with no assembly in progress: the first packet of the
      // message was lost. NAK so the whole message is replayed.
      ++stats_.packets_dropped;
      if (hca_.fabric().config().transport_enabled()) maybe_send_seq_nak();
      return;
    }
    responder_accept_send(pkt);
  } else {
    responder_accept_write(pkt);
  }
}

void QueuePair::responder_accept_send(const Packet& pkt) {
  if (pkt.pkt_index == 0) {
    if (rx_cur_ && rx_cur_->msn == pkt.msn) {
      // Replay of a message whose assembly was interrupted mid-flight:
      // restart on the recv WQE already consumed for it — popping a fresh
      // one would leak the buffer and break FIFO recv ordering.
      rx_cur_->pkts_seen = 0;
    } else {
      if (recvq_.empty()) {
        // Receiver not ready: drop the message, tell the requester.
        ++stats_.rnr_naks_sent;
        if (auto& rec = hca_.fabric().recorder(); rec.enabled()) {
          rec.record(hca_.engine().now(), obs::Ev::rnr_nak,
                     hca_.node_id(), remote_node_, qpn_, pkt.msn, 0);
        }
        dropping_msn_ = pkt.msn;
        send_control(PacketKind::rnr_nak, pkt.msn);
        return;
      }
      RxAssembly asm_state;
      asm_state.msn = pkt.msn;
      asm_state.wr = recvq_.front();
      recvq_.pop_front();
      asm_state.pkts_seen = 0;
      asm_state.holds_wqe = true;
      rx_cur_ = asm_state;
    }
  }
  util::check(rx_cur_ && rx_cur_->msn == pkt.msn, "rx assembly out of sync");
  ++rx_cur_->pkts_seen;
  if (rx_cur_->pkts_seen < pkt.pkt_count) return;

  // Whole message arrived.
  const RecvWr wr = rx_cur_->wr;
  rx_cur_.reset();
  ++expected_msn_;
  ++stats_.recv_wqes_completed;
  if (pkt.msg->length > wr.length) {
    recv_cq_->push(Completion{wr.wr_id, WcStatus::length_error, WcOpcode::recv,
                              pkt.msg->length, qpn_, pkt.src_qpn});
    enter_error();
    return;
  }
  if (pkt.msg->length > 0) {
    // memmove: a loopback send may name overlapping registered buffers.
    std::memmove(wr.local_addr, pkt.msg->bytes(), pkt.msg->length);
  }
  ++stats_.messages_received;
  if (auto& rec = hca_.fabric().recorder(); rec.enabled()) {
    rec.record(hca_.engine().now(), obs::Ev::msg_delivered,
               hca_.node_id(), remote_node_, qpn_, pkt.msn, pkt.msg->length);
  }
  recv_cq_->push(Completion{wr.wr_id, WcStatus::success, WcOpcode::recv,
                            pkt.msg->length, qpn_, pkt.src_qpn});
  send_control(PacketKind::ack, pkt.msn,
               static_cast<std::int64_t>(recvq_.size()));
}

void QueuePair::responder_accept_write(const Packet& pkt) {
  if (pkt.pkt_index == 0) {
    if (rx_cur_ && rx_cur_->msn == pkt.msn) {
      rx_cur_->pkts_seen = 0;  // replay restart of a partial assembly
    } else {
      if (!hca_.memory().check_remote(pkt.msg->remote_addr, pkt.msg->length,
                                      pkt.msg->rkey, Access::remote_write)) {
        dropping_msn_ = pkt.msn;
        send_control(PacketKind::access_nak, pkt.msn);
        return;
      }
      RxAssembly asm_state;
      asm_state.msn = pkt.msn;
      asm_state.pkts_seen = 0;
      rx_cur_ = asm_state;
    }
  }
  if (!rx_cur_ || rx_cur_->msn != pkt.msn) {
    ++stats_.packets_dropped;
    if (hca_.fabric().config().transport_enabled()) maybe_send_seq_nak();
    return;
  }
  ++rx_cur_->pkts_seen;
  if (rx_cur_->pkts_seen < pkt.pkt_count) return;

  rx_cur_.reset();
  ++expected_msn_;
  if (pkt.msg->length > 0)
    std::memmove(pkt.msg->remote_addr, pkt.msg->bytes(), pkt.msg->length);
  ++stats_.messages_received;
  if (auto& rec = hca_.fabric().recorder(); rec.enabled()) {
    rec.record(hca_.engine().now(), obs::Ev::msg_delivered,
               hca_.node_id(), remote_node_, qpn_, pkt.msn, pkt.msg->length);
  }
  send_control(PacketKind::ack, pkt.msn,
               static_cast<std::int64_t>(recvq_.size()));
}

void QueuePair::handle_read_req(const Packet& pkt) {
  if (pkt.msn != expected_msn_) {
    const bool transport = hca_.fabric().config().transport_enabled();
    if (transport && pkt.msn < expected_msn_ &&
        hca_.memory().check_remote(pkt.msg->remote_addr, pkt.msg->length,
                                   pkt.msg->rkey, Access::remote_read)) {
      // Duplicate of an already-executed read (the response was lost or a
      // timeout replay raced it): reads are idempotent, so re-execute and
      // re-stream without advancing the sequence.
      stream_read_response(pkt);
      return;
    }
    ++stats_.packets_dropped;
    if (transport && pkt.msn > expected_msn_ &&
        dropping_msn_ == static_cast<Msn>(-1)) {
      maybe_send_seq_nak();
    }
    return;
  }
  if (!hca_.memory().check_remote(pkt.msg->remote_addr, pkt.msg->length,
                                  pkt.msg->rkey, Access::remote_read)) {
    send_control(PacketKind::access_nak, pkt.msn);
    return;
  }
  ++expected_msn_;
  ++stats_.messages_received;
  stream_read_response(pkt);
}

void QueuePair::stream_read_response(const Packet& pkt) {
  // Stream the response back: snapshot the requested bytes now.
  Fabric& fabric = hca_.fabric();
  const auto& cfg = fabric.config();
  MsgRef resp = hca_.msg_pool().acquire();
  MessageData& d = resp.fill();
  d.opcode = WrOpcode::rdma_read;
  d.length = pkt.msg->length;
  d.payload.assign(pkt.msg->remote_addr, pkt.msg->remote_addr + pkt.msg->length);
  const std::uint32_t count = packet_count(d.length, cfg.mtu);
  std::uint32_t remaining = d.length;
  for (std::uint32_t i = 0; i < count; ++i) {
    Packet out;
    out.kind = PacketKind::rdma_read_resp;
    out.src_qpn = qpn_;
    out.dst_qpn = remote_qpn_;
    out.msn = pkt.msn;
    out.pkt_index = i;
    out.pkt_count = count;
    out.payload_bytes = std::min(remaining, cfg.mtu);
    remaining -= out.payload_bytes;
    out.msg = resp;
    fabric.transmit(hca_.node_id(), remote_node_, std::move(out),
                    hca_.engine().now());
  }
}

void QueuePair::handle_read_resp(const Packet& pkt) {
  auto it = std::find_if(reads_.begin(), reads_.end(),
                         [&](const auto& p) { return p.first == pkt.msn; });
  if (it == reads_.end()) {
    ++stats_.packets_dropped;  // stale response after a rewind
    return;
  }
  ReadPending& rp = it->second;
  ++rp.received;
  if (rp.received < pkt.pkt_count) return;

  if (pkt.msg->length > 0)
    std::memcpy(rp.dst, pkt.msg->bytes(), pkt.msg->length);
  // Mark the matching unacked entry complete and retire in order.
  for (auto& ps : unacked_) {
    if (ps.msn == pkt.msn) {
      ps.acked = true;
    }
  }
  reads_.erase(it);
  retire_acked_();
}

void QueuePair::handle_ack(const Packet& pkt) {
  stats_.last_advertised_credits = pkt.credits;
  advertised_credits_ = pkt.credits;
  // unacked_ is a sliding window in msn order, so a cumulative ACK marks a
  // prefix — stop at the first entry past it instead of scanning the rest.
  for (auto& ps : unacked_) {
    if (ps.msn > pkt.msn) break;
    if (ps.wr.opcode != WrOpcode::rdma_read) ps.acked = true;
  }
  retire_acked_();
  pump_tx();  // freed window and fresh credit information
}

void QueuePair::retire_acked_() {
  bool progressed = false;
  while (!unacked_.empty() && unacked_.front().acked) {
    const PendingSend ps = std::move(unacked_.front());
    unacked_.pop_front();
    if (auto& rec = hca_.fabric().recorder(); rec.enabled()) {
      // The ACK retiring the WQE commits its QP-level lifecycle; wr_id (the
      // device's tx id) joins it to the device's wire_post offline.
      rec.record(hca_.engine().now(), obs::Ev::msg_acked, hca_.node_id(),
                 remote_node_, qpn_, ps.msn, ps.data ? ps.data->length : 0,
                 ps.wr.wr_id);
    }
    WcOpcode op = WcOpcode::send;
    if (ps.wr.opcode == WrOpcode::rdma_write) op = WcOpcode::rdma_write;
    if (ps.wr.opcode == WrOpcode::rdma_read) op = WcOpcode::rdma_read;
    complete_send(ps, WcStatus::success, op);
    progressed = true;
  }
  if (progressed) {
    // Forward progress resets the ACK-timeout clock and its backoff.
    retx_attempts_ = 0;
    disarm_retx_timer();
    arm_retx_timer();
  }
}

void QueuePair::handle_rnr_nak(const Packet& pkt) {
  ++stats_.rnr_naks_received;
  if (rnr_waiting_) return;  // already rewinding

  // Find the NAK'd message among the unacked; it may already be gone if a
  // duplicate NAK raced with the retry's ACK.
  auto it = std::find_if(unacked_.begin(), unacked_.end(),
                         [&](const PendingSend& p) { return p.msn == pkt.msn; });
  if (it == unacked_.end()) return;

  const int limit = hca_.fabric().config().rnr_retry_limit;
  if (limit >= 0) {
    if (it->rnr_retries_left <= 0) {
      const PendingSend failed = std::move(*it);
      unacked_.erase(it);
      complete_send(failed, WcStatus::rnr_retry_exceeded, WcOpcode::send);
      enter_error();
      return;
    }
    --it->rnr_retries_left;
  }

  // Rewind: everything from the NAK'd message back to the pending queue,
  // marked as retransmissions. The wire copies already sent will be dropped
  // as out-of-sequence at the responder.
  rewind_unacked_from(pkt.msn);

  rnr_waiting_ = true;
  rnr_timer_ = hca_.engine().schedule_after(
      hca_.fabric().config().rnr_timeout, [this] {
        rnr_waiting_ = false;
        pump_tx();
      });
}

void QueuePair::rewind_unacked_from(Msn msn) {
  std::deque<PendingSend> rewound;
  while (!unacked_.empty() && unacked_.back().msn >= msn) {
    PendingSend ps = std::move(unacked_.back());
    unacked_.pop_back();
    ps.retransmission = true;
    ps.acked = false;  // will be re-ACKed (possibly as a duplicate)
    // Drop any half-assembled read response; it will be re-requested.
    reads_.erase(std::remove_if(reads_.begin(), reads_.end(),
                                [&](const auto& p) { return p.first == ps.msn; }),
                 reads_.end());
    rewound.push_front(std::move(ps));
  }
  for (auto rit = rewound.rbegin(); rit != rewound.rend(); ++rit) {
    pending_tx_.push_front(std::move(*rit));
  }
}

void QueuePair::arm_retx_timer() {
  // Member checks first: they are this-local (already in cache on every
  // call path here), while the config lives two pointer hops away. The
  // armed/empty early-outs cover the overwhelming share of calls.
  if (retx_armed_ || unacked_.empty() || state_ != QpState::ready) return;
  const auto& cfg = hca_.fabric().config();
  if (!cfg.transport_enabled()) return;
  sim::Duration d = cfg.transport_timeout;
  for (int i = 0; i < retx_attempts_ && d < cfg.transport_timeout_cap; ++i) {
    d += d;
  }
  d = std::min(d, cfg.transport_timeout_cap);
  retx_armed_ = true;
  retx_timer_ = hca_.engine().schedule_after(d, [this] {
    retx_armed_ = false;
    handle_transport_timeout();
  });
}

void QueuePair::disarm_retx_timer() {
  if (!retx_armed_) return;
  retx_timer_.cancel();
  retx_armed_ = false;
}

void QueuePair::handle_transport_timeout() {
  if (state_ != QpState::ready || unacked_.empty()) return;
  if (rnr_waiting_) {
    // The RNR timer owns recovery right now; look again after a period.
    arm_retx_timer();
    return;
  }
  const auto& cfg = hca_.fabric().config();
  if (cfg.transport_retry_limit >= 0 &&
      retx_attempts_ >= cfg.transport_retry_limit) {
    PendingSend failed = std::move(unacked_.front());
    unacked_.pop_front();
    WcOpcode op = WcOpcode::send;
    if (failed.wr.opcode == WrOpcode::rdma_write) op = WcOpcode::rdma_write;
    if (failed.wr.opcode == WrOpcode::rdma_read) op = WcOpcode::rdma_read;
    complete_send(failed, WcStatus::transport_retry_exceeded, op);
    enter_error();
    return;
  }
  ++retx_attempts_;
  ++stats_.transport_retries;
  rewind_unacked_from(unacked_.front().msn);
  pump_tx();  // replays and re-arms the timer with backoff
}

void QueuePair::maybe_send_seq_nak() {
  if (!hca_.fabric().config().transport_enabled()) return;
  if (last_seq_nak_msn_ == expected_msn_) return;  // one NAK per gap
  last_seq_nak_msn_ = expected_msn_;
  ++stats_.seq_naks_sent;
  send_control(PacketKind::seq_nak, expected_msn_);
}

void QueuePair::handle_seq_nak(const Packet& pkt) {
  ++stats_.seq_naks_received;
  if (rnr_waiting_) return;  // the RNR replay will cover the gap
  if (unacked_.empty() || unacked_.back().msn < pkt.msn) {
    return;  // stale NAK: everything it names is retired or already rewound
  }
  // The responder is alive and talking: recover immediately and give the
  // replay a fresh timeout budget.
  retx_attempts_ = 0;
  disarm_retx_timer();
  rewind_unacked_from(pkt.msn);
  pump_tx();
}

void QueuePair::handle_access_nak(const Packet& pkt) {
  auto it = std::find_if(unacked_.begin(), unacked_.end(),
                         [&](const PendingSend& p) { return p.msn == pkt.msn; });
  if (it != unacked_.end()) {
    const PendingSend failed = std::move(*it);
    unacked_.erase(it);
    const WcOpcode op = failed.wr.opcode == WrOpcode::rdma_read
                            ? WcOpcode::rdma_read
                            : WcOpcode::rdma_write;
    complete_send(failed, WcStatus::remote_access_error, op);
  }
  enter_error();
}

void QueuePair::modify_error() {
  if (type_ == QpType::ud) return;
  enter_error();
}

void QueuePair::enter_error() {
  if (state_ == QpState::error) return;
  state_ = QpState::error;
  if (auto& rec = hca_.fabric().recorder(); rec.enabled()) {
    rec.record(hca_.engine().now(), obs::Ev::qp_error, hca_.node_id(),
               remote_node_, qpn_, 0, 0);
  }
  rnr_timer_.cancel();
  disarm_retx_timer();
  for (const auto& ps : pending_tx_)
    complete_send(ps, WcStatus::flushed, WcOpcode::send);
  for (const auto& ps : unacked_)
    complete_send(ps, WcStatus::flushed, WcOpcode::send);
  pending_tx_.clear();
  unacked_.clear();
  reads_.clear();
  stats_.recv_wqes_flushed += recvq_.size();
  for (const auto& wr : recvq_)
    recv_cq_->push(Completion{wr.wr_id, WcStatus::flushed, WcOpcode::recv, 0,
                              qpn_, remote_qpn_});
  recvq_.clear();
}

void QueuePair::serialize_state(util::serial::BufWriter& w) const {
  w.u32(qpn_);
  w.u8(static_cast<std::uint8_t>(type_));
  w.u8(static_cast<std::uint8_t>(state_));
  w.i32(remote_node_);
  w.u32(remote_qpn_);

  // Requester pipeline. Payload bytes are not captured (they are either
  // borrowed app memory or pool snapshots that replay reconstructs); the
  // protocol identity of each in-flight message is.
  const auto put_pending = [&w](const PendingSend& ps) {
    w.u64(ps.wr.wr_id);
    w.u64(ps.msn);
    w.u8(static_cast<std::uint8_t>(ps.wr.opcode));
    w.u32(ps.wr.length);
    w.i32(ps.rnr_retries_left);
    w.b(ps.retransmission);
    w.b(ps.acked);
  };
  w.u64(pending_tx_.size());
  for (const PendingSend& ps : pending_tx_) put_pending(ps);
  w.u64(unacked_.size());
  for (const PendingSend& ps : unacked_) put_pending(ps);
  w.u64(next_msn_);
  w.b(rnr_waiting_);
  w.i64(advertised_credits_);
  w.b(rnr_timer_.valid());
  w.b(retx_armed_);
  w.b(retx_timer_.valid());
  w.i32(retx_attempts_);
  w.u64(reads_.size());
  for (const auto& [msn, rp] : reads_) {
    w.u64(msn);
    w.u32(rp.wr.length);
    w.u32(rp.received);
  }

  // Responder window.
  w.u64(recvq_.size());
  for (const RecvWr& wr : recvq_) {
    w.u64(wr.wr_id);
    w.u32(wr.length);
  }
  w.u64(expected_msn_);
  w.u64(dropping_msn_);
  w.u64(last_seq_nak_msn_);
  w.b(rx_cur_.has_value());
  if (rx_cur_) {
    w.u64(rx_cur_->msn);
    w.u32(rx_cur_->pkts_seen);
  }

  // Counters.
  w.u64(stats_.messages_sent);
  w.u64(stats_.bytes_sent);
  w.u64(stats_.packets_sent);
  w.u64(stats_.messages_received);
  w.u64(stats_.rnr_naks_received);
  w.u64(stats_.rnr_naks_sent);
  w.u64(stats_.retransmitted_messages);
  w.u64(stats_.retransmitted_bytes);
  w.u64(stats_.packets_dropped);
  w.u64(stats_.transport_retries);
  w.u64(stats_.seq_naks_sent);
  w.u64(stats_.seq_naks_received);
  w.u64(stats_.corrupt_packets_received);
  w.i64(stats_.last_advertised_credits);
}

}  // namespace mvflow::ib
