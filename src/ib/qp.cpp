#include "ib/qp.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>

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
std::uint32_t packet_count(std::uint32_t len) {
  if (len == 0) return 1;
  return (len + kMtu - 1) / kMtu;
}

WcOpcode completion_opcode(const SendWr& wr) {
  return wr.opcode == WrOpcode::rdma_write ? WcOpcode::rdma_write
                                           : WcOpcode::send;
}

}  // namespace

QueuePair::QueuePair(Hca& hca, QpNumber qpn,
                     std::shared_ptr<CompletionQueue> send_cq,
                     std::shared_ptr<CompletionQueue> recv_cq)
    : hca_(hca), qpn_(qpn), send_cq_(std::move(send_cq)),
      recv_cq_(std::move(recv_cq)) {
  util::require(send_cq_ && recv_cq_, "QP needs send and recv CQs");
}

void QueuePair::set_remote(int node, QpNumber qpn) {
  util::check(state_ == QpState::reset, "QP already connected");
  remote_node_ = node;
  remote_qpn_ = qpn;
  state_ = QpState::ready;
}

void QueuePair::post_send(const SendWr& wr) {
  util::require(state_ != QpState::reset, "post_send on unconnected QP");
  if (state_ == QpState::error) {
    if (wr.signaled)
      send_cq_->push(Completion{wr.wr_id, WcStatus::flushed,
                                WcOpcode::send, 0, qpn_, remote_qpn_});
    return;
  }

  // Local protection: the source of a send or RDMA write needs local_read.
  if (!hca_.memory().check_local(wr.local_addr, wr.length, wr.lkey,
                                 Access::local_read)) {
    if (wr.signaled)
      send_cq_->push(Completion{wr.wr_id, WcStatus::local_protection_error,
                                WcOpcode::send, 0, qpn_, remote_qpn_});
    enter_error();
    return;
  }

  PendingSend ps;
  ps.wr = wr;
  ps.msn = next_msn_++;
  MsgRef data = hca_.msg_pool().acquire();
  MessageData& d = data.fill();
  d.opcode = wr.opcode;
  d.src = wr.local_addr;  // zero-copy: registered buffer is stable until
                          // this WQE completes (verbs ownership rule)
  d.length = wr.length;
  d.remote_addr = wr.remote_addr;
  d.rkey = wr.rkey;
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
    PendingSend ps = std::move(pending_tx_.front());
    pending_tx_.pop_front();
    transmit_message(ps);
    unacked_.push_back(std::move(ps));
  }
  arm_retx_timer();
}

void QueuePair::transmit_message(PendingSend& ps) {
  Fabric& fabric = hca_.fabric();
  const auto now = hca_.engine().now();

  if (ps.retransmission) {
    ++stats_.retransmitted_messages;
    stats_.retransmitted_bytes += ps.data->length;
  } else {
    ++stats_.messages_sent;
    stats_.bytes_sent += ps.data->length;
  }

  const std::uint32_t count = packet_count(ps.data->length);
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
    pkt.kind = PacketKind::data;
    pkt.src_qpn = qpn_;
    pkt.dst_qpn = remote_qpn_;
    pkt.msn = ps.msn;
    pkt.pkt_index = i;
    pkt.pkt_count = count;
    pkt.payload_bytes = std::min(remaining, kMtu);
    remaining -= pkt.payload_bytes;
    pkt.msg = ps.data;
    fabric.transmit(hca_.node_id(), remote_node_, std::move(pkt),
                    now + kTxWqeProcess);
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

void QueuePair::rx_packet(const Packet& pkt) {
  if (state_ != QpState::ready) return;  // drop on errored QP
  if (pkt.corrupted) {
    // CRC failure at the receiving HCA: drop the packet. For a data packet
    // the responder NAKs its expected MSN so the requester recovers
    // immediately; corrupted ACKs/NAKs are recovered by the requester's
    // transport timer instead.
    ++stats_.corrupt_packets_received;
    ++stats_.packets_dropped;
    if (pkt.kind == PacketKind::data) maybe_send_seq_nak();
    return;
  }
  switch (pkt.kind) {
    case PacketKind::data: handle_data(pkt); break;
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
    std::memmove(wr.local_addr, pkt.msg->src, pkt.msg->length);
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
    std::memmove(pkt.msg->remote_addr, pkt.msg->src, pkt.msg->length);
  ++stats_.messages_received;
  if (auto& rec = hca_.fabric().recorder(); rec.enabled()) {
    rec.record(hca_.engine().now(), obs::Ev::msg_delivered,
               hca_.node_id(), remote_node_, qpn_, pkt.msn, pkt.msg->length);
  }
  send_control(PacketKind::ack, pkt.msn,
               static_cast<std::int64_t>(recvq_.size()));
}

void QueuePair::handle_ack(const Packet& pkt) {
  stats_.last_advertised_credits = pkt.credits;
  // unacked_ is a sliding window in msn order, so a cumulative ACK marks a
  // prefix — stop at the first entry past it instead of scanning the rest.
  for (auto& ps : unacked_) {
    if (ps.msn > pkt.msn) break;
    ps.acked = true;
  }
  retire_acked_();
  pump_tx();  // freed window
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
    complete_send(ps, WcStatus::success, completion_opcode(ps.wr));
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
  // unacked_ is msn-ordered, so the entries to replay are one suffix; it
  // moves to the head of pending_tx_ in one bulk step, keeping its order.
  auto first = unacked_.end();
  while (first != unacked_.begin() && std::prev(first)->msn >= msn) --first;
  for (auto it = first; it != unacked_.end(); ++it) {
    it->retransmission = true;
    it->acked = false;  // will be re-ACKed (possibly as a duplicate)
  }
  pending_tx_.prepend(std::make_move_iterator(first),
                      std::make_move_iterator(unacked_.end()));
  unacked_.erase(first, unacked_.end());
}

void QueuePair::arm_retx_timer() {
  // Member checks first: they are this-local (already in cache on every
  // call path here), while the config lives two pointer hops away. The
  // armed/empty early-outs cover the overwhelming share of calls.
  if (retx_armed_ || unacked_.empty() || state_ != QpState::ready) return;
  const auto& cfg = hca_.fabric().config();
  if (!cfg.transport_enabled()) return;
  sim::Duration d = cfg.transport_timeout;
  for (int i = 0; i < retx_attempts_ && d < kTransportTimeoutCap; ++i) {
    d += d;
  }
  d = std::min(d, kTransportTimeoutCap);
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
    complete_send(failed, WcStatus::transport_retry_exceeded,
                  completion_opcode(failed.wr));
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
    // Only an RDMA write is checked against the responder's registry.
    const PendingSend failed = std::move(*it);
    unacked_.erase(it);
    complete_send(failed, WcStatus::remote_access_error, WcOpcode::rdma_write);
  }
  enter_error();
}

void QueuePair::modify_error() { enter_error(); }

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
  stats_.recv_wqes_flushed += recvq_.size();
  for (const auto& wr : recvq_)
    recv_cq_->push(Completion{wr.wr_id, WcStatus::flushed, WcOpcode::recv, 0,
                              qpn_, remote_qpn_});
  recvq_.clear();
}

void QueuePair::serialize_state(util::serial::BufWriter& w) const {
  w.u32(qpn_);
  w.u8(static_cast<std::uint8_t>(state_));
  w.i32(remote_node_);
  w.u32(remote_qpn_);

  // Requester pipeline. Payload bytes are not captured (they are borrowed
  // app memory that replay reconstructs); the protocol identity of each
  // in-flight message is.
  const auto put_pending = [&w](const PendingSend& ps) {
    w.u64(ps.wr.wr_id);
    w.u64(ps.msn);
    w.u8(static_cast<std::uint8_t>(ps.wr.opcode));
    w.u32(ps.wr.length);
    w.b(ps.retransmission);
    w.b(ps.acked);
  };
  w.u64(pending_tx_.size());
  for (const PendingSend& ps : pending_tx_) put_pending(ps);
  w.u64(unacked_.size());
  for (const PendingSend& ps : unacked_) put_pending(ps);
  w.u64(next_msn_);
  w.b(rnr_waiting_);
  w.b(rnr_timer_.valid());
  w.b(retx_armed_);
  w.b(retx_timer_.valid());
  w.i32(retx_attempts_);

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
