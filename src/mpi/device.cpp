#include "mpi/device.hpp"

#include <algorithm>
#include <cstring>

#include "mpi/world.hpp"
#include "obs/recorder.hpp"
#include "util/check.hpp"
#include "util/serial.hpp"

namespace mvflow::mpi {

namespace {
constexpr std::size_t kBounceChunk = 64;  // bounce slots added per arena

/// TraceEvent::flags of a device instant: the message kind and whether it
/// is credited (eager data, rendezvous start).
std::uint8_t msg_flags(MsgKind kind) {
  return static_cast<std::uint8_t>(
      (static_cast<unsigned>(kind) << obs::kMsgKindShift) |
      (is_credited(kind) ? obs::kProfPayload : 0u));
}
}

Device::Device(World& world, Rank me) : world_(world), me_(me) {
  audit_inline_ = world_.audit_enabled();
  peer_index_.assign(static_cast<std::size_t>(world_.num_ranks()), -1);
  hca_ = &world_.fabric().hca(me);
  cq_ = hca_->create_cq();
  world_.metrics().add_source(
      "rank" + std::to_string(me_) + ".device.",
      [this](const obs::MetricsRegistry::EmitFn& e) { stats_.visit(e); });
}

Device::~Device() = default;

sim::Engine& Device::engine() const noexcept { return world_.engine(); }

obs::FlightRecorder& Device::recorder() const noexcept {
  return hca_->fabric().recorder();
}

// ---------------------------------------------------------------- setup --

std::size_t Device::endpoint_state_bytes() noexcept { return sizeof(Endpoint); }

Device::Endpoint& Device::ep_at(Rank peer) const {
  Endpoint* ep = find_endpoint(peer);
  util::require(ep != nullptr, "no endpoint for peer");
  return *ep;
}

ib::QueuePair& Device::create_endpoint(Rank peer) {
  util::check(!has_endpoint(peer), "endpoint already exists");
  util::check(peer >= 0 && static_cast<std::size_t>(peer) < peer_index_.size(),
              "peer rank out of range");
  auto ep = std::make_unique<Endpoint>(world_.config().flow);
  ep->peer = peer;
  ep->qp = hca_->create_qp(cq_, cq_);
  ib::QueuePair& qp = *ep->qp;
  const std::uint32_t slot = static_cast<std::uint32_t>(conn_.size());
  conn_.push_back(std::move(ep));
  peer_index_[static_cast<std::size_t>(peer)] = static_cast<std::int32_t>(slot);
  peer_ranks_.insert(
      std::lower_bound(peer_ranks_.begin(), peer_ranks_.end(), peer), peer);
  // Completions resolve qpn → endpoint through the fabric QPN index in one
  // array read; the cookie is this device's connection slot.
  world_.fabric().set_qpn_cookie(qp.qpn(), slot);
  // Per-connection metrics; looked up by rank at snapshot time so the
  // sources survive a reconnect replacing the QP object.
  const std::string conn =
      "rank" + std::to_string(me_) + ".peer" + std::to_string(peer) + ".";
  world_.metrics().add_source(
      conn + "flow.", [this, peer](const obs::MetricsRegistry::EmitFn& e) {
        flow(peer).counters().visit(e);
      });
  world_.metrics().add_source(
      conn + "qp.", [this, peer](const obs::MetricsRegistry::EmitFn& e) {
        qp_stats(peer).visit(e);
      });
  return qp;
}

void Device::activate_endpoint(Rank peer) {
  Endpoint& ep = ep_at(peer);
  util::check(ep.qp->connected(), "activate before connect");
  util::check(!ep.active, "endpoint already active");
  ep.active = true;
  grow_recv_slots(ep, ep.flow.initial_posted());
}

Device::Endpoint& Device::ensure_endpoint(Rank peer) {
  if (Endpoint* ep = find_endpoint(peer); ep != nullptr && ep->active) {
    return *ep;
  }
  util::check(world_.config().on_demand_connections,
              "endpoint missing outside on-demand mode");
  charge(kConnectSetup);
  world_.wire_pair(me_, peer);
  return ep_at(peer);
}

void Device::grow_recv_slots(Endpoint& ep, int count) {
  util::require(count > 0, "grow by zero");
  Arena arena;
  arena.storage = std::make_unique<std::vector<std::byte>>(
      static_cast<std::size_t>(count) * kBufferSize);
  arena.mr = hca_->register_memory(*arena.storage,
                                   ib::Access::local_read | ib::Access::local_write);
  std::byte* base = arena.storage->data();
  const std::uint32_t lkey = arena.mr.lkey;
  ep.recv_arenas.push_back(std::move(arena));
  for (int i = 0; i < count; ++i) {
    ep.slots.push_back(
        RecvSlot{base + static_cast<std::size_t>(i) * kBufferSize, lkey});
    post_slot(ep, ep.slots.size() - 1);
  }
}

void Device::post_slot(Endpoint& ep, std::size_t slot_idx) {
  const RecvSlot& slot = ep.slots[slot_idx];
  ib::RecvWr wr;
  wr.wr_id = slot_idx;
  wr.local_addr = slot.addr;
  wr.length = kBufferSize;
  wr.lkey = slot.lkey;
  ep.qp->post_recv(wr);
}

// -------------------------------------------------------- bounce buffers --

std::size_t Device::acquire_bounce_slot() {
  if (bounce_free_.empty()) {
    Arena arena;
    arena.storage =
        std::make_unique<std::vector<std::byte>>(kBounceChunk * kBufferSize);
    arena.mr = hca_->register_memory(
        *arena.storage, ib::Access::local_read | ib::Access::local_write);
    std::byte* base = arena.storage->data();
    const std::uint32_t lkey = arena.mr.lkey;
    bounce_arenas_.push_back(std::move(arena));
    for (std::size_t i = 0; i < kBounceChunk; ++i) {
      bounce_slots_.push_back(RecvSlot{base + i * kBufferSize, lkey});
      bounce_free_.push_back(bounce_slots_.size() - 1);
    }
  }
  const std::size_t idx = bounce_free_.back();
  bounce_free_.pop_back();
  return idx;
}

void Device::release_bounce_slot(std::size_t idx) { bounce_free_.push_back(idx); }
std::byte* Device::bounce_addr(std::size_t idx) { return bounce_slots_[idx].addr; }
std::uint32_t Device::bounce_lkey(std::size_t idx) { return bounce_slots_[idx].lkey; }

// ------------------------------------------------------------- pin cache --

ib::MemoryRegionHandle Device::pin(std::byte* addr, std::size_t len) {
  for (auto it = reg_cache_.begin(); it != reg_cache_.end(); ++it) {
    if (it->addr == addr && it->len >= len) {
      ++stats_.reg_cache_hits;
      reg_cache_.splice(reg_cache_.begin(), reg_cache_, it);  // LRU bump
      return reg_cache_.front().mr;
    }
  }
  ++stats_.reg_cache_misses;
  const auto mr = register_region(addr, len);
  reg_cache_.push_front(CacheEntry{addr, len, mr});
  if (reg_cache_.size() > kRegCacheCapacity) {
    hca_->deregister_memory(reg_cache_.back().mr);
    reg_cache_.pop_back();
  }
  return mr;
}

ib::MemoryRegionHandle Device::register_region(std::byte* addr,
                                               std::size_t len) {
  const auto pages = (len + kPageSize - 1) / kPageSize;
  charge(kRegBase + kRegPerPage * static_cast<std::int64_t>(pages));
  return hca_->register_memory(
      std::span<std::byte>(addr, len),
      ib::Access::local_read | ib::Access::local_write | ib::Access::remote_read |
          ib::Access::remote_write);
}

Device::SendRndvMap::iterator Device::erase_send_rndv(
    SendRndvMap::iterator it) {
  if (!it->second.owned_payload.empty())
    hca_->deregister_memory(it->second.mr);
  return send_rndv_.erase(it);
}

void Device::charge(sim::Duration d) {
  if (allow_charge_ && proc_ != nullptr && d > sim::Duration::zero())
    proc_->delay(d);
}

void Device::charge_copy(std::size_t bytes) {
  if (bytes == 0) return;
  charge(sim::transfer_time(bytes, kCopyBandwidthBps));
}

// ------------------------------------------------------------ send paths --

RequestPtr Device::isend(Rank dst, Tag tag, std::span<const std::byte> data) {
  progress();  // every MPI entry point advances the engine (as MPICH does)
  charge(kSendOverhead);
  Endpoint& ep = ensure_endpoint(dst);
  auto req = std::make_shared<Request>();
  if (ep.failed) {
    // The connection is dead: complete immediately with error status
    // instead of queueing data that can never leave.
    fail_request(req);
    return req;
  }
  stats_.payload_bytes_sent += data.size();

  // Eager whenever the payload fits a pre-pinned buffer.
  if (data.size() <= DeviceConfig::eager_max_payload()) {
    ++stats_.eager_sent;
    charge_copy(data.size());
    WireHeader hdr;
    hdr.kind = MsgKind::eager_data;
    hdr.tag = tag;
    hdr.payload_bytes = static_cast<std::uint32_t>(data.size());
    send_credited(ep, hdr, data, req);
    return req;
  }
  start_send_rndv(ep, tag, data, req);
  return req;
}

void Device::start_send_rndv(Endpoint& ep, Tag tag,
                             std::span<const std::byte> data, RequestPtr req) {
  ++stats_.rndv_started;
  const std::uint64_t id = next_rndv_id_++;
  SendRndv ctx;
  ctx.dst = ep.peer;
  ctx.data = data;
  ctx.req = std::move(req);
  if (!data.empty())
    ctx.mr = pin(const_cast<std::byte*>(data.data()), data.size());
  send_rndv_.emplace(id, std::move(ctx));

  WireHeader hdr;
  hdr.kind = MsgKind::rndv_rts;
  hdr.tag = tag;
  hdr.payload_bytes = static_cast<std::uint32_t>(data.size());
  hdr.sreq = id;
  send_credited(ep, hdr, {}, nullptr);
}

void Device::send_credited(Endpoint& ep, WireHeader hdr,
                           std::span<const std::byte> payload,
                           RequestPtr eager_req) {
  util::check(is_credited(hdr.kind), "send_credited with control kind");
  if (ep.backlog.empty() && ep.flow.try_acquire_credit()) {
    if (auto& rec = recorder(); rec.enabled()) {
      rec.record(engine().now(), obs::Ev::credit_consume, me_, ep.peer,
                 ep.qp->qpn(), 1, ep.flow.credits());
    }
    post_wire(ep, hdr, payload);
    if (eager_req) eager_req->mark_complete();  // buffered-send semantics
    return;
  }
  ep.flow.note_backlogged();
  BacklogEntry entry;
  entry.hdr = hdr;
  entry.payload.assign(payload.begin(), payload.end());
  entry.eager_req = std::move(eager_req);
  ep.backlog.push_back(std::move(entry));
  if (auto& rec = recorder(); rec.enabled()) {
    rec.record(engine().now(), obs::Ev::backlog_enter, me_, ep.peer,
               ep.qp->qpn(), ep.backlog.size(), ep.flow.credits());
  }
  drain_backlog(ep);  // under famine the head may leave as an optimistic RTS
}

void Device::drain_backlog(Endpoint& ep) {
  while (!ep.backlog.empty() && ep.flow.try_acquire_credit()) {
    BacklogEntry entry = std::move(ep.backlog.front());
    ep.backlog.pop_front();
    ep.flow.note_backlog_dispatched();
    if (auto& rec = recorder(); rec.enabled()) {
      const auto now = engine().now();
      rec.record(now, obs::Ev::credit_consume, me_, ep.peer, ep.qp->qpn(), 1,
                 ep.flow.credits());
      rec.record(now, obs::Ev::backlog_dispatch, me_, ep.peer, ep.qp->qpn(),
                 ep.backlog.size(), ep.flow.credits());
    }
    entry.hdr.backlogged = 1;  // dynamic-scheme feedback bit
    post_wire(ep, entry.hdr, entry.payload);
    if (entry.eager_req) entry.eager_req->mark_complete();
  }
  // The optimistic famine RTS bypasses credits, so it may land with no
  // buffer posted and ride the RNR retry. With a tiny pool that race is
  // near-certain and each loss costs a full RNR timeout, so below a few
  // buffers we leave the head queued and rely on the (pool-capped) ECM
  // threshold to bring credits back instead.
  if (!ep.backlog.empty() && !ep.famine_rts_inflight &&
      ep.flow.config().prepost >= 4) {
    dispatch_famine_head(ep);
  }
}

void Device::dispatch_famine_head(Endpoint& ep) {
  // Paper §4.2: with zero credits only Rendezvous is used — its RTS goes
  // out optimistically (no credit; the RC RNR retry is the safety net, the
  // same argument the paper makes for explicit credit messages), and the
  // CTS piggybacks credits back, reviving the rest of the backlog.
  BacklogEntry entry = std::move(ep.backlog.front());
  ep.backlog.pop_front();
  ep.flow.note_backlog_dispatched();
  ep.flow.note_optimistic_rts();
  if (auto& rec = recorder(); rec.enabled()) {
    rec.record(engine().now(), obs::Ev::backlog_dispatch, me_, ep.peer,
               ep.qp->qpn(), ep.backlog.size(), ep.flow.credits());
  }
  ep.famine_rts_inflight = true;

  WireHeader rts;
  rts.kind = MsgKind::rndv_rts;
  rts.tag = entry.hdr.tag;
  rts.backlogged = 1;
  rts.optimistic = 1;

  const std::uint64_t id = next_rndv_id_++;
  SendRndv ctx;
  ctx.dst = ep.peer;
  if (entry.hdr.kind == MsgKind::eager_data) {
    // Convert the buffered eager payload into a rendezvous transfer.
    ++stats_.small_converted_to_rndv;
    ++stats_.rndv_started;
    ctx.owned_payload = std::move(entry.payload);
    ctx.req = std::move(entry.eager_req);
    rts.payload_bytes = static_cast<std::uint32_t>(ctx.owned_payload.size());
  } else {
    // Already an RTS: re-issue it optimistically under its original id.
    rts.payload_bytes = entry.hdr.payload_bytes;
    rts.sreq = entry.hdr.sreq;
    post_wire(ep, rts, {});
    return;
  }
  auto& stored = send_rndv_.emplace(id, std::move(ctx)).first->second;
  stored.data = std::span<const std::byte>(stored.owned_payload);
  // The copy is fresh heap memory, so it bypasses the address-keyed pin
  // cache: a hit there would depend on how malloc reuses addresses. Every
  // conversion pays a full registration, undone where the entry is erased.
  if (!stored.data.empty())
    stored.mr =
        register_region(stored.owned_payload.data(), stored.owned_payload.size());
  rts.sreq = id;
  post_wire(ep, rts, {});
}

void Device::send_ecm(Endpoint& ep) {
  WireHeader hdr;
  hdr.kind = MsgKind::credit;
  ep.flow.note_ecm_sent();
  if (auto& rec = recorder(); rec.enabled()) {
    rec.record(engine().now(), obs::Ev::ecm_sent, me_, ep.peer,
               ep.qp->qpn(), ep.flow.pending_return_credits(), 0);
  }
  post_wire(ep, hdr, {});
}

void Device::post_wire(Endpoint& ep, WireHeader hdr,
                       std::span<const std::byte> payload) {
  util::check(payload.size() + kHeaderBytes <= kBufferSize,
              "wire message exceeds buffer size");
  hdr.src_rank = me_;
  hdr.seq = ep.tx_seq++;
  hdr.piggyback_credits = ep.flow.take_return_credits();
  if (hdr.kind == MsgKind::rndv_cts || hdr.kind == MsgKind::rndv_fin)
    ep.flow.note_control_sent();
  if (!is_credited(hdr.kind)) charge(kCtrlSendOverhead);

  const std::size_t slot = acquire_bounce_slot();
  std::byte* addr = bounce_addr(slot);
  write_header(addr, hdr);
  if (!payload.empty())
    std::memcpy(addr + kHeaderBytes, payload.data(), payload.size());

  const std::uint64_t txid = next_tx_id_++;
  ib::SendWr wr;
  wr.wr_id = txid;
  wr.opcode = ib::WrOpcode::send;
  wr.local_addr = addr;
  wr.length = kHeaderBytes + static_cast<std::uint32_t>(payload.size());
  wr.lkey = bounce_lkey(slot);
  TxCtx ctx;
  ctx.bounce_slot = slot;
  ctx.peer = ep.peer;
  ctx.wr = wr;
  tx_.emplace(txid, std::move(ctx));
  if (auto& rec = recorder(); rec.enabled()) {
    // The backlogged bit marks a send the backlog released: the offline
    // replay pairs it with that connection's backlog_dispatch instants.
    std::uint8_t flags = msg_flags(hdr.kind);
    if (hdr.backlogged != 0) flags |= obs::kProfBacklogged;
    if (hdr.optimistic != 0) flags |= obs::kProfOptimistic;
    rec.record(engine().now(), obs::Ev::wire_post, me_, ep.peer, ep.qp->qpn(),
               txid, hdr.payload_bytes, hdr.seq, flags);
  }
  ep.qp->post_send(wr);
}

// --------------------------------------------------------- receive paths --

RequestPtr Device::irecv(Rank src, Tag tag, std::span<std::byte> buffer) {
  progress();  // every MPI entry point advances the engine (as MPICH does)
  charge(kRecvPostOverhead);
  auto req = std::make_shared<Request>();

  if (src != kAnySource) {
    const Endpoint* sep = find_endpoint(src);
    if (sep != nullptr && sep->failed) {
      // Nothing can ever arrive from a dead connection: fail fast rather
      // than park a receive that would hang the rank.
      fail_request(req);
      return req;
    }
  }

  if (auto um = match_.match_posted(src, tag)) {
    if (!um->is_rndv) {
      util::require(um->eager_payload.size() <= buffer.size(),
                    "receive buffer too small (truncation)");
      charge_copy(um->eager_payload.size());
      if (!um->eager_payload.empty())  // zero-byte recv may carry a null buffer
        std::memcpy(buffer.data(), um->eager_payload.data(),
                    um->eager_payload.size());
      req->mark_complete(Status{um->src, um->tag,
                                static_cast<std::uint32_t>(um->eager_payload.size())});
      note_matched(um->src, um->seq, MsgKind::eager_data,
                   static_cast<std::uint32_t>(um->eager_payload.size()), true);
      return req;
    }
    note_matched(um->src, um->seq, MsgKind::rndv_rts, um->rndv_bytes, true);
    begin_recv_rndv(um->src, um->tag, um->rndv_sreq, um->rndv_bytes,
                    buffer.data(), req);
    return req;
  }

  PostedRecv pr;
  pr.src = src;
  pr.tag = tag;
  pr.buffer = buffer.data();
  pr.capacity = static_cast<std::uint32_t>(buffer.size());
  pr.req = req;
  match_.add_posted(std::move(pr));
  return req;
}

void Device::begin_recv_rndv(Rank src, Tag tag, std::uint64_t sreq,
                             std::uint32_t bytes, std::byte* buffer,
                             RequestPtr req) {
  const std::uint64_t id = next_rndv_id_++;
  RecvRndv ctx;
  ctx.src = src;
  ctx.tag = tag;
  ctx.buffer = buffer;
  ctx.bytes = bytes;
  ctx.req = std::move(req);
  if (bytes > 0) ctx.mr = pin(buffer, bytes);
  const auto rkey = ctx.mr.rkey;
  recv_rndv_.emplace(id, std::move(ctx));

  WireHeader hdr;
  hdr.kind = MsgKind::rndv_cts;
  hdr.sreq = sreq;
  hdr.rreq = id;
  hdr.raddr = reinterpret_cast<std::uint64_t>(buffer);
  hdr.rkey = rkey;
  post_wire(ensure_endpoint(src), hdr, {});
}

// ------------------------------------------------------------- progress --

void Device::progress() {
  while (auto wc = cq_->poll()) handle_completion(*wc);
}

void Device::handle_completion(const ib::Completion& wc) {
  // One array read resolves qpn → endpoint: the fabric QPN index entry
  // carries this device's connection slot as its cookie (set at endpoint
  // creation and after every reconnect).
  const ib::Fabric::QpnEntry* qe = world_.fabric().qpn_entry(wc.qp_num);
  if (qe == nullptr || qe->cookie == ib::Fabric::kNoCookie) {
    // Flushed CQE from a QP that recovery already destroyed and replaced.
    // Its tx entry (if any) stays: the replacement QP replays it.
    ++stats_.stale_completions;
    return;
  }
  Endpoint& ep = *conn_[qe->cookie];
  if (!wc.ok()) {
    handle_error_completion(ep, wc);
    return;
  }
  if (wc.opcode == ib::WcOpcode::recv) {
    handle_inbound(ep, wc.wr_id, wc.byte_len);
    return;
  }
  // Send-side completion: bounce release or rendezvous RDMA-write done.
  const auto it = tx_.find(wc.wr_id);
  util::check(it != tx_.end(), "completion for unknown tx");
  const TxCtx ctx = it->second;
  tx_.erase(it);
  if (!ctx.is_rdma_write) {
    release_bounce_slot(ctx.bounce_slot);
    return;
  }
  // RDMA write finished: tell the receiver (FIN) and complete the send.
  auto sit = send_rndv_.find(ctx.rndv_id);
  util::check(sit != send_rndv_.end(), "write completion for unknown rndv");
  SendRndv& sctx = sit->second;
  WireHeader fin;
  fin.kind = MsgKind::rndv_fin;
  fin.rreq = sctx.rreq;
  post_wire(ep_at(sctx.dst), fin, {});
  if (sctx.req) sctx.req->mark_complete();
  erase_send_rndv(sit);
}

// -------------------------------------------------------- fault handling --

void Device::fail_request(const RequestPtr& req) {
  if (req && !req->complete()) {
    req->mark_error();
    ++stats_.requests_failed;
  }
}

void Device::handle_error_completion(Endpoint& ep, const ib::Completion& wc) {
  ++stats_.error_completions;
  const bool reconnect = world_.config().device.auto_reconnect;
  if (wc.opcode != ib::WcOpcode::recv) {
    const auto it = tx_.find(wc.wr_id);
    if (it != tx_.end() && !reconnect) {
      // Permanent failure: retire the message. Under auto_reconnect the
      // entry stays so finish_reconnect can replay the post verbatim.
      const TxCtx ctx = it->second;
      tx_.erase(it);
      if (!ctx.is_rdma_write) {
        release_bounce_slot(ctx.bounce_slot);
      } else if (auto sit = send_rndv_.find(ctx.rndv_id);
                 sit != send_rndv_.end()) {
        fail_request(sit->second.req);
        erase_send_rndv(sit);
      }
    }
  }
  // Recv errors carry no state: the slots are reposted on reconnect or die
  // with the endpoint.
  if (ep.failed || ep.recovering) return;
  if (reconnect) {
    begin_recovery(ep);
  } else {
    fail_endpoint(ep);
  }
}

void Device::fail_endpoint(Endpoint& ep) {
  if (ep.failed) return;
  ep.failed = true;
  ep.famine_rts_inflight = false;
  ++stats_.endpoint_failures;
  // Every request bound to this connection completes now, with error
  // status — the rank keeps running instead of hanging in wait().
  for (auto it = send_rndv_.begin(); it != send_rndv_.end();) {
    if (it->second.dst == ep.peer) {
      fail_request(it->second.req);
      it = erase_send_rndv(it);
    } else {
      ++it;
    }
  }
  for (auto it = recv_rndv_.begin(); it != recv_rndv_.end();) {
    if (it->second.src == ep.peer) {
      fail_request(it->second.req);
      it = recv_rndv_.erase(it);
    } else {
      ++it;
    }
  }
  // Return the backlog slots in the flow-control books before dropping the
  // entries, so entered == dispatched + failed + depth stays balanced (the
  // auditor's backlog cross-check). Without this, a lost optimistic RTS that
  // exhausts transport retries left backlog_entered permanently ahead.
  ep.flow.note_backlog_failed(ep.backlog.size());
  for (BacklogEntry& entry : ep.backlog) fail_request(entry.eager_req);
  ep.backlog.clear();
  for (PostedRecv& pr : match_.extract_posted(ep.peer)) fail_request(pr.req);
}

void Device::begin_recovery(Endpoint& ep) {
  ep.recovering = true;
  const Rank peer = ep.peer;
  engine().schedule_after(kReconnectDelay,
                          [this, peer] { world_.recover_pair(me_, peer); });
}

void Device::prepare_reconnect(Rank peer) {
  Endpoint& ep = ep_at(peer);
  ep.recovering = true;
  ep.famine_rts_inflight = false;
  // Drain the CQ first: messages the old QP delivered but the rank has not
  // polled yet must be applied before their seq numbers are replayed (the
  // sender may have consumed their ACKs and dropped them from tx_).
  // Engine-event context — host-time charging is illegal here.
  allow_charge_ = false;
  while (auto wc = cq_->poll()) handle_completion(*wc);
  allow_charge_ = true;
  ep.retired_qp.accumulate(ep.qp->stats());
  ep.qp->modify_error();
  hca_->destroy_qp(ep.qp->qpn());  // unbinds the QPN index entry + cookie
  ep.qp = hca_->create_qp(cq_, cq_);
  world_.fabric().set_qpn_cookie(
      ep.qp->qpn(),
      static_cast<std::uint32_t>(peer_index_[static_cast<std::size_t>(peer)]));
}

void Device::finish_reconnect(Rank peer, int peer_posted) {
  Endpoint& ep = ep_at(peer);
  util::check(ep.qp->connected(), "finish_reconnect before connect");
  // Repost the receive pool on the fresh QP (the old QP flushed or lost
  // every posted buffer).
  for (std::size_t i = 0; i < ep.slots.size(); ++i) post_slot(ep, i);
  // Replay every wire message the old QP never acknowledged, in original
  // post order (tx ids are monotonic). Piggybacked credits are zeroed: the
  // credit exchange restarts from the reposted pool, and a stale grant
  // would double-count. Duplicates are filtered by the receiver's rx_seq.
  int credited_replays = 0;
  allow_charge_ = false;
  for (auto& [txid, ctx] : tx_) {
    if (ctx.peer != peer) continue;
    if (!ctx.is_rdma_write) {
      WireHeader hdr = read_header(bounce_addr(ctx.bounce_slot));
      if (is_credited(hdr.kind) && hdr.optimistic == 0) ++credited_replays;
      hdr.piggyback_credits = 0;
      write_header(bounce_addr(ctx.bounce_slot), hdr);
    }
    ep.qp->post_send(ctx.wr);
    ++stats_.replayed_wire_msgs;
  }
  // The peer reposted its whole pool, so our credits restart at its pool
  // size minus the credited messages we just put back in flight.
  ep.flow.reconnect_reset(peer_posted - credited_replays +
                              world_.config().device.debug_skew_reconnect_credit,
                          credited_replays);
  if (auto& rec = recorder(); rec.enabled()) {
    rec.record(engine().now(), obs::Ev::credit_reset, me_, peer, ep.qp->qpn(),
               static_cast<std::uint64_t>(credited_replays), ep.flow.credits());
  }
  ep.failed = false;
  ep.recovering = false;
  ++stats_.reconnects;
  drain_backlog(ep);
  allow_charge_ = true;
}

void Device::handle_inbound(Endpoint& ep, std::uint64_t slot_idx,
                            std::uint32_t byte_len) {
  (void)byte_len;
  // Copy, not reference: growing the pool below reallocates ep.slots.
  const RecvSlot slot = ep.slots.at(slot_idx);
  const WireHeader hdr = read_header(slot.addr);
  // The wire-arrival instant precedes any handling overhead, so the stream
  // stays in time order. Replayed duplicates arrive too; the offline
  // replay keeps each sequence's first arrival, the one applied below.
  if (auto& rec = recorder(); rec.enabled()) {
    rec.record(engine().now(), obs::Ev::wire_arrive, me_, ep.peer,
               ep.qp->qpn(), 0, hdr.payload_bytes, hdr.seq,
               msg_flags(hdr.kind));
  }
  switch (hdr.kind) {
    case MsgKind::eager_data: charge(kEagerHandleOverhead); break;
    case MsgKind::rndv_rts: charge(kRtsHandleOverhead); break;
    default: charge(kCtrlHandleOverhead); break;
  }

  if (hdr.seq != ep.rx_seq) {
    // Reconnect replays the sender's unacked tail, so older sequence
    // numbers reappear; apply each exactly once. A *gap* would mean a
    // message was truly lost — the reliability layer must never allow it.
    util::check(hdr.seq < ep.rx_seq, "wire sequence gap (message lost)");
    ++stats_.duplicate_wire_msgs;
    // The buffer still goes back to the pool, and a credited duplicate
    // still returns a credit: the sender counted it against the reposted
    // pool when it replayed.
    post_slot(ep, slot_idx);
    if (is_credited(hdr.kind) && hdr.optimistic == 0 &&
        ep.flow.on_credited_repost()) {
      send_ecm(ep);
    }
    return;
  }
  ++ep.rx_seq;

  if (hdr.piggyback_credits > 0) {
    ep.flow.add_credits(hdr.piggyback_credits);
    if (auto& rec = recorder(); rec.enabled()) {
      // The granting message's sequence and kind name the causal
      // predecessor of the next send this grant releases.
      rec.record(engine().now(), obs::Ev::credit_grant, me_, ep.peer,
                 ep.qp->qpn(), static_cast<std::uint64_t>(hdr.piggyback_credits),
                 ep.flow.credits(), hdr.seq,
                 hdr.kind == MsgKind::credit ? obs::kProfGrantEcm : 0);
    }
  }
  if (hdr.backlogged != 0) {
    const int extra = ep.flow.on_backlogged_flag();
    if (extra > 0) grow_recv_slots(ep, extra);
  }

  switch (hdr.kind) {
    case MsgKind::eager_data:
      deliver_eager(ep, hdr, slot.addr + kHeaderBytes);
      break;
    case MsgKind::rndv_rts: handle_rts(ep, hdr); break;
    case MsgKind::rndv_cts: handle_cts(ep, hdr); break;
    case MsgKind::rndv_fin: handle_fin(ep, hdr); break;
    case MsgKind::credit: break;  // piggyback field already consumed
  }

  // Re-post the buffer immediately (paper §3.2), return the credit, and
  // fire an ECM if the accumulation threshold is reached.
  post_slot(ep, slot_idx);
  if (is_credited(hdr.kind) && hdr.optimistic == 0 &&
      ep.flow.on_credited_repost()) {
    send_ecm(ep);
  }
  stats_.max_unexpected = std::max(stats_.max_unexpected, match_.unexpected_count());
  drain_backlog(ep);
  // Inline audit (MVFLOW_AUDIT=1): check both directions of this pair
  // after every delivered message — violations surface at the exact event
  // that introduced them.
  if (audit_inline_) world_.audit_pair(me_, ep.peer);
}

void Device::deliver_eager(Endpoint& ep, const WireHeader& hdr,
                           const std::byte* payload) {
  charge_copy(hdr.payload_bytes);
  if (auto pr = match_.match_inbound(ep.peer, hdr.tag)) {
    util::require(hdr.payload_bytes <= pr->capacity,
                  "receive buffer too small (truncation)");
    if (hdr.payload_bytes > 0)  // zero-byte recv may carry a null buffer
      std::memcpy(pr->buffer, payload, hdr.payload_bytes);
    pr->req->mark_complete(Status{ep.peer, hdr.tag, hdr.payload_bytes});
    note_matched(ep.peer, hdr.seq, hdr.kind, hdr.payload_bytes, false);
    return;
  }
  UnexpectedMsg um;
  um.src = ep.peer;
  um.tag = hdr.tag;
  um.seq = hdr.seq;
  um.eager_payload.assign(payload, payload + hdr.payload_bytes);
  match_.add_unexpected(std::move(um));
}

void Device::handle_rts(Endpoint& ep, const WireHeader& hdr) {
  if (auto pr = match_.match_inbound(ep.peer, hdr.tag)) {
    util::require(hdr.payload_bytes <= pr->capacity,
                  "receive buffer too small (truncation)");
    note_matched(ep.peer, hdr.seq, hdr.kind, hdr.payload_bytes, false);
    begin_recv_rndv(ep.peer, hdr.tag, hdr.sreq, hdr.payload_bytes, pr->buffer,
                    pr->req);
    return;
  }
  UnexpectedMsg um;
  um.src = ep.peer;
  um.tag = hdr.tag;
  um.seq = hdr.seq;
  um.is_rndv = true;
  um.rndv_bytes = hdr.payload_bytes;
  um.rndv_sreq = hdr.sreq;
  match_.add_unexpected(std::move(um));
}

void Device::handle_cts(Endpoint& ep, const WireHeader& hdr) {
  ep.famine_rts_inflight = false;  // the handshake reached the peer
  auto it = send_rndv_.find(hdr.sreq);
  util::check(it != send_rndv_.end(), "CTS for unknown rendezvous");
  SendRndv& ctx = it->second;
  ctx.rreq = hdr.rreq;
  if (ctx.data.empty()) {
    // Zero-byte rendezvous: nothing to write, go straight to FIN.
    WireHeader fin;
    fin.kind = MsgKind::rndv_fin;
    fin.rreq = hdr.rreq;
    post_wire(ep, fin, {});
    if (ctx.req) ctx.req->mark_complete();
    erase_send_rndv(it);
    return;
  }
  const std::uint64_t txid = next_tx_id_++;
  ib::SendWr wr;
  wr.wr_id = txid;
  wr.opcode = ib::WrOpcode::rdma_write;
  wr.local_addr = ctx.data.data();
  wr.length = static_cast<std::uint32_t>(ctx.data.size());
  wr.lkey = ctx.mr.lkey;
  wr.remote_addr = reinterpret_cast<std::byte*>(hdr.raddr);
  wr.rkey = hdr.rkey;
  TxCtx tctx;
  tctx.is_rdma_write = true;
  tctx.rndv_id = hdr.sreq;
  tctx.peer = ep.peer;
  tctx.wr = wr;
  tx_.emplace(txid, std::move(tctx));
  ep.qp->post_send(wr);
}

void Device::handle_fin(Endpoint& ep, const WireHeader& hdr) {
  (void)ep;
  auto it = recv_rndv_.find(hdr.rreq);
  util::check(it != recv_rndv_.end(), "FIN for unknown rendezvous");
  RecvRndv& ctx = it->second;
  ctx.req->mark_complete(Status{ctx.src, ctx.tag, ctx.bytes});
  recv_rndv_.erase(it);
}

// ------------------------------------------------------------- blocking --

void Device::wait(const RequestPtr& req) {
  util::require(req != nullptr, "wait on null request");
  // Handle one completion at a time and re-check: a steady inbound stream
  // must not keep wait() inside the progress engine past the completion of
  // `req` (MPI_Wait returns as soon as its request is done; later traffic
  // is handled by later MPI calls).
  while (!req->complete()) {
    if (auto wc = cq_->poll()) {
      handle_completion(*wc);
      continue;
    }
    cq_->nonempty().wait(*proc_);
  }
}

void Device::note_matched(Rank src, std::uint64_t seq, MsgKind kind,
                          std::uint32_t bytes, bool unexpected) {
  if (auto& rec = recorder(); rec.enabled()) {
    std::uint8_t flags = msg_flags(kind);
    if (unexpected) flags |= obs::kProfUnexpected;
    rec.record(engine().now(), obs::Ev::msg_matched, me_, src,
               ep_at(src).qp->qpn(), 0, bytes, seq, flags);
  }
}

// --------------------------------------------------------- introspection --

const flowctl::ConnectionFlow& Device::flow(Rank peer) const {
  return ep_at(peer).flow;
}

flowctl::ConnectionFlow& Device::debug_flow(Rank peer) {
  return ep_at(peer).flow;
}

Device::EndpointProbe Device::probe(Rank peer) const {
  const Endpoint& ep = ep_at(peer);
  EndpointProbe p;
  p.active = ep.active;
  p.failed = ep.failed;
  p.recovering = ep.recovering;
  p.famine_rts_inflight = ep.famine_rts_inflight;
  p.backlog_depth = ep.backlog.size();
  p.tx_seq = ep.tx_seq;
  p.rx_seq = ep.rx_seq;
  p.slots = ep.slots.size();
  if (ep.qp) {
    const ib::QpStats& qs = ep.qp->stats();
    p.wqes_posted = qs.recv_wqes_posted;
    p.wqes_completed = qs.recv_wqes_completed;
    p.wqes_flushed = qs.recv_wqes_flushed;
    p.recvq_depth = ep.qp->posted_recv_count();
    p.assembly_holds_wqe = ep.qp->rx_assembly_holds_wqe();
    p.retx_armed = ep.qp->retx_timer_armed();
    p.rnr_waiting = ep.qp->rnr_waiting();
  }
  return p;
}

ib::QpStats Device::qp_stats(Rank peer) const {
  const Endpoint& ep = ep_at(peer);
  ib::QpStats out = ep.retired_qp;
  out.accumulate(ep.qp->stats());
  out.last_advertised_credits = ep.qp->stats().last_advertised_credits;
  return out;
}

std::vector<Rank> Device::peers() const { return peer_ranks_; }

void Device::serialize_state(util::serial::BufWriter& w) const {
  w.i32(me_);
  w.u64(stats_.eager_sent);
  w.u64(stats_.rndv_started);
  w.u64(stats_.small_converted_to_rndv);
  w.u64(stats_.payload_bytes_sent);
  w.u64(stats_.reg_cache_hits);
  w.u64(stats_.reg_cache_misses);
  w.u64(stats_.max_unexpected);
  w.u64(stats_.error_completions);
  w.u64(stats_.stale_completions);
  w.u64(stats_.duplicate_wire_msgs);
  w.u64(stats_.replayed_wire_msgs);
  w.u64(stats_.endpoint_failures);
  w.u64(stats_.reconnects);
  w.u64(stats_.requests_failed);

  match_.serialize_state(w);

  // Endpoints in rank order (peer_ranks_ is sorted), matching the byte
  // layout the old std::map iteration produced.
  w.u64(peer_ranks_.size());
  for (const Rank peer : peer_ranks_) {
    const Endpoint* ep = find_endpoint(peer);
    w.i32(peer);
    w.b(ep->active);
    w.b(ep->famine_rts_inflight);
    w.b(ep->failed);
    w.b(ep->recovering);
    w.u64(ep->tx_seq);
    w.u64(ep->rx_seq);
    w.u64(ep->slots.size());
    w.u64(ep->backlog.size());
    for (const BacklogEntry& be : ep->backlog) {
      w.u8(static_cast<std::uint8_t>(be.hdr.kind));
      w.u8(be.hdr.backlogged);
      w.u8(be.hdr.optimistic);
      w.i32(be.hdr.src_rank);
      w.i32(be.hdr.tag);
      w.u32(be.hdr.payload_bytes);
      w.u64(be.hdr.sreq);
      w.u64(be.payload.size());
    }
    ep->flow.serialize_state(w);
    if (ep->qp) {
      w.b(true);
      ep->qp->serialize_state(w);
    } else {
      w.b(false);
    }
    // Stats carried over from QPs retired by recovery.
    w.u64(ep->retired_qp.messages_sent);
    w.u64(ep->retired_qp.retransmitted_messages);
    w.u64(ep->retired_qp.rnr_naks_received);
    w.u64(ep->retired_qp.packets_dropped);
  }

  // Outstanding-operation tables: the keys (and allocators) pin the exact
  // identity of every in-flight op.
  w.u64(next_tx_id_);
  w.u64(tx_.size());
  for (const auto& [id, ctx] : tx_) {
    w.u64(id);
    w.b(ctx.is_rdma_write);
    w.i32(ctx.peer);
  }
  w.u64(next_rndv_id_);
  w.u64(send_rndv_.size());
  for (const auto& [id, sr] : send_rndv_) {
    w.u64(id);
    w.i32(sr.dst);
    w.u64(sr.data.size());
    w.u64(sr.rreq);
  }
  w.u64(recv_rndv_.size());
  for (const auto& [id, rr] : recv_rndv_) {
    w.u64(id);
    w.i32(rr.src);
    w.i32(rr.tag);
    w.u32(rr.bytes);
  }
  w.u64(reg_cache_.size());
}

}  // namespace mvflow::mpi
