#include "ib/fabric.hpp"

#include <algorithm>
#include <utility>

#include "util/check.hpp"
#include "util/serial.hpp"

namespace mvflow::ib {

Fabric::Fabric(sim::Engine& engine, FabricConfig config, int num_nodes)
    : engine_(engine),
      config_(std::move(config)),
      up_(num_nodes),
      down_(num_nodes),
      fault_rng_(config_.fault.seed),
      scripted_(config_.fault.scripted.size()) {
  util::require(num_nodes > 0, "fabric needs at least one node");
  util::require(config_.mtu >= 256, "MTU too small");
  nodes_.reserve(num_nodes);
  for (int i = 0; i < num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Hca>(*this, i));
  }
}

Hca& Fabric::hca(int node) {
  util::require(node >= 0 && node < num_nodes(), "node id out of range");
  return *nodes_[static_cast<std::size_t>(node)];
}

void Fabric::connect(QueuePair& a, QueuePair& b) {
  a.set_remote(b.hca_.node_id(), b.qpn());
  b.set_remote(a.hca_.node_id(), a.qpn());
}

void Fabric::connect_loopback(QueuePair& q) {
  q.set_remote(q.hca_.node_id(), q.qpn());
}

std::uint32_t Fabric::wire_bytes(const Packet& pkt) const {
  switch (pkt.kind) {
    case PacketKind::data:
    case PacketKind::rdma_read_resp:
      return pkt.payload_bytes + config_.data_header_bytes;
    case PacketKind::rdma_read_req:
      return config_.data_header_bytes + 16;  // reth: addr + rkey + len
    case PacketKind::ack:
    case PacketKind::rnr_nak:
    case PacketKind::access_nak:
    case PacketKind::seq_nak:
      return config_.ack_bytes;
  }
  return config_.ack_bytes;
}

bool Fabric::link_down(int node, sim::TimePoint t) const {
  for (const LinkFlap& f : config_.fault.flaps) {
    if (f.node == node && t >= f.down && t < f.up) return true;
  }
  return false;
}

void Fabric::enable_fault_recording() {
  record_faults_ = true;
  fired_.clear();
  passed_.clear();
}

void Fabric::record_fault(int src_node, int dst_node, const Packet& pkt,
                          sim::TimePoint when, bool corrupt) {
  if (!record_faults_) return;
  RecordedFault rf;
  rf.at = when;
  rf.fault.src_node = src_node;
  rf.fault.dst_node = dst_node;
  rf.fault.kind = static_cast<int>(pkt.kind);
  rf.fault.skip = passed_[{src_node, dst_node, pkt.kind}];
  rf.fault.corrupt = corrupt;
  fired_.push_back(rf);
}

std::vector<Fabric::RecordedFault> Fabric::recorded_faults() const {
  // Chronological by `at`, then source node. The sort is stable, so the
  // entries of one (src, dst, kind) filter keep their fire order — which
  // is all a replayed script needs.
  std::vector<RecordedFault> out = fired_;
  std::stable_sort(out.begin(), out.end(),
                   [](const RecordedFault& a, const RecordedFault& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.fault.src_node < b.fault.src_node;
                   });
  return out;
}

bool Fabric::apply_faults(int src_node, int dst_node, Packet& pkt,
                          sim::TimePoint when) {
  const FaultConfig& fc = config_.fault;
  const bool was_corrupted = pkt.corrupted;
  // Scripted one-shots first: deterministic targeting for tests. `seen`
  // counts exactly the packets that match a script's src/dst/kind filter.
  for (std::size_t i = 0; i < fc.scripted.size(); ++i) {
    const ScriptedFault& f = fc.scripted[i];
    if (f.src_node >= 0 && f.src_node != src_node) continue;
    if (f.dst_node >= 0 && f.dst_node != dst_node) continue;
    if (f.kind >= 0 && f.kind != static_cast<int>(pkt.kind)) continue;
    ScriptedState& st = scripted_[i];
    if (st.fired) continue;
    if (st.seen++ < f.skip) continue;
    st.fired = true;
    ++stats_.scripted_faults_fired;
    if (!f.corrupt) {
      record_fault(src_node, dst_node, pkt, when, false);
      return false;
    }
    pkt.corrupted = true;
    ++stats_.corrupted_packets;
    record_fault(src_node, dst_node, pkt, when, true);
    break;
  }
  if (fc.loss_prob > 0.0 && fault_rng_.uniform() < fc.loss_prob) {
    ++stats_.lost_packets;
    record_fault(src_node, dst_node, pkt, when, false);
    return false;
  }
  if (!pkt.corrupted && fc.corrupt_prob > 0.0 &&
      fault_rng_.uniform() < fc.corrupt_prob) {
    pkt.corrupted = true;
    ++stats_.corrupted_packets;
    record_fault(src_node, dst_node, pkt, when, true);
  }
  if (record_faults_ && pkt.corrupted == was_corrupted) {
    // Un-faulted survivor: advances the skip a future recorded fault on
    // this (src, dst, kind) filter will need. Faulted packets deliberately
    // do not count — a replayed drop/corrupt stops the scripted loop, so
    // the replay's `seen` never counts them either.
    ++passed_[{src_node, dst_node, pkt.kind}];
  }
  return true;
}

void Fabric::transmit(int src_node, int dst_node, Packet pkt,
                      sim::TimePoint earliest) {
  util::require(dst_node >= 0 && dst_node < num_nodes(),
                "transmit to unknown node");
  const std::uint32_t wire = wire_bytes(pkt);
  const sim::Duration ser =
      config_.per_packet_tx + sim::transfer_time(wire, config_.bandwidth_bps);

  ++stats_.packets;
  stats_.wire_bytes += wire;
  if (pkt.kind == PacketKind::ack || pkt.kind == PacketKind::rnr_nak ||
      pkt.kind == PacketKind::access_nak ||
      pkt.kind == PacketKind::seq_nak) {
    ++stats_.control_packets;
  } else {
    ++stats_.data_packets;
  }

  const bool faults = config_.fault.active();

  if (src_node == dst_node) {
    // HCA loopback: through the adapter only, no switch hop.
    const sim::TimePoint start = up_[src_node].reserve(earliest, ser);
    if (faults && link_down(src_node, start)) {
      ++stats_.flap_dropped_packets;
      return;
    }
    const sim::TimePoint arrive = start + ser + config_.rx_process;
    if (faults && !apply_faults(src_node, dst_node, pkt, start)) return;
    auto delivery =
        [this, dst_node, p = std::move(pkt)] { deliver(dst_node, p); };
    static_assert(sizeof(delivery) <= sim::Engine::kEventInlineBytes,
                  "packet-delivery closure no longer fits the engine's inline "
                  "event storage");
    engine_.schedule_at(arrive, std::move(delivery));
    return;
  }

  const sim::TimePoint up_start = up_[src_node].reserve(earliest, ser);
  const sim::TimePoint at_switch = up_start + ser + config_.wire_latency;

  // A dark link eats the packet: the sender still serialized it onto its
  // uplink (it cannot know the link state), but nothing reaches the
  // switch's output port, so the downlink is not reserved.
  if (faults && (link_down(src_node, up_start) ||
                 link_down(dst_node, at_switch + config_.switch_latency))) {
    ++stats_.flap_dropped_packets;
    return;
  }
  // Store-and-forward: the switch starts forwarding after the packet is
  // fully received, plus its forwarding latency, subject to the output
  // port being free.
  const sim::TimePoint down_start =
      down_[dst_node].reserve(at_switch + config_.switch_latency, ser);
  const sim::TimePoint arrive =
      down_start + ser + config_.wire_latency + config_.rx_process;

  if (faults && !apply_faults(src_node, dst_node, pkt, up_start)) return;

  // The packet (and its pooled-message reference) moves into the event's
  // inline storage: no payload copy, no refcount churn, no allocation per
  // hop. The static_assert keeps this closure inside the engine's inline
  // buffer — growing Packet past it should be a conscious decision.
  auto delivery = [this, dst_node, p = std::move(pkt)] { deliver(dst_node, p); };
  static_assert(sizeof(delivery) <= sim::Engine::kEventInlineBytes,
                "packet-delivery closure no longer fits the engine's inline "
                "event storage");
  engine_.schedule_at(arrive, std::move(delivery));
}

MessageDataPool::Stats Fabric::msg_pool_stats() const {
  MessageDataPool::Stats total;
  for (const auto& node : nodes_) {
    const MessageDataPool::Stats& s = node->msg_pool().stats();
    total.acquires += s.acquires;
    total.reuses += s.reuses;
    total.allocs += s.allocs;
  }
  return total;
}

void Fabric::serialize_state(util::serial::BufWriter& w) const {
  w.u32(next_qpn_);
  stats_.visit([&w](std::string_view, double v) { w.f64(v); });
  // The fault injector's RNG stream: its position is the whole point — two
  // runs that consumed a different number of draws have diverged even if
  // every counter happens to match.
  for (std::uint64_t word : fault_rng_.state()) w.u64(word);
  w.u64(scripted_.size());
  for (const ScriptedState& s : scripted_) {
    w.u64(s.seen);
    w.b(s.fired);
  }
  // Per-node link occupancy (both directions) and HCA-level bookkeeping.
  w.u64(nodes_.size());
  const auto put_resource = [&w](const sim::Resource& r) {
    w.i64(r.busy_until().count());
    w.i64(r.total_busy().count());
    w.u64(r.uses());
  };
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    put_resource(up_[i]);
    put_resource(down_[i]);
    const Hca& hca = *nodes_[i];
    w.u64(hca.memory().region_count());
    w.u64(hca.memory().registered_bytes());
    const MessageDataPool::Stats& ps = hca.msg_pool().stats();
    w.u64(ps.acquires);
    w.u64(ps.reuses);
    w.u64(ps.allocs);
    w.u64(hca.msg_pool().outstanding());
  }
}

void Fabric::deliver(int node, const Packet& pkt) {
  QueuePair* qp = nodes_[static_cast<std::size_t>(node)]->find_qp(pkt.dst_qpn);
  if (qp != nullptr) qp->rx_packet(pkt);
  // A destroyed QP silently drops traffic, like a real torn-down connection.
}

}  // namespace mvflow::ib
