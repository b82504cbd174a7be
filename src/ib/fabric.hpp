// The InfiniBand fabric: N processing nodes, each with an HCA, attached by
// point-to-point links to one central switch (the paper's testbed topology:
// 8 nodes on one InfiniScale). Links are FIFO-serialized in each direction
// and the switch is store-and-forward plus a fixed forwarding delay, so
// bandwidth contention, head-of-line effects, and NAK/retransmit waste are
// all visible in simulated time. Every node schedules on the one engine
// the fabric was built with (DESIGN.md §14), and every QP and device on
// the fabric reports to the fabric's flight recorder (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <vector>

#include "ib/config.hpp"
#include "ib/hca.hpp"
#include "ib/packet.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/resource.hpp"
#include "util/rng.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::ib {

/// `packets`/`wire_bytes` count transmit attempts (the sender serializes a
/// packet onto its uplink whether or not a fault later eats it); the fault
/// counters record what never reached the destination HCA.
struct FabricStats {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t control_packets = 0;  // ACK/NAK
  // Fault injector, per kind:
  std::uint64_t lost_packets = 0;          // random loss
  std::uint64_t corrupted_packets = 0;     // delivered with corrupted=true
  std::uint64_t flap_dropped_packets = 0;  // black-holed by a link flap
  std::uint64_t scripted_faults_fired = 0; // one-shot scripted drop/corrupt

  bool operator==(const FabricStats&) const = default;

  /// Enumerate every counter as (name, value) for a metrics sink.
  template <typename Fn>
  void visit(Fn&& f) const {
    f("packets", static_cast<double>(packets));
    f("wire_bytes", static_cast<double>(wire_bytes));
    f("data_packets", static_cast<double>(data_packets));
    f("control_packets", static_cast<double>(control_packets));
    f("lost_packets", static_cast<double>(lost_packets));
    f("corrupted_packets", static_cast<double>(corrupted_packets));
    f("flap_dropped_packets", static_cast<double>(flap_dropped_packets));
    f("scripted_faults_fired", static_cast<double>(scripted_faults_fired));
  }
};

class Fabric {
 public:
  Fabric(sim::Engine& engine, FabricConfig config, int num_nodes);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  Hca& hca(int node);
  int num_nodes() const noexcept { return static_cast<int>(nodes_.size()); }
  /// The engine every node's HCA, QPs and CQs schedule on.
  sim::Engine& engine() noexcept { return engine_; }
  const FabricConfig& config() const noexcept { return config_; }

  /// The one sink every QP and device on this fabric reports to, reached
  /// through the HCA (`hca.fabric().recorder()`). It starts disarmed, and
  /// a disarmed recorder costs each instrumentation site one predictable
  /// branch; arm it with enable() before the traffic it should see.
  obs::FlightRecorder& recorder() noexcept { return recorder_; }

  /// Connect two QPs into an RC pair (both transition to ready).
  static void connect(QueuePair& a, QueuePair& b);

  /// Connect a QP to itself (same-process loopback endpoint).
  static void connect_loopback(QueuePair& q);

  /// Wire/fault counters for the whole fabric.
  FabricStats stats() const noexcept { return stats_; }

  /// Message-pool counters aggregated over every HCA (hit rate ≈ 1.0 after
  /// warmup is the zero-alloc steady-state invariant).
  MessageDataPool::Stats msg_pool_stats() const;

  /// Link utilization of a node's uplink (toward the switch).
  sim::Duration uplink_busy(int node) const { return up_.at(node).total_busy(); }

  // ---- internal, used by QueuePair ----
  QpNumber alloc_qpn() { return next_qpn_++; }

  // ---- fabric-global QPN index (O(1) per-packet lookup) ----------------
  //
  // QPNs are allocated fabric-globally and monotonically from kFirstQpn,
  // so one flat vector maps any QPN to its owning node, its dense slot in
  // that node's HCA, and an owner-set cookie (the MPI device stores its
  // endpoint slot there, collapsing the per-completion qpn→peer→endpoint
  // chain to one array read). On-demand connect and reconnect create and
  // destroy QPs mid-run, so entries are bound and unbound from engine
  // context as well as at setup.
  static constexpr QpNumber kFirstQpn = 100;
  static constexpr std::uint32_t kNoCookie = 0xffffffffu;
  struct QpnEntry {
    std::int32_t node = -1;  // -1 = never allocated or destroyed
    std::uint32_t slot = 0;  // dense index into the owning HCA's qps_
    std::uint32_t cookie = kNoCookie;
  };

  void bind_qpn(QpNumber qpn, int node, std::uint32_t slot) {
    const std::size_t i = static_cast<std::size_t>(qpn - kFirstQpn);
    if (i >= qpn_index_.size()) qpn_index_.resize(i + 1);
    qpn_index_[i] = QpnEntry{node, slot, kNoCookie};
  }
  void unbind_qpn(QpNumber qpn) {
    qpn_index_[static_cast<std::size_t>(qpn - kFirstQpn)] = QpnEntry{};
  }
  /// nullptr when the QPN was never allocated or has been destroyed.
  const QpnEntry* qpn_entry(QpNumber qpn) const noexcept {
    const std::size_t i = static_cast<std::size_t>(qpn - kFirstQpn);
    if (qpn < kFirstQpn || i >= qpn_index_.size()) return nullptr;
    const QpnEntry& e = qpn_index_[i];
    return e.node < 0 ? nullptr : &e;
  }
  void set_qpn_cookie(QpNumber qpn, std::uint32_t cookie) {
    qpn_index_[static_cast<std::size_t>(qpn - kFirstQpn)].cookie = cookie;
  }

  /// Put a packet on the wire from src_node no earlier than `earliest`;
  /// schedules its delivery at the destination HCA.
  void transmit(int src_node, int dst_node, Packet pkt, sim::TimePoint earliest);

  /// Wire size of a packet (payload + per-kind overhead).
  std::uint32_t wire_bytes(const Packet& pkt) const;

  // ---- fault recording (chaos-campaign failing-seed minimization) ----
  /// One fault the injector actually fired, in replayable scripted form:
  /// `fault` targets exactly the packet that was hit (src/dst/kind pinned,
  /// skip = un-faulted survivors of that filter at fire time), so replaying
  /// the run with loss/corrupt probabilities zeroed and the recorded list
  /// as the scripted plan reproduces the identical fault sequence.
  struct RecordedFault {
    sim::TimePoint at{sim::Duration{0}};
    ScriptedFault fault;
  };
  /// Arm recording (off by default: the log costs a map lookup per packet).
  void enable_fault_recording();
  /// Every fired fault, in chronological order of its `at` time.
  std::vector<RecordedFault> recorded_faults() const;

  /// Serialize the fabric's complete state for the snapshot restore audit:
  /// wire/fault counters, QPN allocator, fault-injector RNG stream and
  /// scripted-fault progress, per-node link occupancy, and each HCA's
  /// registry and message-pool bookkeeping.
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  void deliver(int node, const Packet& pkt);

  /// True when a scheduled flap has `node`'s links dark at time t.
  bool link_down(int node, sim::TimePoint t) const;

  /// Applies the fault plan to a packet about to be scheduled for delivery.
  /// Returns false when the packet is consumed by a fault (drop); may set
  /// pkt.corrupted. Only called when config_.fault.active(). `when`
  /// timestamps the fault log entry for the chronological sort.
  bool apply_faults(int src_node, int dst_node, Packet& pkt,
                    sim::TimePoint when);
  void record_fault(int src_node, int dst_node, const Packet& pkt,
                    sim::TimePoint when, bool corrupt);

  struct ScriptedState {
    std::uint64_t seen = 0;
    bool fired = false;
  };

  sim::Engine& engine_;
  FabricConfig config_;
  std::vector<std::unique_ptr<Hca>> nodes_;
  std::vector<sim::Resource> up_;    // node -> switch
  std::vector<sim::Resource> down_;  // switch -> node
  QpNumber next_qpn_ = kFirstQpn;  // fabric-global, never reused
  std::vector<QpnEntry> qpn_index_;  // (qpn - kFirstQpn) -> owner; see above
  FabricStats stats_;
  util::Xoshiro256 fault_rng_;
  std::vector<ScriptedState> scripted_;

  /// Fault log in fire order. `passed_` counts the *un-faulted* survivors
  /// per (src, dst, kind) — exactly the skip a replayed scripted fault
  /// needs.
  bool record_faults_ = false;
  std::vector<RecordedFault> fired_;
  std::map<std::tuple<int, int, PacketKind>, std::uint64_t> passed_;

  // Last, so the per-packet state above stays packed into the same cache
  // lines: placed before nodes_, the sinks slowed perfbench's verbs_ring by
  // ~6% on a 4-vCPU x86-64 VM. No QP reports while the fabric is torn
  // down. Not part of serialize_state: snapshots carry the recorder as a
  // section of its own (DESIGN.md §13).
  obs::FlightRecorder recorder_;
};

}  // namespace mvflow::ib
