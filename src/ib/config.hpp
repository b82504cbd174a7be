// Fabric calibration constants and the fabric's settings.
//
// The constants approximate the paper's testbed: Mellanox InfiniHost 4X
// HCAs (10 Gb/s signalling, 8 Gb/s data) behind PCI-X 64/133 (the practical
// bottleneck, ~800 MB/s), one InfiniScale switch hop, 2 KB path MTU.
// DESIGN.md §4 tabulates them with their derivation. FabricConfig keeps
// only what an experiment varies: the RNR timer, the transport timer and
// its retry limit, and the fault plan.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mvflow::ib {

/// One scheduled link outage: the named node's links (both directions)
/// black-hole every packet with `down <= t < up`.
struct LinkFlap {
  int node = 0;
  sim::TimePoint down{sim::Duration{0}};
  sim::TimePoint up{sim::Duration{0}};
};

/// One-shot targeted fault for tests: fires on the (skip+1)-th packet
/// matching the (src, dst, kind) filter, then disarms.
struct ScriptedFault {
  int src_node = -1;       ///< -1 matches any source node.
  int dst_node = -1;       ///< -1 matches any destination node.
  int kind = -1;           ///< -1 any, else static_cast<int>(PacketKind).
  std::uint64_t skip = 0;  ///< Matching packets to let through first.
  bool corrupt = false;    ///< Corrupt (deliver CRC-failed) instead of drop.
};

/// Deterministic fault-injection plan. Random faults draw from a dedicated
/// Xoshiro256** stream seeded here, so a given (config, workload) pair
/// always produces the same drops. With everything at its default the
/// injector is completely inert: no RNG draws, no extra branches taken on
/// the calibrated happy path.
struct FaultConfig {
  std::uint64_t seed = 0x5eedfa17u;
  double loss_prob = 0.0;     ///< Per-packet silent-drop probability.
  double corrupt_prob = 0.0;  ///< Per-packet CRC-corruption probability.
  std::vector<LinkFlap> flaps;
  std::vector<ScriptedFault> scripted;

  bool active() const {
    return loss_prob > 0.0 || corrupt_prob > 0.0 || !flaps.empty() ||
           !scripted.empty();
  }
};

/// Effective per-direction bandwidth in bytes/second: the PCI-X DMA rate,
/// below the 4X link's 1 GB/s data rate.
inline constexpr double kBandwidthBps = 800e6;

/// Propagation delay per hop (node <-> switch cable + PHY).
inline constexpr sim::Duration kWireLatency = sim::nanoseconds(250);

/// Switch forwarding latency (InfiniScale class, cut-through ~200 ns; we
/// model store-and-forward plus this constant).
inline constexpr sim::Duration kSwitchLatency = sim::nanoseconds(200);

/// Path MTU: maximum payload bytes per packet.
inline constexpr std::uint32_t kMtu = 2048;

/// Per-data-packet wire overhead (LRH+BTH+CRCs and friends).
inline constexpr std::uint32_t kDataHeaderBytes = 48;

/// Wire size of ACK / NAK packets.
inline constexpr std::uint32_t kAckBytes = 64;

/// HCA work-request fetch/processing time per message at the sender.
inline constexpr sim::Duration kTxWqeProcess = sim::nanoseconds(500);

/// Additional TX engine occupancy per packet (descriptor, DMA setup).
inline constexpr sim::Duration kPerPacketTx = sim::nanoseconds(150);

/// Receiver-side processing from last packet to CQE visibility.
inline constexpr sim::Duration kRxProcess = sim::nanoseconds(400);

/// Ceiling for the exponential backoff applied to transport_timeout on
/// consecutive unacknowledged retries (doubles each attempt).
inline constexpr sim::Duration kTransportTimeoutCap = sim::milliseconds(5);

struct FabricConfig {
  /// Receiver-Not-Ready retry timer: how long a requester waits after an
  /// RNR NAK before replaying the message. IB encodes discrete values from
  /// 10 us up to 655 ms; MPI implementations pick small ones. RNR retries
  /// are unlimited, as the paper's hardware-based scheme sets them (§4).
  sim::Duration rnr_timeout = sim::microseconds(20);

  /// Transport (ACK) retransmission timeout: how long a requester waits
  /// for acknowledgment of the oldest unacked send before rewinding and
  /// replaying it (IB's Local ACK Timeout). Zero disables the timer —
  /// the seed's lossless-wire behavior — and keeps every other piece of
  /// the recovery protocol (sequence NAKs, duplicate re-ACKs) off too,
  /// so the calibrated happy path is bit-identical with it unset.
  sim::Duration transport_timeout = sim::Duration{0};

  /// Transport retries before the QP errors out with
  /// WcStatus::transport_retry_exceeded. < 0 means infinite; 7 mirrors the
  /// common InfiniHost default.
  int transport_retry_limit = 7;

  /// Deterministic fault-injection plan (inert by default).
  FaultConfig fault;

  bool transport_enabled() const {
    return transport_timeout > sim::Duration{0};
  }
};

}  // namespace mvflow::ib
