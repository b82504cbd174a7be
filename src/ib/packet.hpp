// Wire-level packet descriptor exchanged between QPs through the fabric.
// Internal to the ib layer.
//
// A Packet is plain data plus a pooled-message reference; it moves from the
// sender's QP into one engine event and is read in place at the receiver,
// so a hop never copies the payload (zero-copy through the simulated wire).
#pragma once

#include <cstdint>

#include "ib/msg_pool.hpp"
#include "ib/types.hpp"

namespace mvflow::ib {

enum class PacketKind : std::uint8_t {
  data,             ///< send or rdma_write payload packet
  ack,              ///< positive acknowledgment, cumulative per message
  rnr_nak,          ///< receiver not ready: no recv WQE posted
  access_nak,       ///< remote access violation (bad rkey / bounds)
  seq_nak,          ///< PSN sequence error: responder saw a gap, requests
                    ///< retransmission from the carried MSN
};

struct Packet {
  PacketKind kind = PacketKind::data;
  QpNumber src_qpn = 0;
  QpNumber dst_qpn = 0;
  Msn msn = 0;
  std::uint32_t pkt_index = 0;  ///< Position within the message.
  std::uint32_t pkt_count = 1;  ///< Packets in the message.
  std::uint32_t payload_bytes = 0;
  MsgRef msg;                 ///< Data packets only.
  std::int64_t credits = -1;  ///< ACK: responder's posted recv WQE count.
  bool corrupted = false;     ///< Fault injector: delivered but CRC-failed.
};

}  // namespace mvflow::ib
