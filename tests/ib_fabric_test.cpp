// Fabric-level behaviour: link serialization and contention, store-and-
// forward timing, multi-QP fairness, loopback.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <vector>

#include "ib/fabric.hpp"
#include "sim/engine.hpp"

using namespace mvflow::ib;
using namespace mvflow::sim;

namespace {

struct Flow {
  std::shared_ptr<CompletionQueue> cq_src, cq_dst;
  std::shared_ptr<QueuePair> qp_src, qp_dst;
  std::vector<std::byte> src, dst;
  MemoryRegionHandle mr_src, mr_dst;
};

Flow make_flow(Fabric& fabric, int a, int b, std::size_t bytes) {
  Flow f;
  f.cq_src = fabric.hca(a).create_cq();
  f.cq_dst = fabric.hca(b).create_cq();
  f.qp_src = fabric.hca(a).create_qp(f.cq_src, f.cq_src);
  f.qp_dst = fabric.hca(b).create_qp(f.cq_dst, f.cq_dst);
  Fabric::connect(*f.qp_src, *f.qp_dst);
  f.src.assign(bytes, std::byte{0x5a});
  f.dst.assign(bytes, std::byte{0});
  f.mr_src = fabric.hca(a).register_memory(
      f.src, Access::local_read | Access::local_write);
  f.mr_dst = fabric.hca(b).register_memory(
      f.dst, Access::local_read | Access::local_write);
  return f;
}

void post_pair(Flow& f, std::uint32_t len) {
  RecvWr rwr;
  rwr.wr_id = 1;
  rwr.local_addr = f.dst.data();
  rwr.length = static_cast<std::uint32_t>(f.dst.size());
  rwr.lkey = f.mr_dst.lkey;
  f.qp_dst->post_recv(rwr);
  SendWr swr;
  swr.wr_id = 2;
  swr.local_addr = f.src.data();
  swr.length = len;
  swr.lkey = f.mr_src.lkey;
  f.qp_src->post_send(swr);
}

}  // namespace

TEST(Fabric, TwoSendersShareTheReceiverDownlink) {
  // Node 2's downlink is one FIFO pipe: two simultaneous 256 KB transfers
  // from nodes 0 and 1 must take about twice as long as one.
  Engine eng;
  Fabric fabric(eng, FabricConfig{}, 3);
  const std::uint32_t len = 256 * 1024;

  auto run_case = [&](bool both) {
    Engine e2;
    Fabric f2(e2, FabricConfig{}, 3);
    Flow fa = make_flow(f2, 0, 2, len);
    post_pair(fa, len);
    if (both) {
      Flow fb = make_flow(f2, 1, 2, len);
      post_pair(fb, len);
      e2.run();
      return e2.now();
    }
    e2.run();
    return e2.now();
  };
  const auto t_one = run_case(false);
  const auto t_two = run_case(true);
  EXPECT_GT(t_two.count(), static_cast<std::int64_t>(1.8 * t_one.count()));
  EXPECT_LT(t_two.count(), static_cast<std::int64_t>(2.2 * t_one.count()));
}

TEST(Fabric, DisjointPathsDoNotContend) {
  // 0->1 and 2->3 share nothing; running both takes as long as one.
  const std::uint32_t len = 256 * 1024;
  auto run_case = [&](bool both) {
    Engine eng;
    Fabric fabric(eng, FabricConfig{}, 4);
    Flow fa = make_flow(fabric, 0, 1, len);
    std::optional<Flow> fb;  // must outlive eng.run()
    post_pair(fa, len);
    if (both) {
      fb.emplace(make_flow(fabric, 2, 3, len));
      post_pair(*fb, len);
    }
    eng.run();
    return eng.now();
  };
  EXPECT_EQ(run_case(false), run_case(true));
}

TEST(Fabric, StoreAndForwardDelayMatchesModel) {
  // One 100-byte message: arrival = wqe + per-packet tx + 2x serialization
  // + 2x wire + switch + rx processing. Recompute from the calibration
  // constants and compare.
  Engine eng;
  Fabric fabric(eng, FabricConfig{}, 2);
  Flow f = make_flow(fabric, 0, 1, 4096);
  post_pair(f, 100);
  eng.run();  // ends when the ACK lands back at the sender

  const auto ser_data =
      kPerPacketTx + transfer_time(100 + kDataHeaderBytes, kBandwidthBps);
  const auto ser_ack = kPerPacketTx + transfer_time(kAckBytes, kBandwidthBps);
  const auto one_way = [&](Duration ser) {
    return ser + kWireLatency + kSwitchLatency + ser + kWireLatency +
           kRxProcess;
  };
  const auto expect = kTxWqeProcess + one_way(ser_data) + one_way(ser_ack);
  EXPECT_EQ(eng.now().count(), expect.count());
}

TEST(Fabric, LoopbackSkipsTheSwitch) {
  Engine eng;
  Fabric fabric(eng, FabricConfig{}, 2);
  Flow f = make_flow(fabric, 0, 0, 4096);  // same node
  post_pair(f, 100);
  eng.run();
  // Loopback: serialization once, no wire or switch latency.
  const auto remote_floor = 2 * kWireLatency + kSwitchLatency;
  EXPECT_LT(eng.now().count(),
            (kTxWqeProcess + remote_floor * 2).count() + 3000);
  ASSERT_FALSE(f.cq_dst->empty());
}

TEST(Fabric, UplinkBusyTimeAccountsForTraffic) {
  Engine eng;
  Fabric fabric(eng, FabricConfig{}, 2);
  Flow f = make_flow(fabric, 0, 1, 1 << 20);
  post_pair(f, 1 << 20);
  eng.run();
  // The 1 MB payload crossed node 0's uplink: busy time >= transfer time.
  EXPECT_GE(fabric.uplink_busy(0).count(),
            transfer_time(1 << 20, kBandwidthBps).count());
  // Node 1's uplink carried only ACKs.
  EXPECT_LT(fabric.uplink_busy(1).count(), fabric.uplink_busy(0).count() / 10);
}

TEST(Fabric, DestroyedQpDropsTrafficSilently) {
  Engine eng;
  Fabric fabric(eng, FabricConfig{}, 2);
  Flow f = make_flow(fabric, 0, 1, 4096);
  const QpNumber dst_qpn = f.qp_dst->qpn();
  post_pair(f, 64);
  fabric.hca(1).destroy_qp(dst_qpn);
  f.qp_dst.reset();
  EXPECT_NO_THROW(eng.run());  // packets dropped, no crash
  EXPECT_TRUE(f.cq_src->empty()) << "no ACK can come back";
}

TEST(Fabric, WireBytesBySize) {
  Engine eng;
  Fabric fabric(eng, FabricConfig{}, 2);
  Packet data;
  data.kind = PacketKind::data;
  data.payload_bytes = 1000;
  EXPECT_EQ(fabric.wire_bytes(data), 1000 + kDataHeaderBytes);
  Packet ack;
  ack.kind = PacketKind::ack;
  EXPECT_EQ(fabric.wire_bytes(ack), kAckBytes);
}

TEST(Fabric, RejectsInvalidConfig) {
  Engine eng;
  EXPECT_THROW(Fabric(eng, FabricConfig{}, 0), std::invalid_argument);
}
