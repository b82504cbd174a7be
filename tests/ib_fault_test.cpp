// Fault injection + transport reliability tests: deterministic loss,
// scripted drops, corruption NAKs, link flaps, retransmission timers,
// sequence NAKs, retry-limit error semantics, and inertness of the whole
// machinery when disabled.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ib/fabric.hpp"
#include "sim/engine.hpp"

using namespace mvflow::ib;
using namespace mvflow::sim;

namespace {

/// Fabric config with the reliability protocol switched on (the seed's
/// default keeps it off for bit-identical lossless behavior).
FabricConfig reliable_config() {
  FabricConfig cfg;
  cfg.transport_timeout = microseconds(50);
  return cfg;
}

class FaultFixture : public ::testing::Test {
 protected:
  FaultFixture() { reset(reliable_config()); }

  void reset(FabricConfig cfg, int nodes = 2) {
    fabric_.reset();
    engine_ = std::make_unique<Engine>();
    fabric_ = std::make_unique<Fabric>(*engine_, cfg, nodes);
    cq_a_ = fabric_->hca(0).create_cq();
    cq_b_ = fabric_->hca(1).create_cq();
    qp_a_ = fabric_->hca(0).create_qp(cq_a_, cq_a_);
    qp_b_ = fabric_->hca(1).create_qp(cq_b_, cq_b_);
    Fabric::connect(*qp_a_, *qp_b_);

    src_.assign(1 << 20, std::byte{0});
    dst_.assign(1 << 20, std::byte{0});
    for (std::size_t i = 0; i < src_.size(); ++i)
      src_[i] = static_cast<std::byte>(i * 131 + 11);
    mr_src_ = fabric_->hca(0).register_memory(
        src_, Access::local_read | Access::local_write | Access::remote_read);
    mr_dst_ = fabric_->hca(1).register_memory(
        dst_, Access::local_read | Access::local_write | Access::remote_write |
                  Access::remote_read);
  }

  void post_send_a(std::uint32_t len, std::uint64_t wr_id = 1,
                   std::size_t offset = 0) {
    SendWr wr;
    wr.wr_id = wr_id;
    wr.opcode = WrOpcode::send;
    wr.local_addr = src_.data() + offset;
    wr.length = len;
    wr.lkey = mr_src_.lkey;
    qp_a_->post_send(wr);
  }

  void post_recv_b(std::uint32_t len, std::size_t offset = 0,
                   std::uint64_t wr_id = 100) {
    RecvWr wr;
    wr.wr_id = wr_id;
    wr.local_addr = dst_.data() + offset;
    wr.length = len;
    wr.lkey = mr_dst_.lkey;
    qp_b_->post_recv(wr);
  }

  std::vector<Completion> drain(CompletionQueue& cq) {
    std::vector<Completion> out;
    while (auto wc = cq.poll()) out.push_back(*wc);
    return out;
  }

  std::unique_ptr<Engine> engine_;
  std::unique_ptr<Fabric> fabric_;
  std::shared_ptr<CompletionQueue> cq_a_, cq_b_;
  std::shared_ptr<QueuePair> qp_a_, qp_b_;
  std::vector<std::byte> src_, dst_;
  MemoryRegionHandle mr_src_, mr_dst_;
};

/// Run a fixed lossy workload and return the fabric stats.
FabricStats run_lossy_workload(std::uint64_t seed) {
  Engine engine;
  FabricConfig cfg = reliable_config();
  cfg.fault.loss_prob = 0.05;
  cfg.fault.seed = seed;
  Fabric fabric(engine, cfg, 2);
  auto cq_a = fabric.hca(0).create_cq();
  auto cq_b = fabric.hca(1).create_cq();
  auto qp_a = fabric.hca(0).create_qp(cq_a, cq_a);
  auto qp_b = fabric.hca(1).create_qp(cq_b, cq_b);
  Fabric::connect(*qp_a, *qp_b);

  std::vector<std::byte> src(1 << 16), dst(1 << 16);
  for (std::size_t i = 0; i < src.size(); ++i)
    src[i] = static_cast<std::byte>(i);
  auto mr_src = fabric.hca(0).register_memory(
      src, Access::local_read | Access::local_write);
  auto mr_dst = fabric.hca(1).register_memory(
      dst, Access::local_read | Access::local_write);

  for (int i = 0; i < 40; ++i) {
    RecvWr rwr;
    rwr.wr_id = 100 + i;
    rwr.local_addr = dst.data() + 1024u * i;
    rwr.length = 1024;
    rwr.lkey = mr_dst.lkey;
    qp_b->post_recv(rwr);
  }
  for (int i = 0; i < 40; ++i) {
    SendWr swr;
    swr.wr_id = static_cast<std::uint64_t>(i);
    swr.local_addr = src.data() + 1024u * i;
    swr.length = 1024;
    swr.lkey = mr_src.lkey;
    qp_a->post_send(swr);
  }
  engine.run();
  return fabric.stats();
}

}  // namespace

// ---------------------------------------------------------- determinism --

TEST(FaultDeterminism, SameSeedSameFaultPattern) {
  const FabricStats first = run_lossy_workload(42);
  const FabricStats second = run_lossy_workload(42);
  EXPECT_GT(first.lost_packets, 0u) << "5% loss over ~80 packets must fire";
  EXPECT_EQ(first, second) << "identical seeds must replay identical faults";
}

TEST(FaultDeterminism, DifferentSeedDifferentPattern) {
  const FabricStats first = run_lossy_workload(42);
  const FabricStats second = run_lossy_workload(43);
  // Loss landing on different packets changes retransmission traffic.
  EXPECT_NE(first, second);
}

// ---------------------------------------------------------- random loss --

TEST_F(FaultFixture, LossySweepDeliversEverythingInOrder) {
  FabricConfig cfg = reliable_config();
  cfg.fault.loss_prob = 0.08;
  reset(cfg);
  constexpr int kCount = 30;
  for (int i = 0; i < kCount; ++i) post_recv_b(4096, 4096u * i, 100 + i);
  for (int i = 0; i < kCount; ++i)
    post_send_a(2048, static_cast<std::uint64_t>(i), 2048u * i);
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_TRUE(wcs_b[i].ok());
    EXPECT_EQ(wcs_b[i].wr_id, 100u + i) << "loss must not reorder delivery";
    EXPECT_EQ(std::memcmp(dst_.data() + 4096u * i, src_.data() + 2048u * i,
                          2048),
              0);
  }
  EXPECT_GT(fabric_->stats().lost_packets, 0u);
  EXPECT_GT(qp_a_->stats().retransmitted_messages, 0u);
  EXPECT_EQ(drain(*cq_a_).size(), static_cast<std::size_t>(kCount));
}

// -------------------------------------------------------- scripted drop --

TEST_F(FaultFixture, ScriptedDropTriggersSeqNak) {
  // Drop exactly the second data packet: the responder sees packet 3 of the
  // message arrive after a gap and NAKs, and the requester replays without
  // waiting for the full transport timeout.
  FabricConfig cfg = reliable_config();
  cfg.transport_timeout = milliseconds(5);  // so a timer path would be slow
  ScriptedFault f;
  f.src_node = 0;
  f.dst_node = 1;
  f.kind = static_cast<int>(PacketKind::data);
  f.skip = 1;
  cfg.fault.scripted.push_back(f);
  reset(cfg);

  const std::uint32_t len = 3 * 2048;  // 3 packets
  post_recv_b(1 << 16);
  post_send_a(len);
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 1u);
  EXPECT_TRUE(wcs_b[0].ok());
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), len), 0);
  EXPECT_EQ(fabric_->stats().scripted_faults_fired, 1u);
  EXPECT_GE(qp_b_->stats().seq_naks_sent, 1u);
  EXPECT_GE(qp_a_->stats().seq_naks_received, 1u);
  // NAK-driven recovery must beat the 5 ms retransmission timer.
  EXPECT_LT(engine_->now(), TimePoint(milliseconds(5)));
}

TEST_F(FaultFixture, LostAckRecoveredByTimer) {
  // Drop the ACK: the data arrived, so the responder re-ACKs the replayed
  // (duplicate) message and the requester completes on the retry.
  FabricConfig cfg = reliable_config();
  ScriptedFault f;
  f.src_node = 1;
  f.dst_node = 0;
  f.kind = static_cast<int>(PacketKind::ack);
  cfg.fault.scripted.push_back(f);
  reset(cfg);

  post_recv_b(4096);
  post_send_a(512);
  engine_->run();

  ASSERT_EQ(drain(*cq_b_).size(), 1u);
  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_TRUE(wcs_a[0].ok());
  EXPECT_GE(qp_a_->stats().transport_retries, 1u);
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), 512), 0);
}

// ---------------------------------------------------------- corruption --

TEST_F(FaultFixture, CorruptedPacketDroppedAndNacked) {
  FabricConfig cfg = reliable_config();
  ScriptedFault f;
  f.src_node = 0;
  f.dst_node = 1;
  f.kind = static_cast<int>(PacketKind::data);
  f.corrupt = true;
  cfg.fault.scripted.push_back(f);
  reset(cfg);

  post_recv_b(4096);
  post_send_a(256);
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 1u);
  EXPECT_TRUE(wcs_b[0].ok());
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), 256), 0)
      << "payload must come from the clean retransmission";
  EXPECT_EQ(fabric_->stats().corrupted_packets, 1u);
  EXPECT_EQ(qp_b_->stats().corrupt_packets_received, 1u);
}

// ----------------------------------------------------------- link flaps --

TEST_F(FaultFixture, SendsRideThroughLinkFlap) {
  FabricConfig cfg = reliable_config();
  LinkFlap flap;
  flap.node = 1;
  flap.down = TimePoint(microseconds(2));
  flap.up = TimePoint(microseconds(400));
  cfg.fault.flaps.push_back(flap);
  reset(cfg);

  constexpr int kCount = 10;
  for (int i = 0; i < kCount; ++i) post_recv_b(4096, 4096u * i, 100 + i);
  for (int i = 0; i < kCount; ++i)
    post_send_a(1024, static_cast<std::uint64_t>(i), 1024u * i);
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_TRUE(wcs_b[i].ok());
    EXPECT_EQ(std::memcmp(dst_.data() + 4096u * i, src_.data() + 1024u * i,
                          1024),
              0);
  }
  EXPECT_GT(fabric_->stats().flap_dropped_packets, 0u);
  EXPECT_GT(qp_a_->stats().transport_retries, 0u);
  EXPECT_GE(engine_->now(), TimePoint(microseconds(400)))
      << "completion can only happen after the link comes back";
}

// ----------------------------------------------------------- retry limit --

TEST_F(FaultFixture, TransportRetryLimitErrorsQp) {
  FabricConfig cfg = reliable_config();
  cfg.transport_retry_limit = 3;
  // Link down forever: every attempt (original + 3 retries) is lost.
  LinkFlap flap;
  flap.node = 1;
  flap.down = TimePoint(Duration{0});
  flap.up = TimePoint(seconds(100));
  cfg.fault.flaps.push_back(flap);
  reset(cfg);

  post_recv_b(4096);
  post_send_a(128);
  engine_->run();

  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_EQ(wcs_a[0].status, WcStatus::transport_retry_exceeded);
  EXPECT_EQ(qp_a_->state(), QpState::error);
  EXPECT_EQ(qp_a_->stats().transport_retries, 3u);

  // The errored QP flushes every later post instead of hanging.
  post_send_a(64, 77);
  const auto flushed = drain(*cq_a_);
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0].status, WcStatus::flushed);
  EXPECT_EQ(flushed[0].wr_id, 77u);
}

TEST_F(FaultFixture, InfiniteTransportRetrySurvivesLongOutage) {
  FabricConfig cfg = reliable_config();
  cfg.transport_retry_limit = -1;
  LinkFlap flap;
  flap.node = 1;
  flap.down = TimePoint(Duration{0});
  flap.up = TimePoint(milliseconds(30));
  cfg.fault.flaps.push_back(flap);
  reset(cfg);

  post_recv_b(4096);
  post_send_a(128);
  engine_->run();

  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_TRUE(wcs_a[0].ok());
  EXPECT_EQ(qp_a_->state(), QpState::ready);
  EXPECT_GT(qp_a_->stats().transport_retries, 1u)
      << "the backoff must have cycled several times during 30 ms down";
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), 128), 0);
}

// The graceful-teardown path the MPI layer uses before rebuilding a
// connection: a QP errored by modify_error flushes work posted afterwards.
TEST_F(FaultFixture, ModifyErrorFlushesSubsequentRecvPosts) {
  qp_b_->modify_error();
  RecvWr rwr;
  rwr.wr_id = 900;
  rwr.local_addr = dst_.data();
  rwr.length = 4096;
  rwr.lkey = mr_dst_.lkey;
  qp_b_->post_recv(rwr);
  const auto flushed_b = drain(*cq_b_);
  ASSERT_EQ(flushed_b.size(), 1u);
  EXPECT_EQ(flushed_b[0].status, WcStatus::flushed);
}

// ------------------------------------------------------------- inertness --

TEST(FaultInertness, DisabledMachineryIsBitIdentical) {
  // The same workload with (a) the seed's defaults and (b) defaults plus an
  // explicitly zeroed fault config must agree on every observable: fabric
  // stats, QP stats, payloads, and final simulated time.
  auto run = [](bool touch_fault_config, FabricStats& stats_out,
                QpStats& qp_out, TimePoint& end_out,
                std::vector<std::byte>& payload_out) {
    Engine engine;
    FabricConfig cfg;
    if (touch_fault_config) {
      cfg.fault.loss_prob = 0.0;
      cfg.fault.corrupt_prob = 0.0;
      cfg.fault.seed = 999;  // unused when probabilities are zero
    }
    Fabric fabric(engine, cfg, 2);
    auto cq_a = fabric.hca(0).create_cq();
    auto cq_b = fabric.hca(1).create_cq();
    auto qp_a = fabric.hca(0).create_qp(cq_a, cq_a);
    auto qp_b = fabric.hca(1).create_qp(cq_b, cq_b);
    Fabric::connect(*qp_a, *qp_b);
    std::vector<std::byte> src(1 << 15), dst(1 << 15);
    for (std::size_t i = 0; i < src.size(); ++i)
      src[i] = static_cast<std::byte>(3 * i + 1);
    auto mr_src = fabric.hca(0).register_memory(
        src, Access::local_read | Access::local_write);
    auto mr_dst = fabric.hca(1).register_memory(
        dst, Access::local_read | Access::local_write);
    for (int i = 0; i < 8; ++i) {
      RecvWr rwr;
      rwr.wr_id = 100 + i;
      rwr.local_addr = dst.data() + 4096u * i;
      rwr.length = 4096;
      rwr.lkey = mr_dst.lkey;
      qp_b->post_recv(rwr);
    }
    for (int i = 0; i < 8; ++i) {
      SendWr swr;
      swr.wr_id = static_cast<std::uint64_t>(i);
      swr.local_addr = src.data() + 4096u * i;
      swr.length = 3000;
      swr.lkey = mr_src.lkey;
      qp_a->post_send(swr);
    }
    engine.run();
    stats_out = fabric.stats();
    qp_out = qp_a->stats();
    end_out = engine.now();
    payload_out = dst;
  };

  FabricStats fs_a, fs_b;
  QpStats qs_a, qs_b;
  TimePoint end_a, end_b;
  std::vector<std::byte> d_a, d_b;
  run(false, fs_a, qs_a, end_a, d_a);
  run(true, fs_b, qs_b, end_b, d_b);

  EXPECT_EQ(fs_a, fs_b);
  EXPECT_EQ(end_a, end_b);
  EXPECT_EQ(d_a, d_b);
  EXPECT_EQ(qs_a.packets_sent, qs_b.packets_sent);
  EXPECT_EQ(qs_a.retransmitted_messages, qs_b.retransmitted_messages);
  EXPECT_EQ(fs_a.lost_packets, 0u);
  EXPECT_EQ(fs_a.corrupted_packets, 0u);
  EXPECT_EQ(qs_a.transport_retries, 0u);
  EXPECT_EQ(qs_a.seq_naks_received, 0u);
}
