// Reliable Connection protocol tests: delivery, ordering, segmentation,
// RNR NAK/retry, RDMA write, error semantics, calibration sanity.
#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "ib/fabric.hpp"
#include "sim/engine.hpp"

using namespace mvflow::ib;
using namespace mvflow::sim;

namespace {

class RcFixture : public ::testing::Test {
 protected:
  RcFixture() { reset(FabricConfig{}); }

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
      src_[i] = static_cast<std::byte>(i * 31 + 7);
    mr_src_ = fabric_->hca(0).register_memory(
        src_, Access::local_read | Access::local_write | Access::remote_read);
    mr_dst_ = fabric_->hca(1).register_memory(
        dst_, Access::local_read | Access::local_write | Access::remote_write |
                  Access::remote_read);
  }

  /// Post a send of `len` bytes from A's src buffer at offset 0.
  void post_send_a(std::uint32_t len, std::uint64_t wr_id = 1) {
    SendWr wr;
    wr.wr_id = wr_id;
    wr.opcode = WrOpcode::send;
    wr.local_addr = src_.data();
    wr.length = len;
    wr.lkey = mr_src_.lkey;
    qp_a_->post_send(wr);
  }

  /// Post a receive into B's dst buffer at a given offset.
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

}  // namespace

TEST_F(RcFixture, SingleSendDeliversPayloadAndCompletions) {
  post_recv_b(4096);
  post_send_a(1000);
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 1u);
  EXPECT_TRUE(wcs_b[0].ok());
  EXPECT_EQ(wcs_b[0].opcode, WcOpcode::recv);
  EXPECT_EQ(wcs_b[0].byte_len, 1000u);
  EXPECT_EQ(wcs_b[0].src_qp, qp_a_->qpn());
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), 1000), 0);

  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_TRUE(wcs_a[0].ok());
  EXPECT_EQ(wcs_a[0].opcode, WcOpcode::send);
}

TEST_F(RcFixture, UnsignaledSendProducesNoSendCqe) {
  post_recv_b(4096);
  SendWr wr;
  wr.wr_id = 9;
  wr.local_addr = src_.data();
  wr.length = 16;
  wr.lkey = mr_src_.lkey;
  wr.signaled = false;
  qp_a_->post_send(wr);
  engine_->run();
  EXPECT_TRUE(drain(*cq_a_).empty());
  EXPECT_EQ(drain(*cq_b_).size(), 1u);
}

TEST_F(RcFixture, MultiPacketMessageSegmentsAtMtu) {
  const std::uint32_t len = 3 * 2048 + 500;  // 4 packets at MTU 2048
  post_recv_b(1 << 16);
  post_send_a(len);
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 1u);
  EXPECT_EQ(wcs_b[0].byte_len, len);
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), len), 0);
  EXPECT_EQ(qp_a_->stats().packets_sent, 4u);
}

TEST_F(RcFixture, ZeroLengthSendWorks) {
  post_recv_b(64);
  post_send_a(0);
  engine_->run();
  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 1u);
  EXPECT_EQ(wcs_b[0].byte_len, 0u);
}

TEST_F(RcFixture, ManySendsArriveInOrder) {
  constexpr int kCount = 50;
  for (int i = 0; i < kCount; ++i) post_recv_b(4096, 4096u * i, 100 + i);
  for (int i = 0; i < kCount; ++i) {
    SendWr wr;
    wr.wr_id = static_cast<std::uint64_t>(i);
    wr.local_addr = src_.data() + 8 * i;
    wr.length = 8;
    wr.lkey = mr_src_.lkey;
    qp_a_->post_send(wr);
  }
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(wcs_b[i].wr_id, 100u + i) << "receives must match FIFO order";
    EXPECT_EQ(std::memcmp(dst_.data() + 4096u * i, src_.data() + 8 * i, 8), 0);
  }
  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), static_cast<std::size_t>(kCount));
  for (int i = 0; i < kCount; ++i) EXPECT_EQ(wcs_a[i].wr_id, static_cast<std::uint64_t>(i));
}

TEST_F(RcFixture, RecvBufferTooSmallErrorsQp) {
  post_recv_b(100);
  post_send_a(500);
  engine_->run();
  const auto wcs_b = drain(*cq_b_);
  ASSERT_GE(wcs_b.size(), 1u);
  EXPECT_EQ(wcs_b[0].status, WcStatus::length_error);
  EXPECT_EQ(qp_b_->state(), QpState::error);
}

TEST_F(RcFixture, RnrNakRetriesUntilBufferPosted) {
  // No receive posted: the send must be NAK'd, then succeed after the
  // buffer appears (before the retry fires).
  post_send_a(256);
  // Post the receive 5 us in: first attempt arrives ~2 us -> RNR NAK;
  // retry timer (20 us default) fires at ~22 us and succeeds.
  engine_->schedule_at(TimePoint(microseconds(5)), [&] { post_recv_b(4096); });
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 1u);
  EXPECT_TRUE(wcs_b[0].ok());
  EXPECT_EQ(std::memcmp(dst_.data(), src_.data(), 256), 0);
  EXPECT_EQ(qp_b_->stats().rnr_naks_sent, 1u);
  EXPECT_EQ(qp_a_->stats().rnr_naks_received, 1u);
  EXPECT_EQ(qp_a_->stats().retransmitted_messages, 1u);
  // The completion happened after at least one RNR timeout.
  EXPECT_GE(engine_->now(), TimePoint(fabric_->config().rnr_timeout));
  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_TRUE(wcs_a[0].ok());
}

TEST_F(RcFixture, RnrRepeatsWhileBufferMissing) {
  post_send_a(64);
  // Post the buffer only after 3 retry windows have passed.
  engine_->schedule_at(TimePoint(microseconds(70)), [&] { post_recv_b(4096); });
  engine_->run();
  EXPECT_GE(qp_a_->stats().rnr_naks_received, 3u);
  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 1u);
  EXPECT_TRUE(wcs_b[0].ok());
}

TEST_F(RcFixture, PipelinedMessagesAfterRnrAreDroppedAndReplayed) {
  // 5 back-to-back sends, only the receiver is slow to post: all should
  // eventually land, in order, with drops counted at the responder.
  for (int i = 0; i < 5; ++i) post_send_a(512, static_cast<std::uint64_t>(i));
  engine_->schedule_at(TimePoint(microseconds(10)), [&] {
    for (int i = 0; i < 5; ++i) post_recv_b(4096, 4096u * i, 200 + i);
  });
  engine_->run();

  const auto wcs_b = drain(*cq_b_);
  ASSERT_EQ(wcs_b.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(wcs_b[i].ok());
    EXPECT_EQ(wcs_b[i].wr_id, 200u + i);
    EXPECT_EQ(std::memcmp(dst_.data() + 4096u * i, src_.data(), 512), 0);
  }
  EXPECT_GT(qp_b_->stats().packets_dropped, 0u)
      << "pipelined wire copies behind the RNR must be dropped";
  EXPECT_GE(qp_a_->stats().retransmitted_messages, 5u);
}

TEST_F(RcFixture, InfiniteRetryNeverErrors) {
  post_send_a(64);
  engine_->run_until(TimePoint(milliseconds(5)));
  EXPECT_EQ(qp_a_->state(), QpState::ready);
  EXPECT_GT(qp_a_->stats().rnr_naks_received, 100u);
  post_recv_b(4096);
  engine_->run();
  EXPECT_EQ(drain(*cq_b_).size(), 1u);
}

TEST_F(RcFixture, AckAdvertisesRemainingRecvCredits) {
  for (int i = 0; i < 7; ++i) post_recv_b(4096, 4096u * i, 300 + i);
  post_send_a(32);
  engine_->run();
  // After consuming one of 7 buffers the ACK advertises 6.
  EXPECT_EQ(qp_a_->stats().last_advertised_credits, 6);
}

TEST_F(RcFixture, RdmaWriteDeliversWithoutRecvWqe) {
  SendWr wr;
  wr.wr_id = 42;
  wr.opcode = WrOpcode::rdma_write;
  wr.local_addr = src_.data();
  wr.length = 10000;
  wr.lkey = mr_src_.lkey;
  wr.remote_addr = dst_.data() + 128;
  wr.rkey = mr_dst_.rkey;
  qp_a_->post_send(wr);
  engine_->run();

  EXPECT_TRUE(drain(*cq_b_).empty()) << "RDMA write is transparent to B";
  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_TRUE(wcs_a[0].ok());
  EXPECT_EQ(wcs_a[0].opcode, WcOpcode::rdma_write);
  EXPECT_EQ(std::memcmp(dst_.data() + 128, src_.data(), 10000), 0);
}

TEST_F(RcFixture, RdmaWriteBadRkeyErrorsRequester) {
  SendWr wr;
  wr.wr_id = 43;
  wr.opcode = WrOpcode::rdma_write;
  wr.local_addr = src_.data();
  wr.length = 64;
  wr.lkey = mr_src_.lkey;
  wr.remote_addr = dst_.data();
  wr.rkey = mr_dst_.rkey + 9999;
  qp_a_->post_send(wr);
  engine_->run();

  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_EQ(wcs_a[0].status, WcStatus::remote_access_error);
  EXPECT_EQ(qp_a_->state(), QpState::error);
}

TEST_F(RcFixture, RdmaWriteOutOfBoundsRejected) {
  SendWr wr;
  wr.wr_id = 44;
  wr.opcode = WrOpcode::rdma_write;
  wr.local_addr = src_.data();
  wr.length = 4096;
  wr.lkey = mr_src_.lkey;
  wr.remote_addr = dst_.data() + dst_.size() - 100;  // 100 bytes left
  wr.rkey = mr_dst_.rkey;
  qp_a_->post_send(wr);
  engine_->run();
  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_EQ(wcs_a[0].status, WcStatus::remote_access_error);
}

TEST_F(RcFixture, LocalProtectionErrorOnBadLkey) {
  SendWr wr;
  wr.wr_id = 46;
  wr.local_addr = src_.data();
  wr.length = 64;
  wr.lkey = mr_src_.lkey + 777;
  qp_a_->post_send(wr);
  engine_->run();
  const auto wcs_a = drain(*cq_a_);
  ASSERT_EQ(wcs_a.size(), 1u);
  EXPECT_EQ(wcs_a[0].status, WcStatus::local_protection_error);
  EXPECT_EQ(qp_a_->state(), QpState::error);
}

TEST_F(RcFixture, ErrorStateFlushesPostedWork) {
  post_recv_b(100);   // too small -> length error on B
  post_send_a(500);
  engine_->run();
  drain(*cq_b_);
  // Further receives on the errored QP complete as flushed.
  post_recv_b(4096, 0, 999);
  const auto wcs = drain(*cq_b_);
  ASSERT_EQ(wcs.size(), 1u);
  EXPECT_EQ(wcs[0].status, WcStatus::flushed);
  EXPECT_EQ(wcs[0].wr_id, 999u);
}

TEST_F(RcFixture, PostOnUnconnectedQpRejected) {
  auto cq = fabric_->hca(0).create_cq();
  auto qp = fabric_->hca(0).create_qp(cq, cq);
  SendWr wr;
  wr.local_addr = src_.data();
  wr.length = 8;
  wr.lkey = mr_src_.lkey;
  EXPECT_THROW(qp->post_send(wr), std::invalid_argument);
}

// ---- Calibration sanity: the fabric should land in the paper's regime ----

TEST_F(RcFixture, SmallMessageVerbsLatencyInPaperRegime) {
  post_recv_b(4096);
  post_send_a(36);  // 4 B payload + a 32 B MPI-style header, one packet
  engine_->run();
  ASSERT_FALSE(cq_b_->empty());
  // run() ends when the ACK lands back at A, i.e. after one full round
  // trip. Verbs-level one-way latency on the paper's hardware was a few
  // microseconds, so the round trip must land in the 2..20 us window.
  const double rtt_us = mvflow::sim::to_us(engine_->now());
  EXPECT_GT(rtt_us, 2.0);
  EXPECT_LT(rtt_us, 20.0);
}

TEST_F(RcFixture, LargeTransferApproachesLinkBandwidth) {
  const std::uint32_t len = 1 << 20;  // 1 MB
  post_recv_b(1 << 20);
  post_send_a(len);
  engine_->run();
  ASSERT_EQ(drain(*cq_b_).size(), 1u);
  const double seconds = mvflow::sim::to_s(engine_->now());
  const double bw = static_cast<double>(len) / seconds;
  // Effective bandwidth should be within ~15% of the configured 800 MB/s
  // (headers + per-packet overheads steal a little).
  EXPECT_GT(bw, 0.6e9 * 0.8 / 0.8);  // > 600 MB/s
  EXPECT_LT(bw, 800e6 * 1.01);
}

TEST_F(RcFixture, LoopbackDelivery) {
  // Two QPs on the same node.
  auto cq1 = fabric_->hca(0).create_cq();
  auto cq2 = fabric_->hca(0).create_cq();
  auto qp1 = fabric_->hca(0).create_qp(cq1, cq1);
  auto qp2 = fabric_->hca(0).create_qp(cq2, cq2);
  Fabric::connect(*qp1, *qp2);
  RecvWr rwr;
  rwr.wr_id = 7;
  rwr.local_addr = src_.data() + 500000;
  rwr.length = 4096;
  rwr.lkey = mr_src_.lkey;
  qp2->post_recv(rwr);
  SendWr swr;
  swr.wr_id = 8;
  swr.local_addr = src_.data();
  swr.length = 128;
  swr.lkey = mr_src_.lkey;
  qp1->post_send(swr);
  engine_->run();
  ASSERT_FALSE(cq2->empty());
  EXPECT_EQ(std::memcmp(src_.data() + 500000, src_.data(), 128), 0);
}

TEST_F(RcFixture, FabricStatsCountPacketsAndBytes) {
  post_recv_b(4096);
  post_send_a(100);
  engine_->run();
  // 1 data packet + 1 ACK.
  EXPECT_EQ(fabric_->stats().data_packets, 1u);
  EXPECT_EQ(fabric_->stats().control_packets, 1u);
  EXPECT_EQ(fabric_->stats().wire_bytes,
            100u + kDataHeaderBytes + kAckBytes);
}
