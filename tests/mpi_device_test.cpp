// Device-layer internals observed through the public API: pin-down cache,
// famine conversion accounting, unexpected-queue census, mixed protocol
// ordering, statistics plumbing.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"

using namespace mvflow;
using namespace mvflow::mpi;

namespace {

WorldConfig two_ranks(flowctl::Scheme scheme = flowctl::Scheme::user_static,
                      int prepost = 16) {
  WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = scheme;
  cfg.flow.prepost = prepost;
  return cfg;
}

}  // namespace

TEST(RegCache, RepeatedRendezvousFromSameBufferHitsCache) {
  World world(two_ranks());
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(64 * 1024);
    for (int i = 0; i < 10; ++i) {
      if (comm.rank() == 0) comm.send(buf, 1, 0);
      else comm.recv(buf, 0, 0);
    }
  });
  const auto& s = world.device(0).stats();
  EXPECT_EQ(s.reg_cache_misses, 1u) << "one pin for ten sends of one buffer";
  EXPECT_EQ(s.reg_cache_hits, 9u);
}

TEST(RegCache, PinCostShowsUpInSimulatedTime) {
  // Eight rendezvous sends of one buffer pin it once; eight sends of eight
  // buffers pin every time, and each pin costs simulated time.
  auto run_once = [&](std::size_t buffers) {
    World world(two_ranks());
    const auto elapsed = world.run([&](Communicator& comm) {
      std::vector<std::vector<std::byte>> bufs(
          buffers, std::vector<std::byte>(256 * 1024));
      for (std::size_t i = 0; i < 8; ++i) {
        std::vector<std::byte>& buf = bufs[i % buffers];
        if (comm.rank() == 0) comm.send(buf, 1, 0);
        else comm.recv(buf, 0, 0);
      }
    });
    EXPECT_EQ(world.device(0).stats().reg_cache_misses, buffers);
    return elapsed;
  };
  const auto one_buffer = run_once(1);
  const auto eight_buffers = run_once(8);
  EXPECT_GT(eight_buffers.count(), one_buffer.count())
      << "pinning every transfer must cost simulated time";
}

TEST(FamineConversion, CountsSmallSendsTurnedRendezvous) {
  World world(two_ranks(flowctl::Scheme::user_static, 8));
  world.run([&](Communicator& comm) {
    std::vector<std::int64_t> vals(64);
    std::iota(vals.begin(), vals.end(), 0);
    if (comm.rank() == 0) {
      std::vector<RequestPtr> reqs;
      for (auto& v : vals) reqs.push_back(comm.isend_n(&v, 1, 1, 0));
      comm.wait_all(reqs);
    } else {
      std::int64_t v;
      for (int i = 0; i < 64; ++i) comm.recv_n(&v, 1, 0, 0);
    }
  });
  const auto& s = world.device(0).stats();
  EXPECT_GT(s.small_converted_to_rndv, 0u);
  // Conversions also count as rendezvous starts and carry the optimistic bit.
  EXPECT_GE(s.rndv_started, s.small_converted_to_rndv);
  std::uint64_t optimistic = 0;
  for (const auto& c : world.collect_stats().connections)
    optimistic += c.flow.optimistic_rts;
  EXPECT_GT(optimistic, 0u);
}

TEST(FamineConversion, IndependentOfHeapAddresses) {
  // Fig 5's converting cell: static scheme, prepost 10, windows of 100
  // blocking sends at the largest eager size. The device copies each
  // converted payload, so the addresses those copies get depend on every
  // other allocation in the process; a second run that holds extra blocks
  // of the copy's size must still simulate exactly the same.
  struct Outcome {
    std::int64_t elapsed_ns = 0;
    std::uint64_t events = 0;
    std::uint64_t converted = 0;
    std::uint64_t reg_cache_hits = 0;
    std::uint64_t reg_cache_misses = 0;
  };
  const auto run_cell = [](int held_per_send) {
    World world(two_ranks(flowctl::Scheme::user_static, 10));
    const std::size_t bytes = world.config().device.eager_max_payload();
    std::vector<std::vector<std::byte>> held;
    Outcome o;
    o.elapsed_ns = world
                       .run([&](Communicator& comm) {
                         std::vector<std::byte> buf(bytes);
                         std::vector<std::byte> ack(1);
                         for (int rep = 0; rep < 4; ++rep) {
                           if (comm.rank() == 0) {
                             for (int i = 0; i < 100; ++i) {
                               for (int h = 0; h < held_per_send; ++h)
                                 held.emplace_back(bytes);
                               comm.send(buf, 1, 0);
                             }
                             comm.recv(ack, 1, 1);
                           } else {
                             for (int i = 0; i < 100; ++i) comm.recv(buf, 0, 0);
                             comm.send(ack, 0, 1);
                           }
                         }
                       })
                       .count();
    o.events = world.executed_events();
    for (int r = 0; r < 2; ++r) {
      const DeviceStats& s = world.device(r).stats();
      o.converted += s.small_converted_to_rndv;
      o.reg_cache_hits += s.reg_cache_hits;
      o.reg_cache_misses += s.reg_cache_misses;
    }
    return o;
  };
  const Outcome plain = run_cell(0);
  const Outcome churned = run_cell(1);
  ASSERT_GT(plain.converted, 0u);
  EXPECT_EQ(churned.converted, plain.converted);
  EXPECT_EQ(churned.elapsed_ns, plain.elapsed_ns);
  EXPECT_EQ(churned.events, plain.events);
  EXPECT_EQ(churned.reg_cache_hits, plain.reg_cache_hits);
  EXPECT_EQ(churned.reg_cache_misses, plain.reg_cache_misses);
}

TEST(UnexpectedQueue, CensusTracksDepth) {
  World world(two_ranks(flowctl::Scheme::hardware, 64));
  world.run([&](Communicator& comm) {
    if (comm.rank() == 0) {
      std::int64_t v = 7;
      for (int i = 0; i < 30; ++i) comm.send_n(&v, 1, 1, i);
    } else {
      comm.compute(sim::microseconds(200));  // let all 30 arrive unexpected
      std::int64_t v;
      // Drain in reverse-tag order so every message waits in the queue.
      for (int i = 29; i >= 0; --i) comm.recv_n(&v, 1, 0, i);
    }
  });
  EXPECT_GE(world.device(1).stats().max_unexpected, 30u);
}

TEST(MixedProtocols, EagerAndRendezvousInterleaveInOrder) {
  World world(two_ranks());
  world.run([&](Communicator& comm) {
    const std::size_t big = 100 * 1024;
    if (comm.rank() == 0) {
      for (int i = 0; i < 6; ++i) {
        if (i % 2 == 0) {
          const std::int64_t v = i;
          comm.send_n(&v, 1, 1, 0);  // eager
        } else {
          std::vector<double> payload(big / sizeof(double), i * 1.0);
          comm.send(std::as_bytes(std::span<const double>(payload)), 1, 0);
        }
      }
    } else {
      comm.compute(sim::microseconds(50));
      for (int i = 0; i < 6; ++i) {
        if (i % 2 == 0) {
          std::int64_t v = -1;
          comm.recv_n(&v, 1, 0, 0);
          EXPECT_EQ(v, i) << "same-tag messages must match in send order";
        } else {
          std::vector<double> payload(big / sizeof(double));
          comm.recv(std::as_writable_bytes(std::span<double>(payload)), 0, 0);
          EXPECT_DOUBLE_EQ(payload[0], i * 1.0);
          EXPECT_DOUBLE_EQ(payload.back(), i * 1.0);
        }
      }
    }
  });
}

TEST(WorldStats, ConnectionReportsCoverAllPairs) {
  WorldConfig cfg;
  cfg.num_ranks = 4;
  World world(cfg);
  world.run([](Communicator& comm) { comm.barrier(); });
  const auto stats = world.collect_stats();
  // 4 ranks x 4 endpoints each (including self).
  EXPECT_EQ(stats.connections.size(), 16u);
  EXPECT_EQ(stats.devices.size(), 4u);
  EXPECT_GT(stats.fabric.data_packets, 0u);
  EXPECT_GT(stats.elapsed.count(), 0);
  for (const auto& c : stats.connections) {
    EXPECT_GE(c.rank, 0);
    EXPECT_LT(c.rank, 4);
    EXPECT_GE(c.peer, 0);
    EXPECT_LT(c.peer, 4);
  }
}

TEST(WorldStats, CreditedMessageAccountingConsistent) {
  World world(two_ranks(flowctl::Scheme::user_static, 4));
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(32);
    for (int i = 0; i < 50; ++i) {
      if (comm.rank() == 0) comm.send(buf, 1, 0);
      else comm.recv(buf, 0, 0);
    }
  });
  const auto stats = world.collect_stats();
  for (const auto& c : stats.connections) {
    EXPECT_EQ(c.flow.backlog_entered, c.flow.backlog_dispatched)
        << "everything backlogged must eventually dispatch";
    EXPECT_GE(c.flow.credited_sent,
              c.flow.backlog_dispatched);
  }
}

TEST(WorldLifecycle, RunTwiceIsRejected) {
  World world(two_ranks());
  world.run([](Communicator&) {});
  EXPECT_THROW(world.run([](Communicator&) {}), std::logic_error);
}

TEST(WorldLifecycle, BodyExceptionPropagates) {
  World world(two_ranks());
  EXPECT_THROW(world.run([](Communicator& comm) {
                 if (comm.rank() == 1) throw std::runtime_error("app bug");
                 std::vector<std::byte> b(8);
                 comm.recv(b, 1, 0);
               }),
               std::runtime_error);
}
