// MPI send modes (paper §3.1 lists Standard, Synchronous, Buffered, Ready).
#include <gtest/gtest.h>

#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"

using namespace mvflow;
using namespace mvflow::mpi;

namespace {

WorldConfig two_ranks(int prepost = 32) {
  WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.prepost = prepost;
  return cfg;
}

}  // namespace

TEST(SendModes, SynchronousUsesRendezvousEvenForSmall) {
  World world(two_ranks());
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(16);
    if (comm.rank() == 0) {
      comm.ssend(buf, 1, 0);
    } else {
      comm.recv(buf, 0, 0);
    }
  });
  EXPECT_EQ(world.device(0).stats().rndv_started, 1u);
}

TEST(SendModes, SynchronousCompletesOnlyAfterReceiverArrives) {
  World world(two_ranks());
  std::int64_t send_done_ns = 0;
  constexpr std::int64_t kRecvDelayNs = 500'000;  // 500 us
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(16);
    if (comm.rank() == 0) {
      comm.ssend(buf, 1, 0);
      send_done_ns = comm.now().count();
    } else {
      comm.compute(sim::Duration(kRecvDelayNs));
      comm.recv(buf, 0, 0);
    }
  });
  EXPECT_GE(send_done_ns, kRecvDelayNs)
      << "ssend must not complete before the matching receive is posted";
}

TEST(SendModes, StandardEagerCompletesBeforeReceiverArrives) {
  World world(two_ranks());
  std::int64_t send_done_ns = 0;
  constexpr std::int64_t kRecvDelayNs = 500'000;
  world.run([&](Communicator& comm) {
    std::vector<std::byte> buf(16);
    if (comm.rank() == 0) {
      comm.send(buf, 1, 0);
      send_done_ns = comm.now().count();
    } else {
      comm.compute(sim::Duration(kRecvDelayNs));
      comm.recv(buf, 0, 0);
    }
  });
  EXPECT_LT(send_done_ns, kRecvDelayNs)
      << "standard small send is buffered and completes locally";
}

TEST(SendModes, BufferedRejectsOversizedPayload) {
  World world(two_ranks());
  EXPECT_THROW(world.run([&](Communicator& comm) {
                 if (comm.rank() != 0) return;
                 std::vector<std::byte> big(1 << 16);
                 comm.bsend(big, 1, 0);
               }),
               std::invalid_argument);
}

TEST(SendModes, ReadyAndBufferedDeliverCorrectly) {
  World world(two_ranks());
  world.run([&](Communicator& comm) {
    std::vector<double> v{1.25, 2.5};
    if (comm.rank() == 0) {
      comm.bsend(std::as_bytes(std::span<const double>(v)), 1, 1);
      comm.compute(sim::microseconds(50));  // receiver posts by now
      comm.rsend(std::as_bytes(std::span<const double>(v)), 1, 2);
    } else {
      std::vector<double> a(2), b(2);
      auto r1 = comm.irecv(std::as_writable_bytes(std::span<double>(a)), 0, 1);
      auto r2 = comm.irecv(std::as_writable_bytes(std::span<double>(b)), 0, 2);
      comm.wait(r1);
      comm.wait(r2);
      EXPECT_EQ(a, v);
      EXPECT_EQ(b, v);
    }
  });
}
