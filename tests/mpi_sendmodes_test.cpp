// MPI standard-mode send semantics (paper §3.1): a small send is buffered
// through the eager path and completes locally.
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
