// Quickstart: the smallest complete mvflow program.
//
// Builds a two-rank world over the simulated InfiniBand fabric, runs a
// blocking ping-pong, and prints the measured latency plus the
// flow-control counters. Try:
//
//   ./quickstart                      # defaults: static scheme, 32 buffers
//   ./quickstart --scheme=dynamic --prepost=2
//   ./quickstart --scheme=hardware --bytes=32768
#include <cstdio>
#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "util/options.hpp"

using namespace mvflow;

namespace {

int run(const util::Options& opts) {
  const auto scheme =
      flowctl::parse_scheme(opts.get_or("scheme", "static"));
  if (!scheme) {
    std::fprintf(stderr, "unknown --scheme (use hardware|static|dynamic)\n");
    return 1;
  }
  const auto bytes = static_cast<std::size_t>(opts.get_int("bytes", 8));
  const int iters = static_cast<int>(opts.get_int("iters", 1000));

  mpi::WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = *scheme;
  cfg.flow.prepost = static_cast<int>(opts.get_int("prepost", 32));

  mpi::World world(cfg);
  const auto elapsed = world.run([&](mpi::Communicator& comm) {
    std::vector<std::byte> buf(bytes);
    for (int i = 0; i < iters; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
        comm.recv(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
        comm.send(buf, 0, 0);
      }
    }
  });

  const auto stats = world.collect_stats();
  std::printf("scheme=%s prepost=%d payload=%zuB iterations=%d\n",
              std::string(flowctl::to_string(*scheme)).c_str(),
              cfg.flow.prepost, bytes, iters);
  std::printf("one-way latency: %.3f us\n",
              sim::to_us(elapsed) / (2.0 * iters));
  std::printf("messages sent: %llu (ECMs %llu, backlogged %llu)\n",
              static_cast<unsigned long long>(stats.total_messages()),
              static_cast<unsigned long long>(stats.total_ecm()),
              static_cast<unsigned long long>(stats.total_backlogged()));
  std::printf("RNR NAKs: %llu, retransmitted messages: %llu\n",
              static_cast<unsigned long long>(stats.total_rnr_naks()),
              static_cast<unsigned long long>(stats.total_retransmitted_messages()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
