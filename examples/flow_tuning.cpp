// Flow tuning: answers the paper's operational question — "how many
// buffers does my workload actually need, and which scheme should I run?"
// — for a bursty producer/consumer pattern. Sweeps the pre-post depth for
// all three schemes and prints throughput plus the memory the buffers
// would pin on a large cluster, the scalability trade-off of Section 1.
//
//   ./flow_tuning --burst=64 --bursts=30 --nodes=1024
#include <cstdio>
#include <iostream>
#include <vector>

#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace mvflow;

namespace {

struct Outcome {
  double mmsgs = 0;
  int max_posted = 0;
  std::uint64_t rnr = 0;
  std::uint64_t ecm = 0;
};

Outcome run_one(flowctl::Scheme scheme, int prepost, int burst, int bursts) {
  mpi::WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = scheme;
  cfg.flow.prepost = prepost;
  mpi::World world(cfg);
  const auto elapsed = world.run([&](mpi::Communicator& comm) {
    std::vector<std::int64_t> vals(static_cast<std::size_t>(burst));
    if (comm.rank() == 0) {
      for (int b = 0; b < bursts; ++b) {
        std::vector<mpi::RequestPtr> reqs;
        for (int i = 0; i < burst; ++i) {
          vals[static_cast<std::size_t>(i)] = b * burst + i;
          reqs.push_back(comm.isend_n(&vals[static_cast<std::size_t>(i)], 1, 1, 0));
        }
        comm.wait_all(reqs);
        comm.compute(sim::microseconds(30));  // think time between bursts
      }
    } else {
      std::int64_t v = 0;
      for (int i = 0; i < burst * bursts; ++i) {
        comm.recv_n(&v, 1, 0, 0);
        comm.compute(sim::nanoseconds(300));  // per-item consumer work
      }
    }
  });
  const auto stats = world.collect_stats();
  Outcome out;
  out.mmsgs = static_cast<double>(burst) * bursts / sim::to_s(elapsed) / 1e6;
  out.max_posted = stats.max_posted_buffers();
  out.rnr = stats.total_rnr_naks();
  out.ecm = stats.total_ecm();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Options opts(argc, argv);
  const int burst = static_cast<int>(opts.get_int("burst", 64));
  const int bursts = static_cast<int>(opts.get_int("bursts", 30));
  const auto nodes = opts.get_int("nodes", 1024);

  std::printf("# Producer/consumer bursts of %d messages, %d bursts\n", burst,
              bursts);
  util::Table t({"scheme", "prepost", "Mmsg/s", "max_posted", "rnr", "ecm",
                 "MB_pinned_per_node"});
  for (auto scheme : {flowctl::Scheme::hardware, flowctl::Scheme::user_static,
                      flowctl::Scheme::user_dynamic}) {
    for (int prepost : {1, 4, 16, 64, 128}) {
      const auto o = run_one(scheme, prepost, burst, bursts);
      // Buffer memory this configuration pins per node on an N-node
      // cluster with all-to-all connections (2 KB per buffer).
      const double mb = static_cast<double>(o.max_posted) * 2048.0 *
                        static_cast<double>(nodes - 1) / 1e6;
      t.add(std::string(flowctl::to_string(scheme)), prepost, o.mmsgs,
            o.max_posted, o.rnr, o.ecm, mb);
    }
  }
  t.print(std::cout);
  std::printf(
      "\n# Reading (default bursts): hardware runs at full rate from 16\n"
      "# buffers and collapses under RNR retries below that. Static reaches\n"
      "# its best rate at 64 buffers. Started from 4 or 16 buffers, dynamic\n"
      "# grows to tens of buffers and runs within a few percent of static's\n"
      "# best while pinning less than static at 64. Started from 1 buffer it\n"
      "# does not settle: the pool grows to the max_prepost cap and pins the\n"
      "# most memory of any row (an open item in ROADMAP.md). Memory is per\n"
      "# node on a %lld-node cluster.\n",
      static_cast<long long>(nodes));
  return 0;
}
