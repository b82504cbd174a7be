// NAS demo: run any of the seven NAS proxy kernels from the command line
// under a chosen scheme and buffer budget, and print the verification
// outcome plus the full communication census.
//
//   ./nas_demo lu --scheme=dynamic --prepost=1
//   ./nas_demo ft --scheme=hardware --prepost=100 --iters=8
#include <cstdio>
#include <iostream>

#include "nas/kernel.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

using namespace mvflow;

namespace {

int run(const util::Options& opts) {
  if (opts.positional().empty()) {
    std::fprintf(stderr,
                 "usage: nas_demo <is|ft|lu|cg|mg|bt|sp> [--scheme=...] "
                 "[--prepost=N] [--iters=N]\n");
    return 1;
  }
  const auto app = nas::parse_app(opts.positional()[0]);
  const auto scheme = flowctl::parse_scheme(opts.get_or("scheme", "static"));
  if (!app || !scheme) {
    std::fprintf(stderr, "unknown app or scheme\n");
    return 1;
  }

  mpi::WorldConfig cfg;
  cfg.num_ranks = 0;  // the app's default process count
  cfg.flow.scheme = *scheme;
  cfg.flow.prepost = static_cast<int>(opts.get_int("prepost", 100));
  nas::NasParams params;
  params.iterations = static_cast<int>(opts.get_int("iters", 0));

  const auto r = nas::run_app(*app, cfg, params);

  std::printf("%s on %d ranks, scheme=%s, prepost=%d\n",
              std::string(nas::to_string(*app)).c_str(),
              nas::default_ranks(*app),
              std::string(flowctl::to_string(*scheme)).c_str(),
              cfg.flow.prepost);
  std::printf("verified: %s   metric: %g   simulated runtime: %.3f ms\n",
              r.verified ? "yes" : "NO", r.metric, sim::to_ms(r.elapsed));

  util::Table t({"counter", "value"});
  t.add("total MPI messages", r.stats.total_messages());
  t.add("explicit credit messages", r.stats.total_ecm());
  t.add("sends through backlog", r.stats.total_backlogged());
  t.add("max posted buffers/conn", r.stats.max_posted_buffers());
  t.add("RNR NAKs", r.stats.total_rnr_naks());
  t.add("retransmitted messages", r.stats.total_retransmitted_messages());
  t.add("fabric data packets", r.stats.fabric.data_packets);
  t.add("fabric control packets", r.stats.fabric.control_packets);
  t.add("fabric wire bytes", r.stats.fabric.wire_bytes);
  t.print(std::cout);
  return r.verified ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
