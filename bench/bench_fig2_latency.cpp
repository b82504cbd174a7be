// Figure 2: small-message MPI ping-pong latency for the three flow-control
// schemes. Paper finding: with plenty of credits the user-level bookkeeping
// overhead is negligible — all three schemes are comparable.
#include <cstdio>
#include <iostream>

#include "fig_latency.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

int run(const util::Options& opts) {
  const int iters = static_cast<int>(opts.get_int("iters", 200));
  const exp::SweepRunner runner = sweep_runner(opts);

  std::puts("# Figure 2: MPI one-way latency (us), ping-pong, prepost=100");
  WallTimer wall;
  BenchJson json("fig2_latency");
  const util::Table t = build_fig2_table(iters, &json, runner.threads());
  t.print(std::cout);
  json.add_meta("jobs", runner.threads());
  json.write(wall.seconds());
  std::puts("\n# Expectation (paper): all three schemes within a few percent;");
  std::puts("# the hardware scheme has the least bookkeeping but the gap is noise.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
