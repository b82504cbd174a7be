// Table 2: maximum number of posted buffers per connection after running
// each application under the user-level dynamic scheme (starting from a
// small pool). Paper finding: every application except LU settles below 8
// buffers; LU's deep wavefront bursts grow the pool to ~63.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"
#include "nas/kernel.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

int run(const util::Options& opts) {
  nas::NasParams params;
  params.iterations = static_cast<int>(opts.get_int("iters", 0));
  params.compute_ns_per_point = opts.get_double("cns", 1.0);
  const int start = static_cast<int>(opts.get_int("start", 1));
  const int step = static_cast<int>(opts.get_int("growth_step", 1));

  std::printf("# Table 2: max posted buffers per connection, dynamic scheme "
              "(start=%d, linear step=%d)\n", start, step);
  const exp::SweepRunner runner = sweep_runner(opts);
  std::vector<std::function<nas::KernelResult()>> cells;
  std::vector<std::string> labels;
  for (auto app : nas::kAllApps) {
    auto cfg = base_config(flowctl::Scheme::user_dynamic, start, 0);
    cfg.flow.growth_step = step;
    quiet_if_parallel(cfg, runner);
    labels.push_back(nas_cell_label(app, cfg));
    cells.push_back([app, cfg, params] { return nas::run_app(app, cfg, params); });
  }
  const auto results = runner.run<nas::KernelResult>(cells);

  util::Table t({"app", "max_posted_buffers", "growth_events", "verified"});
  std::size_t idx = 0;
  for (auto app : nas::kAllApps) {
    const auto& r = results[idx++];
    std::uint64_t growth = 0;
    for (const auto& c : r.stats.connections) growth += c.flow.growth_events;
    t.add(std::string(nas::to_string(app)), r.stats.max_posted_buffers(), growth,
          r.verified ? "yes" : "NO");
  }
  t.print(std::cout);
  std::puts("\n# Expectation (paper): IS 4, FT 4, LU 63, CG 3, MG 6, BT 7, SP 7");
  std::puts("# — i.e. everything small except LU, which needs tens of buffers.");
  return nas_exit_status(results, labels);
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
