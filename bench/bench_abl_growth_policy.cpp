// Ablation A2: linear vs exponential growth for the dynamic scheme
// (paper §4.3 proposes both; the implementation uses linear).
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

  std::puts("# Ablation A2: dynamic-scheme growth policy on LU (start=1)");
  const exp::SweepRunner runner = sweep_runner(opts);
  const int kSteps[] = {1, 2, 4, 8};
  std::vector<std::function<nas::KernelResult()>> cells;
  std::vector<std::string> labels;
  for (int step : kSteps) {
    auto cfg = base_config(flowctl::Scheme::user_dynamic, 1, 0);
    cfg.flow.growth_step = step;
    quiet_if_parallel(cfg, runner);
    labels.push_back(nas_cell_label(nas::App::lu, cfg) + " linear step=" +
                     std::to_string(step));
    cells.push_back(
        [cfg, params] { return nas::run_app(nas::App::lu, cfg, params); });
  }
  {
    auto cfg = base_config(flowctl::Scheme::user_dynamic, 1, 0);
    cfg.flow.exponential_growth = true;
    quiet_if_parallel(cfg, runner);
    labels.push_back(nas_cell_label(nas::App::lu, cfg) + " exponential");
    cells.push_back(
        [cfg, params] { return nas::run_app(nas::App::lu, cfg, params); });
  }
  const auto results = runner.run<nas::KernelResult>(cells);

  util::Table t({"policy", "step", "runtime_ms", "max_posted", "growth_events"});
  std::size_t idx = 0;
  for (int step : kSteps) {
    const auto& r = results[idx++];
    std::uint64_t growth = 0;
    for (const auto& c : r.stats.connections) growth += c.flow.growth_events;
    t.add("linear", step, sim::to_ms(r.elapsed), r.stats.max_posted_buffers(),
          growth);
  }
  {
    const auto& r = results[idx];
    std::uint64_t growth = 0;
    for (const auto& c : r.stats.connections) growth += c.flow.growth_events;
    t.add("exponential", 0, sim::to_ms(r.elapsed), r.stats.max_posted_buffers(),
          growth);
  }
  t.print(std::cout);
  std::puts("\n# Expectation: larger steps adapt faster (fewer growth events)");
  std::puts("# at the cost of over-allocating buffers; exponential converges");
  std::puts("# in the fewest events but overshoots the most.");
  return nas_exit_status(results, labels);
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
