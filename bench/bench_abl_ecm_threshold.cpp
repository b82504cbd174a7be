// Ablation A1: ECM threshold sweep for the static scheme on LU.
// The paper (§6.3.1) notes LU's user-level performance "can be improved by
// increasing this value": a larger threshold suppresses more ECMs at the
// cost of slower credit return.
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

  std::puts("# Ablation A1: ECM threshold sweep, LU, static scheme, prepost=100");
  const exp::SweepRunner runner = sweep_runner(opts);
  const int kThresholds[] = {1, 2, 5, 10, 20, 40, 64};
  std::vector<std::function<nas::KernelResult()>> cells;
  std::vector<std::string> labels;
  for (int threshold : kThresholds) {
    auto cfg = base_config(flowctl::Scheme::user_static, 100, 0);
    cfg.flow.ecm_threshold = threshold;
    quiet_if_parallel(cfg, runner);
    labels.push_back(nas_cell_label(nas::App::lu, cfg) + " ecm_threshold=" +
                     std::to_string(threshold));
    cells.push_back(
        [cfg, params] { return nas::run_app(nas::App::lu, cfg, params); });
  }
  const auto results = runner.run<nas::KernelResult>(cells);

  util::Table t({"threshold", "runtime_ms", "ecm_msgs", "ecm_%", "backlogged"});
  std::size_t idx = 0;
  for (int threshold : kThresholds) {
    const auto& r = results[idx++];
    const auto ecm = r.stats.total_ecm();
    const auto total = r.stats.total_messages();
    t.add(threshold, sim::to_ms(r.elapsed), ecm,
          100.0 * static_cast<double>(ecm) / static_cast<double>(total),
          r.stats.total_backlogged());
  }
  t.print(std::cout);
  std::puts("\n# Expectation: ECM count ~ 1/threshold; runtime improves as the");
  std::puts("# threshold grows until credit starvation starts to backlog sends.");
  return nas_exit_status(results, labels);
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
