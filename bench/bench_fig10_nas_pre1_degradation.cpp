// Figure 10: percentage performance drop when the pre-post value goes from
// 100 to 1. Paper finding: IS/FT/SP/BT degrade at most ~2% under every
// scheme; the hardware scheme collapses on LU and MG (RNR time-out storms);
// the static scheme loses ~13% on LU and ~6% on CG; the dynamic scheme
// adapts and shows almost no degradation anywhere.
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

  std::puts("# Figure 10: NAS degradation (%) from prepost=100 to prepost=1");
  // Each (app, scheme, prepost) run is its own job: 42 independent worlds.
  const exp::SweepRunner runner = sweep_runner(opts);
  std::vector<std::function<nas::KernelResult()>> cells;
  std::vector<std::string> labels;
  for (auto app : nas::kAllApps) {
    for (auto scheme : kSchemes) {
      for (int prepost : {100, 1}) {
        auto cfg = base_config(scheme, prepost, 0);
        quiet_if_parallel(cfg, runner);
        labels.push_back(nas_cell_label(app, cfg));
        cells.push_back(
            [app, cfg, params] { return nas::run_app(app, cfg, params); });
      }
    }
  }
  const auto results = runner.run<nas::KernelResult>(cells);

  util::Table t({"app", "hardware_%", "static_%", "dynamic_%"});
  std::size_t idx = 0;
  for (auto app : nas::kAllApps) {
    double drop[3];
    for (int i = 0; i < 3; ++i, idx += 2) {
      const double ms100 = sim::to_ms(results[idx].elapsed);
      const double ms1 = sim::to_ms(results[idx + 1].elapsed);
      drop[i] = 100.0 * (ms1 - ms100) / ms100;
    }
    t.add(std::string(nas::to_string(app)), drop[0], drop[1], drop[2]);
  }
  t.print(std::cout);
  std::puts("\n# Expectation (paper): most apps <= ~2%; hardware drops hard on");
  std::puts("# LU and MG (RNR retries); static drops ~13% on LU, ~6% on CG;");
  std::puts("# dynamic shows almost no degradation anywhere.");
  return nas_exit_status(results, labels);
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
