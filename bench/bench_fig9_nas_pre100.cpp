// Figure 9: NAS proxy runtimes with 100 pre-posted buffers per connection
// (more than any application needs). Paper finding: the three schemes are
// within 2-3% for almost all applications; for LU the hardware scheme wins
// by ~5-6% because the user-level schemes pay for explicit credit messages
// on LU's one-way wavefront phases.
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
  params.compute_ns_per_point = opts.get_double("cns", 1.0);  // 0 = default

  std::puts("# Figure 9: NAS proxy runtimes (simulated ms), prepost=100");
  std::puts("# IS/FT/LU/CG/MG on 8 ranks; BT/SP on 16 ranks");
  const exp::SweepRunner runner = sweep_runner(opts);
  std::vector<std::function<nas::KernelResult()>> cells;
  std::vector<std::string> labels;
  for (auto app : nas::kAllApps) {
    for (auto scheme : kSchemes) {
      auto cfg = base_config(scheme, 100, 0);
      quiet_if_parallel(cfg, runner);
      labels.push_back(nas_cell_label(app, cfg));
      cells.push_back(
          [app, cfg, params] { return nas::run_app(app, cfg, params); });
    }
  }
  const auto results = runner.run<nas::KernelResult>(cells);

  util::Table t({"app", "hardware_ms", "static_ms", "dynamic_ms",
                 "static/hw", "dynamic/hw", "verified"});
  std::size_t idx = 0;
  for (auto app : nas::kAllApps) {
    double ms[3];
    bool verified = true;
    for (int i = 0; i < 3; ++i, ++idx) {
      ms[i] = sim::to_ms(results[idx].elapsed);
      verified = verified && results[idx].verified;
    }
    t.add(std::string(nas::to_string(app)), ms[0], ms[1], ms[2], ms[1] / ms[0],
          ms[2] / ms[0], verified ? "yes" : "NO");
  }
  t.print(std::cout);
  std::puts("\n# Expectation (paper): ratios ~1.00 +/- 0.03 everywhere except");
  std::puts("# LU, where user-level schemes run ~5-6% slower than hardware.");
  return nas_exit_status(results, labels);
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
