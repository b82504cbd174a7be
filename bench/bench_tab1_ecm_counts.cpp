// Table 1: explicit credit messages under the user-level static scheme
// (prepost=100, ECM threshold 5). Paper finding: LU's asymmetric wavefront
// traffic makes ECMs ~18% of its total messages; the other applications
// send almost none because piggybacking suffices.
//
// All counters come from each run's MetricsRegistry snapshot — the per-app
// snapshot is also persisted as METRICS_tab1_<app>.json, giving the full
// per-connection breakdown the table aggregates away.
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
  const int threshold = static_cast<int>(opts.get_int("threshold", 5));

  std::printf("# Table 1: explicit credit messages, static scheme, "
              "prepost=100, threshold=%d\n", threshold);
  // One job per app; snapshots come back in app order and are persisted
  // from the main thread so METRICS_tab1_*.json writes never race.
  const exp::SweepRunner runner = sweep_runner(opts);
  std::vector<std::function<nas::KernelResult()>> cells;
  std::vector<std::string> labels;
  for (auto app : nas::kAllApps) {
    auto cfg = base_config(flowctl::Scheme::user_static, 100, 0);
    cfg.flow.ecm_threshold = threshold;
    quiet_if_parallel(cfg, runner);
    labels.push_back(nas_cell_label(app, cfg));
    cells.push_back([app, cfg, params] { return nas::run_app(app, cfg, params); });
  }
  const auto results = runner.run<nas::KernelResult>(cells);

  util::Table t({"app", "ecm_msgs", "total_msgs", "ecm_%", "avg_ecm_per_conn"});
  std::size_t idx = 0;
  for (auto app : nas::kAllApps) {
    const auto& r = results[idx++];
    const obs::Snapshot& m = r.metrics;
    write_metrics("tab1_" + std::string(nas::to_string(app)), m);

    const double ecm = m.sum_suffix(".flow.ecm_sent");
    const double total = m.sum_suffix(".flow.total_messages");
    // Connections that actually carried traffic.
    std::size_t active = 0;
    for (const auto& [name, v] : m.values) {
      if (v > 0 && name.size() > 20 &&
          name.compare(name.size() - 20, 20, ".flow.total_messages") == 0) {
        ++active;
      }
    }
    t.add(std::string(nas::to_string(app)), ecm, total, 100.0 * ecm / total,
          active ? ecm / static_cast<double>(active) : 0.0);
  }
  t.print(std::cout);
  std::puts("\n# Expectation (paper): LU ~18% ECMs; all other apps ~0%.");
  return nas_exit_status(results, labels);
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
