// Ablation A3: RNR retry-timer sweep for the hardware scheme. The paper's
// hardware scheme leaves pacing entirely to the RC end-to-end flow control,
// whose only tuning knob (fixed at init time) is the RNR timer.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

int run(const util::Options& opts) {
  const int window = static_cast<int>(opts.get_int("window", 100));
  const int prepost = static_cast<int>(opts.get_int("prepost", 4));

  std::printf("# Ablation A3: RNR timer sweep, hardware scheme, 4-byte "
              "non-blocking bandwidth, window=%d, prepost=%d\n", window, prepost);
  const exp::SweepRunner runner = sweep_runner(opts);
  const int kTimersUs[] = {5, 10, 20, 40, 80, 160, 320};
  std::vector<std::function<BwResult()>> cells;
  for (int us : kTimersUs) {
    mpi::WorldConfig cfg = base_config(flowctl::Scheme::hardware, prepost);
    cfg.fabric.rnr_timeout = sim::microseconds(us);
    quiet_if_parallel(cfg, runner);
    cells.push_back([cfg, window] {
      return run_bandwidth(cfg, /*msg_bytes=*/4, window, /*blocking=*/false);
    });
  }
  const auto results = runner.run<BwResult>(cells);

  util::Table t({"rnr_timer_us", "Mmsg/s", "rnr_naks", "retransmitted"});
  std::size_t idx = 0;
  for (int us : kTimersUs) {
    const auto& r = results[idx++];
    t.add(us, r.million_msgs_per_s, r.stats.total_rnr_naks(),
          r.stats.total_retransmitted_messages());
  }
  t.print(std::cout);
  std::puts("\n# Expectation: throughput falls as the timer grows (each miss");
  std::puts("# stalls the whole in-order connection for the full timeout);");
  std::puts("# IB fixes this parameter at connection setup, which is exactly");
  std::puts("# the inflexibility the paper holds against the hardware scheme.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
