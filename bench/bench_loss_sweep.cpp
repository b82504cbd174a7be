// Robustness bench: packet-loss sweep per flow-control scheme. The paper's
// testbed assumed a lossless fabric; this sweep measures how each scheme's
// message rate degrades when the wire starts dropping packets and the RC
// reliability protocol (retransmission timers + sequence NAKs) has to earn
// its keep. Deterministic: a fixed fault seed per cell.
#include <cstdio>
#include <iostream>

#include "bench_common.hpp"

using namespace mvflow;
using namespace mvflow::bench;

namespace {

constexpr double kLossRates[] = {0.0, 0.001, 0.005, 0.01, 0.02, 0.05};

int run(const util::Options& opts) {
  const int window = static_cast<int>(opts.get_int("window", 64));
  const int prepost = static_cast<int>(opts.get_int("prepost", 100));
  const int reps = static_cast<int>(opts.get_int("reps", 10));
  const std::size_t bytes = static_cast<std::size_t>(opts.get_int("bytes", 1024));
  const exp::SweepRunner runner = sweep_runner(opts);

  std::printf("# Loss sweep: %zu-byte non-blocking bandwidth vs packet-loss "
              "rate, window=%d, prepost=%d, transport timer 50 us\n",
              bytes, window, prepost);
  // Every (scheme, loss) cell carries its fault seed in its own config, so
  // the sweep parallelizes with bit-identical drop/retransmit counts.
  std::vector<std::function<BwResult()>> cells;
  for (const auto scheme : kSchemes) {
    for (const double loss : kLossRates) {
      mpi::WorldConfig cfg = base_config(scheme, prepost);
      cfg.fabric.transport_timeout = sim::microseconds(50);
      cfg.fabric.transport_retry_limit = -1;
      cfg.fabric.fault.loss_prob = loss;
      cfg.fabric.fault.seed = 0xb10cf001;
      quiet_if_parallel(cfg, runner);
      cells.push_back([cfg, bytes, window, reps] {
        return run_bandwidth(cfg, bytes, window, false, reps);
      });
    }
  }
  const auto results = runner.run<BwResult>(cells);

  util::Table t({"scheme", "loss_pct", "Mmsg/s", "lost_pkts", "retx_msgs",
                 "seq_naks", "timer_retries"});
  std::size_t i = 0;
  for (const auto scheme : kSchemes) {
    for (const double loss : kLossRates) {
      const BwResult& r = results[i++];
      std::uint64_t seq_naks = 0, timer_retries = 0;
      for (const auto& c : r.stats.connections) {
        seq_naks += c.qp.seq_naks_sent;
        timer_retries += c.qp.transport_retries;
      }
      t.add(std::string(flowctl::to_string(scheme)), loss * 100.0,
            r.million_msgs_per_s, r.stats.fabric.lost_packets,
            r.stats.total_retransmitted_messages(), seq_naks, timer_retries);
    }
  }
  t.print(std::cout);
  std::puts("\n# Expectation: at 0% loss every scheme matches its lossless");
  std::puts("# figure (the fault machinery is inert). As loss grows, NAK-");
  std::puts("# driven recovery keeps the in-order connection moving; cells");
  std::puts("# where timer_retries dominates seq_naks mark losses the");
  std::puts("# responder could not observe (tail packets, lost ACKs), each");
  std::puts("# costing a full timeout stall.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return util::run_main(argc, argv, run);
}
