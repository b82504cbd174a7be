// SweepRunner: run independent simulations across a thread pool with
// bit-identical results (DESIGN.md §12).
//
// Every paper figure/table is a sweep over dozens of independent
// (scheme, prepost, msg_size, fault_seed) configurations, each a fully
// deterministic single-threaded World. The runner executes those jobs
// concurrently and returns their results **in job order**, so a table or
// JSON artifact assembled from the result vector is byte-identical no
// matter how many worker threads ran the sweep or how the OS scheduled
// them. Determinism therefore needs no coordination beyond "each job's
// world is self-contained" — which the de-globalization work guarantees
// (fabric-owned flight recorder, thread-local logger clocks, hash-bucketed
// live-engine registry; see §12 for the full state inventory).
//
// Thread count contract:
//   n_threads <= 0  -> hardware concurrency
//   n_threads == 1  -> jobs run inline on the calling thread, in order,
//                      exceptions propagate immediately: exactly the
//                      pre-runner serial path.
//   n_threads  > 1  -> min(n_threads, jobs) workers pull jobs from an
//                      atomic cursor; a throwing job stops the hand-out
//                      and the lowest-indexed captured exception is
//                      rethrown after the workers drain.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

namespace mvflow::exp {

class SweepRunner {
 public:
  /// `n_threads` per the contract above; the snapshot is taken here so a
  /// runner built once keeps the same width for every sweep it runs.
  explicit SweepRunner(int n_threads = 0);

  /// Worker width this runner executes with (>= 1, env-independent).
  int threads() const noexcept { return threads_; }

  /// Resolved "use all cores" default (>= 1 even when the runtime reports
  /// zero).
  static int hardware_threads() noexcept;

  /// Execute every job and return their results in job order.
  template <typename R>
  std::vector<R> run(const std::vector<std::function<R()>>& jobs) const {
    std::vector<std::optional<R>> slots(jobs.size());
    std::vector<std::function<void()>> tasks;
    tasks.reserve(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      tasks.push_back([&jobs, &slots, i] { slots[i].emplace(jobs[i]()); });
    }
    execute(tasks);
    std::vector<R> out;
    out.reserve(slots.size());
    for (auto& s : slots) out.push_back(std::move(*s));
    return out;
  }

  /// Side-effect-only jobs (each must confine its effects to its own
  /// world/slot — see the determinism contract).
  void run(const std::vector<std::function<void()>>& jobs) const {
    execute(jobs);
  }

 private:
  void execute(const std::vector<std::function<void()>>& tasks) const;

  int threads_ = 1;
};

/// One-shot convenience wrapper: `run_parallel(jobs, n)` ==
/// `SweepRunner(n).run(jobs)`.
template <typename R>
std::vector<R> run_parallel(const std::vector<std::function<R()>>& jobs,
                            int n_threads = 0) {
  return SweepRunner(n_threads).run<R>(jobs);
}

inline void run_parallel(const std::vector<std::function<void()>>& jobs,
                         int n_threads = 0) {
  SweepRunner(n_threads).run(jobs);
}

}  // namespace mvflow::exp
