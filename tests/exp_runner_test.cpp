// exp::SweepRunner: the thread-pool sweep executor and the de-globalized
// state it depends on. Covers the runner's ordering/exception contract, the
// -j1 inline path, concurrent Worlds exercising the hash-bucketed
// live-engine registry and world-owned flight recorders, and the headline
// determinism claim: reduced figure sweeps and seeded fault-injection
// sweeps are byte/count-identical at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bw_figure.hpp"
#include "exp/run_config.hpp"
#include "exp/runner.hpp"
#include "fig_latency.hpp"
#include "mpi/communicator.hpp"
#include "mpi/world.hpp"
#include "sim/engine.hpp"

namespace exp = mvflow::exp;
namespace mpi = mvflow::mpi;
namespace obs = mvflow::obs;
namespace sim = mvflow::sim;

namespace {

/// Spin until `arrived` reaches `expected`: forces two pool jobs to overlap
/// in time so the cross-thread isolation tests actually run concurrently.
void rendezvous(std::atomic<int>& arrived, int expected) {
  arrived.fetch_add(1);
  while (arrived.load() < expected) std::this_thread::yield();
}

mpi::WorldConfig pingpong_config() {
  mpi::WorldConfig cfg;
  cfg.num_ranks = 2;
  cfg.flow.scheme = mvflow::flowctl::Scheme::user_static;
  cfg.flow.prepost = 16;
  cfg.run = cfg.run.quiet();
  return cfg;
}

/// One deterministic two-rank ping-pong world; returns simulated elapsed
/// ns. When `posted` is given, the world's recorder is enabled and the
/// msg_posted count written back.
long long pingpong_elapsed_ns(int iters, std::uint64_t* posted = nullptr) {
  mpi::World world(pingpong_config());
  if (posted != nullptr) world.recorder().enable(1u << 12);
  const auto elapsed = world.run([iters](mpi::Communicator& comm) {
    std::byte buf[64];
    std::memset(buf, 0, sizeof buf);
    for (int i = 0; i < iters; ++i) {
      if (comm.rank() == 0) {
        comm.send(buf, 1, 0);
        comm.recv(buf, 1, 0);
      } else {
        comm.recv(buf, 0, 0);
        comm.send(buf, 0, 0);
      }
    }
  });
  if (posted != nullptr) *posted = world.recorder().count(obs::Ev::msg_posted);
  return elapsed.count();
}

}  // namespace

// ----------------------------------------------------------- thread counts --

TEST(SweepRunner, ResolvesThreadCounts) {
  EXPECT_EQ(exp::SweepRunner(1).threads(), 1);
  EXPECT_EQ(exp::SweepRunner(5).threads(), 5);
  const int hw = exp::SweepRunner::hardware_threads();
  EXPECT_GE(hw, 1);
  EXPECT_EQ(exp::SweepRunner(0).threads(), hw);
  EXPECT_EQ(exp::SweepRunner(-3).threads(), hw);
}

// ------------------------------------------------------- ordering contract --

TEST(SweepRunner, ResultsComeBackInJobOrder) {
  constexpr int kJobs = 64;
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back([i] {
      // Uneven per-job work so a racy implementation would interleave.
      volatile int sink = 0;
      for (int k = 0; k < (i * 7919) % 5000; ++k) sink = sink + k;
      return i;
    });
  }
  const std::vector<int> out = exp::run_parallel(jobs, 8);
  ASSERT_EQ(out.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) EXPECT_EQ(out[i], i);
}

TEST(SweepRunner, SerialPathRunsInlineAndInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 4; ++i) {
    jobs.push_back([i, caller, &order] {
      EXPECT_EQ(std::this_thread::get_id(), caller);
      order.push_back(i);
      return i * 10;
    });
  }
  const auto out = exp::SweepRunner(1).run<int>(jobs);
  EXPECT_EQ(out, (std::vector<int>{0, 10, 20, 30}));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SweepRunner, VoidOverloadRunsEveryJob) {
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> jobs;
  for (int i = 0; i < 37; ++i) jobs.push_back([&hits] { hits.fetch_add(1); });
  exp::run_parallel(jobs, 4);
  EXPECT_EQ(hits.load(), 37);
}

// ------------------------------------------------------ exception contract --

TEST(SweepRunner, SerialExceptionPropagatesImmediately) {
  std::vector<int> ran;
  std::vector<std::function<int()>> jobs;
  jobs.push_back([&ran] { ran.push_back(0); return 0; });
  jobs.push_back([]() -> int { throw std::runtime_error("boom 1"); });
  jobs.push_back([&ran] { ran.push_back(2); return 2; });
  EXPECT_THROW(exp::SweepRunner(1).run<int>(jobs), std::runtime_error);
  // Serial semantics: nothing after the throwing job runs.
  EXPECT_EQ(ran, (std::vector<int>{0}));
}

TEST(SweepRunner, ParallelRethrowsLowestIndexedException) {
  std::vector<std::function<int()>> jobs;
  for (int i = 0; i < 12; ++i) {
    if (i == 3 || i == 7) {
      jobs.push_back([i]() -> int {
        throw std::runtime_error("boom " + std::to_string(i));
      });
    } else {
      jobs.push_back([i] { return i; });
    }
  }
  // Jobs are handed out in index order, so job 3 always runs and its
  // exception is the lowest-indexed capture regardless of scheduling.
  try {
    (void)exp::SweepRunner(4).run<int>(jobs);
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom 3");
  }
}

// --------------------------------------- concurrent worlds, shared registry --

TEST(SweepRunner, ConcurrentEnginesShareTheLiveRegistrySafely) {
  // Two engines on two pool threads concurrently register, schedule,
  // cancel, and die; stale handles are cancelled after their engine is
  // gone. This is the regression test for the live-engine registry's
  // per-bucket locking (a single unsynchronized registry corrupts under
  // exactly this pattern).
  std::atomic<int> arrived{0};
  std::vector<std::function<sim::EventHandle()>> jobs;
  for (int j = 0; j < 2; ++j) {
    jobs.push_back([&arrived]() -> sim::EventHandle {
      rendezvous(arrived, 2);
      sim::EventHandle stale;
      {
        sim::Engine eng;
        int fired = 0;
        std::vector<sim::EventHandle> handles;
        for (int i = 0; i < 200; ++i) {
          handles.push_back(
              eng.schedule_at(sim::TimePoint(i + 1), [&fired] { ++fired; }));
        }
        for (int i = 0; i < 200; i += 2) handles[i].cancel();
        stale = handles[1];  // survives the engine
        eng.run();
        EXPECT_EQ(fired, 100);
        EXPECT_FALSE(stale.valid());  // fired already
      }
      return stale;  // engine destroyed: handle must degrade to a no-op
    });
  }
  auto stale = exp::run_parallel(jobs, 2);
  for (auto& h : stale) {
    EXPECT_FALSE(h.valid());
    h.cancel();  // dead-engine cancel: must not touch freed memory
  }
}

TEST(SweepRunner, TwoWorldsOnTwoThreadsStayDeterministic) {
  // The same World config run twice concurrently must produce the exact
  // simulated elapsed time it produces serially: nothing about a
  // neighbouring world on another pool thread may leak in.
  const long long serial = pingpong_elapsed_ns(32);
  std::atomic<int> arrived{0};
  std::vector<std::function<long long()>> jobs;
  for (int j = 0; j < 2; ++j) {
    jobs.push_back([&arrived] {
      rendezvous(arrived, 2);
      return pingpong_elapsed_ns(32);
    });
  }
  const auto out = exp::run_parallel(jobs, 2);
  EXPECT_EQ(out[0], serial);
  EXPECT_EQ(out[1], serial);
}

TEST(SweepRunner, RecordersStayIsolatedAcrossConcurrentWorlds) {
  // Each world's fabric owns its flight recorder, and every QP and device
  // reaches it through its HCA, not through any per-thread state; two
  // tracing worlds running at once must each see exactly their own
  // events. Different iteration counts make cross-talk detectable.
  std::uint64_t posted_small = 0, posted_large = 0;
  pingpong_elapsed_ns(4, &posted_small);
  pingpong_elapsed_ns(9, &posted_large);
  ASSERT_GT(posted_small, 0u);
  ASSERT_NE(posted_small, posted_large);

  std::atomic<int> arrived{0};
  std::vector<std::function<std::uint64_t()>> jobs;
  for (const int iters : {4, 9}) {
    jobs.push_back([iters, &arrived] {
      rendezvous(arrived, 2);
      std::uint64_t posted = 0;
      pingpong_elapsed_ns(iters, &posted);
      return posted;
    });
  }
  const auto out = exp::run_parallel(jobs, 2);
  EXPECT_EQ(out[0], posted_small);
  EXPECT_EQ(out[1], posted_large);
}

// ------------------------------------------------- sweep-level determinism --

TEST(SweepDeterminism, ReducedFigTablesIdenticalAcrossJobCounts) {
  const std::string fig2_serial =
      mvflow::bench::build_fig2_table(/*iters=*/20).to_string();
  EXPECT_EQ(mvflow::bench::build_fig2_table(20, nullptr, 4).to_string(),
            fig2_serial);
  EXPECT_EQ(mvflow::bench::build_fig2_table(20, nullptr, 8).to_string(),
            fig2_serial);

  const std::string fig3_serial =
      mvflow::bench::build_bw_table(/*msg_bytes=*/4, /*prepost=*/100,
                                    /*blocking=*/true)
          .to_string();
  EXPECT_EQ(mvflow::bench::build_bw_table(4, 100, true, nullptr, 4).to_string(),
            fig3_serial);
}

TEST(SweepDeterminism, SeededFaultSweepIdenticalSerialAndParallel) {
  // Fault injection draws from a per-world seeded RNG, so lost-packet and
  // retransmission counts are part of the determinism contract too.
  struct FaultCounts {
    std::uint64_t lost = 0;
    std::uint64_t retx = 0;
    long long elapsed_ns = 0;
    bool operator==(const FaultCounts&) const = default;
  };
  const auto sweep = [](int n_threads) {
    std::vector<std::function<FaultCounts()>> cells;
    for (const double loss : {0.01, 0.03, 0.05}) {
      mpi::WorldConfig cfg = pingpong_config();
      cfg.fabric.transport_timeout = sim::microseconds(50);
      cfg.fabric.transport_retry_limit = -1;
      cfg.fabric.fault.loss_prob = loss;
      cfg.fabric.fault.seed = 0xfee1deadu;
      cells.push_back([cfg] {
        mpi::World world(cfg);
        const auto elapsed = world.run([](mpi::Communicator& comm) {
          std::byte buf[512];
          std::memset(buf, 0, sizeof buf);
          for (int i = 0; i < 24; ++i) {
            if (comm.rank() == 0) {
              comm.send(buf, 1, 0);
              comm.recv(buf, 1, 0);
            } else {
              comm.recv(buf, 0, 0);
              comm.send(buf, 0, 0);
            }
          }
        });
        const auto stats = world.collect_stats();
        return FaultCounts{stats.fabric.lost_packets,
                           stats.total_retransmitted_messages(),
                           elapsed.count()};
      });
    }
    return exp::run_parallel(cells, n_threads);
  };

  const auto serial = sweep(1);
  const auto parallel = sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  std::uint64_t total_lost = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "cell " << i;
    total_lost += serial[i].lost;
  }
  EXPECT_GT(total_lost, 0u) << "sweep must actually exercise fault paths";
}

// ------------------------------------------------------------- run config --

TEST(RunConfig, QuietClearsExportsButKeepsCapacity) {
  exp::RunConfig cfg;
  cfg.metrics_path = "m.json";
  cfg.trace_path = "t.json";
  cfg.trace_csv_path = "t.csv";
  cfg.trace_capacity = 1234;
  EXPECT_TRUE(cfg.trace_enabled());
  const exp::RunConfig q = cfg.quiet();
  EXPECT_FALSE(q.trace_enabled());
  EXPECT_TRUE(q.metrics_path.empty());
  EXPECT_TRUE(q.trace_path.empty());
  EXPECT_TRUE(q.trace_csv_path.empty());
  EXPECT_EQ(q.trace_capacity, 1234u);
  EXPECT_EQ(&exp::RunConfig::process(), &exp::RunConfig::process());
}
