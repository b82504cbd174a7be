// Randomized dispatch-order tests for the engine's pending set (DESIGN.md
// §14). FourAryHeap is driven the way the engine drives it — peek, then
// pop; pushes never behind the last popped time — and every pop is
// checked against a std::set of (t, seq) keys, whose begin() is by
// definition the strict (t, seq) minimum. The distributions stress sift
// depth (dense uniform traffic), equal-key runs (same-timestamp spikes)
// and wide key ranges (sparse far-future tails).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace {

using namespace mvflow::sim;

/// Deterministic splitmix64: tests must not depend on library RNG details.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

using Key = std::pair<std::int64_t, std::uint64_t>;  // (t, seq)

/// Pop the heap's minimum and require it to be the reference's minimum,
/// with the slab reference stamped at push time still attached.
void pop_and_check(FourAryHeap& heap, std::set<Key>& ref) {
  const SchedEntry* top = heap.peek();
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(Key(top->t.count(), top->seq), *ref.begin());
  ASSERT_EQ(top->slot, static_cast<std::uint32_t>(top->seq));
  ASSERT_EQ(top->gen, static_cast<std::uint32_t>(top->seq >> 1));
  ref.erase(ref.begin());
  heap.pop_min();
  ASSERT_EQ(heap.size(), ref.size());
}

/// One deterministic op stream per seed. `spread` shapes the push
/// distribution: the delta past the current virtual clock is
/// below(spread), plus occasional same-timestamp spikes and rare
/// far-future outliers.
void expect_reference_order(std::size_t target_pending, std::uint64_t spread,
                            int spike_percent, int far_percent) {
  for (std::uint64_t seed : {1ull, 42ull, 0xdecafull}) {
    SCOPED_TRACE(seed);
    FourAryHeap heap;
    std::set<Key> ref;
    Rng rng{seed};
    std::uint64_t seq = 0;
    std::int64_t now = 0;
    std::int64_t last_push = 0;
    const std::size_t ops = target_pending * 6;
    for (std::size_t i = 0; i < ops; ++i) {
      // Bias pushes while below the target so the heap actually reaches
      // it, then hover around it with a 50/50 mix.
      const bool push = heap.size() < target_pending ? rng.below(100) < 80
                                                     : rng.below(100) < 50;
      if (push || heap.size() == 0) {
        std::int64_t t;
        const std::uint64_t roll = rng.below(100);
        if (roll < static_cast<std::uint64_t>(spike_percent)) {
          t = last_push;  // same-timestamp burst
        } else if (roll <
                   static_cast<std::uint64_t>(spike_percent + far_percent)) {
          t = now + static_cast<std::int64_t>(spread * 1000 +
                                              rng.below(spread));
        } else {
          t = now + static_cast<std::int64_t>(rng.below(spread));
        }
        if (t < now) t = now;  // engine contract: never behind the clock
        heap.push(SchedEntry{TimePoint(t), seq,
                             static_cast<std::uint32_t>(seq),
                             static_cast<std::uint32_t>(seq >> 1)});
        ref.emplace(t, seq);
        ++seq;
        last_push = t;
      } else {
        now = heap.peek()->t.count();
        pop_and_check(heap, ref);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    while (!ref.empty()) {
      pop_and_check(heap, ref);
      if (::testing::Test::HasFatalFailure()) return;
    }
    EXPECT_EQ(heap.peek(), nullptr);
  }
}

TEST(SchedulerDifferential, UniformDense) {
  expect_reference_order(/*target_pending=*/512, /*spread=*/2048,
                         /*spike_percent=*/0, /*far_percent=*/0);
}

TEST(SchedulerDifferential, SameTimestampSpikes) {
  expect_reference_order(512, 256, /*spike_percent=*/40, /*far_percent=*/0);
}

TEST(SchedulerDifferential, SparseFarFutureTail) {
  // Mostly near-term events with a far-future tail (idle retransmit
  // timers).
  expect_reference_order(64, 100'000, /*spike_percent=*/5,
                         /*far_percent=*/20);
}

TEST(SchedulerDifferential, TinyPendingSet) {
  expect_reference_order(4, 128, 10, 10);
}

TEST(SchedulerDifferential, LargePendingSet) {
  expect_reference_order(20'000, 1 << 16, 5, 2);
}

// ---- Whole-engine run on a self-expanding workload --------------------
//
// Events reschedule themselves, fan out, and cancel earlier timers, so the
// zombie-reaping path runs alongside ordinary dispatch. Ids are handed out
// in schedule order, so the journal must be strictly increasing in
// (fire time, id) — the engine's (t, seq) dispatch contract — and a
// repeat run with the same seed must reproduce it exactly.

struct EngineRun {
  std::vector<std::pair<std::int64_t, int>> journal;  // (fire time, id)
  EnginePerfStats perf;
};

EngineRun run_engine(std::uint64_t seed) {
  Engine eng;
  Rng rng{seed};
  std::vector<std::pair<std::int64_t, int>> journal;
  std::vector<EventHandle> timers;
  int next_id = 0;

  // Fixed-size context so every callback capture is one pointer wide.
  struct Ctx {
    Engine* eng;
    Rng* rng;
    std::vector<std::pair<std::int64_t, int>>* journal;
    std::vector<EventHandle>* timers;
    int* next_id;
  } ctx{&eng, &rng, &journal, &timers, &next_id};

  struct Step {
    static void fire(Ctx* c, int id, int depth) {
      c->journal->emplace_back(c->eng->now().count(), id);
      if (depth <= 0) return;
      // Fan out 1-2 children at randomized offsets (including zero-delay
      // same-timestamp children), park a cancellable timer, and cancel a
      // random earlier timer about half the time.
      const int kids = 1 + static_cast<int>(c->rng->below(2));
      for (int k = 0; k < kids; ++k) {
        const Duration d(static_cast<std::int64_t>(c->rng->below(300)));
        const int id2 = (*c->next_id)++;
        Ctx* cc = c;
        c->eng->schedule_after(
            d, [cc, id2, depth] { fire(cc, id2, depth - 1); });
      }
      const int tid = (*c->next_id)++;
      Ctx* cc = c;
      c->timers->push_back(c->eng->schedule_after(
          Duration(500 + static_cast<std::int64_t>(c->rng->below(500))),
          [cc, tid] { fire(cc, tid, 0); }));
      if (!c->timers->empty() && c->rng->below(2) == 0) {
        const std::size_t victim = c->rng->below(c->timers->size());
        (*c->timers)[victim].cancel();
      }
    }
  };

  for (int i = 0; i < 8; ++i) {
    const int id = next_id++;
    Ctx* cc = &ctx;
    eng.schedule_at(TimePoint(static_cast<std::int64_t>(rng.below(100))),
                    [cc, id] { Step::fire(cc, id, 9); });
  }
  eng.run();
  return EngineRun{std::move(journal), eng.perf_stats()};
}

TEST(SchedulerDifferential, WholeEngineRunsIdentical) {
  for (std::uint64_t seed : {7ull, 1234ull}) {
    SCOPED_TRACE(seed);
    const EngineRun run = run_engine(seed);
    const EnginePerfStats& p = run.perf;
    EXPECT_GT(p.executed, 500u) << "workload too small to mean anything";
    EXPECT_GT(p.dead_pops, 0u) << "cancellation path not exercised";
    ASSERT_EQ(run.journal.size(), p.executed);
    for (std::size_t i = 1; i < run.journal.size(); ++i) {
      ASSERT_LT(run.journal[i - 1], run.journal[i])
          << "dispatch not in (t, seq) order at " << i;
    }
    // Every scheduled event either fired or was cancelled, and after the
    // drain every cancelled entry was reaped at the front exactly once.
    EXPECT_EQ(p.executed + p.cancelled_before_fire, p.scheduled);
    EXPECT_EQ(p.dead_pops, p.cancelled_before_fire);
    EXPECT_EQ(p.timer_purges, 0u);
    EXPECT_EQ(run_engine(seed).journal, run.journal) << "rerun diverged";
  }
}

}  // namespace
