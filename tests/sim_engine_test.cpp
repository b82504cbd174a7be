#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "sim/engine.hpp"
#include "sim/resource.hpp"

using namespace mvflow::sim;

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(TimePoint(30), [&] { order.push_back(3); });
  eng.schedule_at(TimePoint(10), [&] { order.push_back(1); });
  eng.schedule_at(TimePoint(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), TimePoint(30));
}

TEST(Engine, TieBreaksByScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i)
    eng.schedule_at(TimePoint(100), [&order, i] { order.push_back(i); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, NestedSchedulingFromCallbacks) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(TimePoint(10), [&] {
    order.push_back(1);
    eng.schedule_after(Duration(5), [&] { order.push_back(2); });
  });
  eng.schedule_at(TimePoint(12), [&] { order.push_back(10); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
}

TEST(Engine, RejectsPastEvents) {
  Engine eng;
  eng.schedule_at(TimePoint(10), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(TimePoint(5), [] {}), std::invalid_argument);
}

TEST(Engine, CancelPreventsExecution) {
  Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(TimePoint(10), [&] { ran = true; });
  h.cancel();
  eng.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(eng.executed_events(), 0u);
}

TEST(Engine, CancelAfterExecutionIsHarmless) {
  Engine eng;
  bool ran = false;
  auto h = eng.schedule_at(TimePoint(10), [&] { ran = true; });
  eng.run();
  EXPECT_TRUE(ran);
  h.cancel();  // no-op
}

TEST(Engine, StopHaltsAtEventBoundary) {
  Engine eng;
  int count = 0;
  for (int i = 1; i <= 10; ++i)
    eng.schedule_at(TimePoint(i), [&] {
      if (++count == 3) eng.stop();
    });
  eng.run();
  EXPECT_EQ(count, 3);
  EXPECT_EQ(eng.pending_events(), 7u);
}

TEST(Engine, RunUntilLeavesLaterEvents) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(TimePoint(10), [&] { order.push_back(1); });
  eng.schedule_at(TimePoint(20), [&] { order.push_back(2); });
  eng.schedule_at(TimePoint(30), [&] { order.push_back(3); });
  eng.run_until(TimePoint(20));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(eng.now(), TimePoint(20));
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, RunUntilAdvancesClockOnEmptyQueue) {
  Engine eng;
  eng.run_until(TimePoint(1000));
  EXPECT_EQ(eng.now(), TimePoint(1000));
}

TEST(Engine, HandleInvalidDuringAndAfterFire) {
  Engine eng;
  EventHandle h;
  bool valid_during = true;
  h = eng.schedule_at(TimePoint(1), [&] {
    valid_during = h.valid();
    h.cancel();  // self-cancel while executing: must be a no-op
  });
  EXPECT_TRUE(h.valid());
  eng.run();
  EXPECT_FALSE(valid_during);  // own handle reads fired inside the callback
  EXPECT_FALSE(h.valid());
  EXPECT_EQ(eng.perf_stats().cancelled_before_fire, 0u);
}

TEST(Engine, CancelledSlotReuseKeepsOldHandlesInvalid) {
  Engine eng;
  bool a = false;
  bool b = false;
  auto h1 = eng.schedule_at(TimePoint(10), [&] { a = true; });
  h1.cancel();
  // The slot is immediately reusable; the next event takes it at a newer
  // generation, so the stale handle must not be able to disturb it.
  auto h2 = eng.schedule_at(TimePoint(20), [&] { b = true; });
  EXPECT_FALSE(h1.valid());
  EXPECT_TRUE(h2.valid());
  h1.cancel();  // stale: no-op
  eng.run();
  EXPECT_FALSE(a);
  EXPECT_TRUE(b);
  EXPECT_EQ(eng.perf_stats().cancelled_before_fire, 1u);
}

TEST(Engine, RunUntilSkipsCancelledTopWithoutOverrunning) {
  Engine eng;
  bool late = false;
  auto h = eng.schedule_at(TimePoint(10), [] {});
  eng.schedule_at(TimePoint(50), [&] { late = true; });
  h.cancel();
  // The cancelled entry sits at the top of the heap; run_until must reap it
  // without letting the t=50 event through the t=20 horizon.
  EXPECT_EQ(eng.run_until(TimePoint(20)), 0u);
  EXPECT_FALSE(late);
  EXPECT_EQ(eng.pending_events(), 1u);
  eng.run();
  EXPECT_TRUE(late);
}

// A far-future timer is cancelled and reaped by a drain, which leaves the
// clock where the last live event fired; traffic scheduled afterwards lies
// far below the reaped zombie's timestamp and must still fire, in order.
TEST(Engine, EarlierEventsAfterFarFutureZombieReaped) {
  Engine eng;
  std::vector<int> fired;
  EventHandle far = eng.schedule_at(TimePoint(200'000'000'000),
                                    [&fired] { fired.push_back(-1); });
  far.cancel();
  eng.run();
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_EQ(eng.perf_stats().dead_pops, 1u);
  for (int i = 0; i < 10; ++i) {
    eng.schedule_at(eng.now() + Duration(10 + i),
                    [&fired, i] { fired.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(Engine, PoolRecyclesSlotsAcrossGenerations) {
  Engine eng;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 10; ++i) eng.schedule_after(Duration(1 + i), [] {});
    eng.run();
  }
  const EnginePerfStats& p = eng.perf_stats();
  EXPECT_EQ(p.scheduled, 1000u);
  EXPECT_EQ(p.executed, 1000u);
  EXPECT_EQ(p.pool_reuses + p.pool_allocs, 1000u);
  // Only the first round's peak population can grow the slab; everything
  // after comes off the freelist.
  EXPECT_LE(p.pool_allocs, 10u);
  EXPECT_GT(p.pool_hit_rate(), 0.98);
  EXPECT_LE(p.peak_heap_depth, 10u);
}

// Randomized differential test: drive the engine with an interleaved
// schedule/cancel/run_until workload and check every observable — firing
// order, pending count, handle validity — against a naive reference model
// (a flat list scanned and sorted per run). Seeded, so failures reproduce.
TEST(EngineStress, RandomizedScheduleCancelRunMatchesReferenceModel) {
  std::mt19937 rng(0xC0FFEEu);
  Engine eng;

  struct RefEvent {
    std::int64_t t;
    std::uint64_t seq;  // schedule order: the documented tie-break
    int id;
    bool cancelled = false;
    bool fired = false;
  };
  std::vector<RefEvent> model;
  std::vector<std::pair<int, EventHandle>> handles;
  std::vector<int> fired;           // ids in actual firing order
  std::vector<int> expected_fired;  // ids the model says should have fired
  std::uint64_t next_seq = 0;
  int next_id = 0;
  std::int64_t now = 0;

  auto advance_model_to = [&](std::int64_t limit) {
    std::vector<RefEvent*> due;
    for (RefEvent& e : model) {
      if (!e.cancelled && !e.fired && e.t <= limit) due.push_back(&e);
    }
    std::sort(due.begin(), due.end(), [](const RefEvent* a, const RefEvent* b) {
      return a->t != b->t ? a->t < b->t : a->seq < b->seq;
    });
    for (RefEvent* e : due) {
      e->fired = true;
      expected_fired.push_back(e->id);
    }
  };

  for (int step = 0; step < 10000; ++step) {
    const std::uint32_t op = rng() % 100u;
    if (op < 60) {
      const std::int64_t t = now + static_cast<std::int64_t>(rng() % 1000u);
      const int id = next_id++;
      EventHandle h =
          eng.schedule_at(TimePoint(t), [&fired, id] { fired.push_back(id); });
      EXPECT_TRUE(h.valid());
      model.push_back(RefEvent{t, next_seq++, id});
      handles.emplace_back(id, h);
    } else if (op < 85 && !handles.empty()) {
      auto& [id, h] = handles[rng() % handles.size()];
      const bool was_pending = h.valid();
      h.cancel();
      EXPECT_FALSE(h.valid());
      if (was_pending) {
        for (RefEvent& e : model) {
          if (e.id == id) e.cancelled = true;
        }
      }
    } else {
      const std::int64_t limit = now + static_cast<std::int64_t>(rng() % 1500u);
      eng.run_until(TimePoint(limit));
      now = limit;
      advance_model_to(limit);
      ASSERT_EQ(fired, expected_fired) << "divergence at step " << step;
      std::size_t live = 0;
      for (const RefEvent& e : model) {
        if (!e.cancelled && !e.fired) ++live;
      }
      ASSERT_EQ(eng.pending_events(), live) << "pending count at step " << step;
    }
  }

  eng.run();  // drain the tail
  advance_model_to(std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(fired, expected_fired);
  EXPECT_EQ(eng.pending_events(), 0u);
  // Every handle must agree the game is over.
  for (auto& [id, h] : handles) EXPECT_FALSE(h.valid());
  // The workload cycles slots constantly; the pool must be serving nearly
  // all of them from the freelist.
  EXPECT_GT(eng.perf_stats().pool_hit_rate(), 0.9);
}

TEST(Resource, SerializesOverlappingReservations) {
  Resource r;
  EXPECT_EQ(r.reserve(TimePoint(0), Duration(10)), TimePoint(0));
  // Requested at t=5 but the resource is busy until 10.
  EXPECT_EQ(r.reserve(TimePoint(5), Duration(10)), TimePoint(10));
  // Requested well after it is free: starts on request.
  EXPECT_EQ(r.reserve(TimePoint(100), Duration(5)), TimePoint(100));
  EXPECT_EQ(r.busy_until(), TimePoint(105));
  EXPECT_EQ(r.total_busy(), Duration(25));
  EXPECT_EQ(r.uses(), 3u);
}

TEST(Time, TransferTimeRoundsUp) {
  // 1000 bytes at 1 GB/s = 1000 ns (+1 for the ceiling).
  EXPECT_EQ(transfer_time(1000, 1e9).count(), 1001);
  EXPECT_GT(transfer_time(1, 1e12).count(), 0);
}

