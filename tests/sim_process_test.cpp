#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fnv1a.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "util/serial.hpp"

using namespace mvflow::sim;

namespace {

/// The `Threads:` count from /proc/self/status.
int os_threads() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

struct Cleanup {
  bool* flag;
  ~Cleanup() { *flag = true; }
};

/// Delays that completed in place: they count as scheduled events but
/// never touched the slab.
std::uint64_t inline_wakes(const Engine& eng) {
  const EnginePerfStats& p = eng.perf_stats();
  return p.scheduled - p.pool_reuses - p.pool_allocs;
}

/// Every EnginePerfStats counter as (name, value).
std::vector<std::pair<std::string, double>> perf_fields(const Engine& eng) {
  std::vector<std::pair<std::string, double>> out;
  eng.perf_stats().visit(
      [&](const char* name, double v) { out.emplace_back(name, v); });
  return out;
}

/// Schedule `n` events at the current time, run, and count those that
/// fired: fewer than `n` means the event slab's freelist was corrupted
/// (a slot released twice hands out one node to two events).
int fire_fresh_events(Engine& eng, int n) {
  int fired = 0;
  for (int i = 0; i < n; ++i) eng.schedule_at(eng.now(), [&fired] { ++fired; });
  eng.run();
  return fired;
}

/// FNV-1a of the engine's serialized dispatch state: clock, sequence
/// counter, pending set, slot generations and the freelist's order.
std::uint64_t state_hash(const Engine& eng) {
  mvflow::util::serial::BufWriter w;
  eng.serialize_state(w);
  const std::vector<std::byte>& d = w.data();
  return mvflow::test::fnv1a(
      std::string_view(reinterpret_cast<const char*>(d.data()), d.size()));
}

/// This thread's id, read afresh. pthread_self is declared const, so the
/// compiler may reuse one call's result across a fiber switch that moved
/// the fiber to another thread; the asm keeps this call opaque.
[[gnu::noinline]] std::thread::id thread_now() {
  asm volatile("" : : : "memory");
  return std::this_thread::get_id();
}

/// Recursion the compiler can neither bound nor turn into a loop: every
/// frame keeps a buffer live across the call.
[[gnu::noinline]] std::size_t recurse(std::size_t depth) {
  char frame[512];
  frame[depth % sizeof frame] = static_cast<char>(depth);
  asm volatile("" : : "r"(frame) : "memory");
  if (depth == std::numeric_limits<std::size_t>::max()) return 0;
  const std::size_t deeper = recurse(depth + 1);
  asm volatile("" : : "r"(frame) : "memory");
  return deeper + static_cast<unsigned char>(frame[0]);
}

}  // namespace

TEST(Process, DelayAdvancesSimulatedTime) {
  Engine eng;
  std::vector<std::int64_t> stamps;
  Process p(eng, "p", [&](Process& self) {
    stamps.push_back(eng.now().count());
    self.delay(microseconds(5));
    stamps.push_back(eng.now().count());
    self.delay(microseconds(3));
    stamps.push_back(eng.now().count());
  });
  eng.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{0, 5000, 8000}));
}

TEST(Process, TwoProcessesInterleaveDeterministically) {
  Engine eng;
  std::vector<std::string> trace;
  Process a(eng, "a", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(std::string("a") + std::to_string(i));
      self.delay(Duration(10));
    }
  });
  Process b(eng, "b", [&](Process& self) {
    for (int i = 0; i < 3; ++i) {
      trace.push_back(std::string("b") + std::to_string(i));
      self.delay(Duration(15));
    }
  });
  eng.run();
  // a at t=0,10,20; b at t=0,15,30. Ties resolved by construction order.
  EXPECT_EQ(trace, (std::vector<std::string>{"a0", "b0", "a1", "b1", "a2", "b2"}));
}

TEST(Process, YieldLetsOtherWorkRunFirst) {
  Engine eng;
  std::vector<int> order;
  Process p(eng, "p", [&](Process& self) {
    order.push_back(1);
    eng.schedule_at(eng.now(), [&] { order.push_back(2); });
    self.yield();
    order.push_back(3);
  });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Condition, WaitBlocksUntilNotify) {
  Engine eng;
  Condition cond(eng);
  std::vector<std::string> trace;
  Process waiter(eng, "waiter", [&](Process& self) {
    trace.push_back("wait@" + std::to_string(eng.now().count()));
    cond.wait(self);
    trace.push_back("woke@" + std::to_string(eng.now().count()));
  });
  Process notifier(eng, "notifier", [&](Process& self) {
    self.delay(Duration(100));
    cond.notify_all();
    trace.push_back("notified@" + std::to_string(eng.now().count()));
  });
  eng.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"wait@0", "notified@100", "woke@100"}));
}

TEST(Condition, NotifyOneWakesInFifoOrder) {
  Engine eng;
  Condition cond(eng);
  std::vector<int> woke;
  auto make_waiter = [&](int id) {
    return [&woke, &cond, id](Process& self) {
      cond.wait(self);
      woke.push_back(id);
    };
  };
  Process w0(eng, "w0", make_waiter(0));
  Process w1(eng, "w1", make_waiter(1));
  Process n(eng, "n", [&](Process& self) {
    self.delay(Duration(10));
    cond.notify_one();
    self.delay(Duration(10));
    cond.notify_one();
  });
  eng.run();
  EXPECT_EQ(woke, (std::vector<int>{0, 1}));
}

TEST(Process, KillUnwindsWithRaii) {
  Engine eng;
  Condition never(eng);
  bool cleaned_up = false;
  struct Cleanup {
    bool* flag;
    ~Cleanup() { *flag = true; }
  };
  {
    Process p(eng, "victim", [&](Process& self) {
      Cleanup c{&cleaned_up};
      never.wait(self);
    });
    eng.run();
    EXPECT_FALSE(cleaned_up);
  }  // destructor kills
  EXPECT_TRUE(cleaned_up);
}

TEST(Process, BodyExceptionPropagatesToRun) {
  Engine eng;
  Process p(eng, "thrower", [&](Process& self) {
    self.delay(Duration(5));
    throw std::runtime_error("body failed");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_TRUE(p.finished());
}

TEST(Process, DeterminismAcrossRuns) {
  auto run_once = [] {
    Engine eng;
    std::vector<std::int64_t> trace;
    Condition cond(eng);
    Process a(eng, "a", [&](Process& self) {
      for (int i = 0; i < 10; ++i) {
        self.delay(Duration(7));
        trace.push_back(eng.now().count());
        cond.notify_all();
      }
    });
    Process b(eng, "b", [&](Process& self) {
      for (int i = 0; i < 5; ++i) {
        cond.wait(self);
        trace.push_back(-eng.now().count());
      }
    });
    eng.run();
    return trace;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ---- inline delay wakes ------------------------------------------------

TEST(InlineWake, LoneProcessDelaysNeverTouchTheSlab) {
  constexpr std::uint64_t kDelays = 100;
  Engine eng;
  Process p(eng, "lone", [&](Process& self) {
    for (std::uint64_t i = 0; i < kDelays; ++i) self.delay(Duration(3));
  });
  eng.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(eng.now(), TimePoint(3 * kDelays));
  const EnginePerfStats& perf = eng.perf_stats();
  EXPECT_EQ(perf.executed, perf.scheduled);
  EXPECT_EQ(perf.scheduled, kDelays + 1);  // plus the first resume
  EXPECT_EQ(inline_wakes(eng), kDelays);
}

TEST(InlineWake, EventAtTheWakeTimeRunsFirst) {
  Engine eng;
  std::vector<std::string> trace;
  auto stamp = [&](const char* what) {
    trace.push_back(std::string(what) + "@" +
                    std::to_string(eng.now().count()));
  };
  Process p(eng, "p", [&](Process& self) {
    // Queued at exactly the wake time, so earlier in (t, seq): it must run
    // before the process resumes, and the wake cannot complete in place.
    eng.schedule_after(Duration(10), [&] { stamp("tie"); });
    self.delay(Duration(10));
    stamp("woke");
    EXPECT_EQ(inline_wakes(eng), 0u);
    // One nanosecond after the wake time: the process resumes first, in
    // place.
    eng.schedule_after(Duration(11), [&] { stamp("later"); });
    self.delay(Duration(10));
    stamp("woke");
    EXPECT_EQ(inline_wakes(eng), 1u);
  });
  eng.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"tie@10", "woke@10", "woke@20",
                                             "later@21"}));
}

TEST(InlineWake, RunUntilHorizonBoundsInlineWakes) {
  Engine eng;
  std::vector<std::int64_t> stamps;
  Process p(eng, "p", [&](Process& self) {
    self.delay(Duration(10));
    stamps.push_back(eng.now().count());
    self.delay(Duration(100));  // past the horizon: stays queued
    stamps.push_back(eng.now().count());
  });
  eng.run_until(TimePoint(50));
  EXPECT_EQ(eng.now(), TimePoint(50));
  EXPECT_FALSE(p.finished());
  EXPECT_EQ(eng.pending_events(), 1u);
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{10}));
  EXPECT_EQ(inline_wakes(eng), 1u);
  eng.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{10, 110}));
  EXPECT_EQ(eng.now(), TimePoint(110));
}

TEST(InlineWake, WatchpointCrossedInlineFiresOnceAtNextBoundary) {
  // One process stepping 1 ns at a time against a tick every 10 ns: runs of
  // nine inline wakes, each ended by a tick that sits at the wake time.
  constexpr std::uint64_t k = 5;  // inside the first inline run
  auto workload = [](bool armed, int* fired, std::uint64_t* seen) {
    Engine eng;
    for (int i = 1; i <= 10; ++i) eng.schedule_at(TimePoint(10 * i), [] {});
    Process p(eng, "stepper", [](Process& self) {
      for (int i = 0; i < 100; ++i) self.delay(Duration(1));
    });
    if (armed) {
      eng.set_watchpoint(k, [&eng, fired, seen] {
        ++*fired;
        *seen = eng.executed_events();
      });
    }
    eng.run();
    EXPECT_TRUE(p.finished());
    EXPECT_EQ(eng.now(), TimePoint(100));
    return perf_fields(eng);
  };
  int fired = 0;
  std::uint64_t seen = 0;
  const auto armed = workload(true, &fired, &seen);
  EXPECT_EQ(fired, 1);
  EXPECT_GE(seen, k);
  EXPECT_EQ(seen, 10u);  // the first resume plus nine inline wakes
  EXPECT_EQ(armed, workload(false, &fired, &seen));
  EXPECT_EQ(fired, 1);
}

// ---- the rank handoff: a blocked process dispatches on its own stack ----

TEST(Handoff, LoneProcessSwitchesOnlyAtItsStart) {
  // A tick sits at every wake time, so no wake completes in place: each
  // is queued, and the process fires it, and the tick, on its own stack.
  constexpr int kDelays = 100;
  Engine eng;
  for (int i = 1; i <= kDelays; ++i) eng.schedule_at(TimePoint(i), [] {});
  std::uint64_t switches_in_body = 0;
  Process p(eng, "lone", [&](Process& self) {
    for (int i = 0; i < kDelays; ++i) self.delay(Duration(1));
    switches_in_body = eng.fiber_switches();
  });
  eng.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(eng.now(), TimePoint(kDelays));
  EXPECT_EQ(inline_wakes(eng), 0u);
  EXPECT_EQ(switches_in_body, 1u);      // the run caller's switch to it
  EXPECT_EQ(eng.fiber_switches(), 2u);  // and back when the body ends
}

TEST(Handoff, PingPongSwitchesOncePerHandoff) {
  constexpr int kRounds = 50;
  Engine eng;
  Condition turn_a(eng);
  Condition turn_b(eng);
  int turn = 0;
  int handoffs = 0;
  auto player = [&](int me, Condition& mine, Condition& theirs) {
    return [&, me](Process& self) {
      for (int i = 0; i < kRounds; ++i) {
        while (turn != me) mine.wait(self);
        turn = 1 - me;
        ++handoffs;
        theirs.notify_one();
      }
    };
  };
  Process a(eng, "a", player(0, turn_a, turn_b));
  Process b(eng, "b", player(1, turn_b, turn_a));
  eng.run();
  EXPECT_TRUE(a.finished());
  EXPECT_TRUE(b.finished());
  EXPECT_EQ(handoffs, 2 * kRounds);
  // One switch per handoff. The run caller adds one in at the start and
  // two when a ends before b's last turn (a to the caller, the caller to
  // b); b ends with the last handoff and hands the thread back.
  EXPECT_EQ(eng.fiber_switches(), static_cast<std::uint64_t>(handoffs) + 2);
}

TEST(Handoff, EventOnABlockedProcessStackRunsAsEngineContext) {
  Engine eng;
  Condition cond(eng);
  Process p(eng, "p", [&](Process& self) { self.delay(Duration(10)); });
  std::uint64_t switches_in_event = 0;
  int threw = 0;
  // Queued before p's wake, so p, blocked in delay, fires it on its stack.
  eng.schedule_at(TimePoint(5), [&] {
    switches_in_event = eng.fiber_switches();
    try {
      p.delay(Duration(1));
    } catch (const std::logic_error&) {
      ++threw;
    }
    try {
      p.yield();
    } catch (const std::logic_error&) {
      ++threw;
    }
    try {
      cond.wait(p);
    } catch (const std::logic_error&) {
      ++threw;
    }
  });
  eng.run();
  EXPECT_EQ(switches_in_event, 1u);  // only the switch into p so far
  EXPECT_EQ(threw, 3);
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(eng.now(), TimePoint(10));
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_EQ(eng.fiber_switches(), 2u);
}

TEST(Handoff, CallbackExceptionOnAProcessStackLeavesThroughRun) {
  Engine eng;
  bool body_caught = false;
  std::int64_t woke_at = -1;
  Process p(eng, "p", [&](Process& self) {
    try {
      self.delay(Duration(10));
    } catch (...) {
      body_caught = true;
    }
    woke_at = eng.now().count();
  });
  std::uint64_t switches_in_event = 0;
  eng.schedule_at(TimePoint(5), [&] {
    switches_in_event = eng.fiber_switches();
    throw std::runtime_error("callback failed");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
  EXPECT_EQ(switches_in_event, 1u);  // it ran on p's stack
  EXPECT_FALSE(body_caught);
  EXPECT_FALSE(p.finished());
  EXPECT_EQ(eng.now(), TimePoint(5));
  eng.run();  // the engine goes on, and p wakes where it slept
  EXPECT_TRUE(p.finished());
  EXPECT_FALSE(body_caught);
  EXPECT_EQ(woke_at, 10);
  EXPECT_EQ(fire_fresh_events(eng, 8), 8);
}

TEST(Handoff, RunUntilHorizonStopsADispatchingProcess) {
  // InlineWake.RunUntilHorizonBoundsInlineWakes with every wake queued: a
  // tick sits at each wake time.
  Engine eng;
  for (const std::int64_t t : {10, 110}) eng.schedule_at(TimePoint(t), [] {});
  std::vector<std::int64_t> stamps;
  Process p(eng, "p", [&](Process& self) {
    self.delay(Duration(10));
    stamps.push_back(eng.now().count());
    self.delay(Duration(100));  // past the horizon: stays queued
    stamps.push_back(eng.now().count());
  });
  eng.run_until(TimePoint(50));
  EXPECT_EQ(eng.now(), TimePoint(50));
  EXPECT_FALSE(p.finished());
  EXPECT_EQ(eng.pending_events(), 2u);  // the tick at 110 and p's wake
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{10}));
  EXPECT_EQ(inline_wakes(eng), 0u);
  EXPECT_EQ(eng.fiber_switches(), 2u);  // in at the start, back at 50
  eng.run();
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(stamps, (std::vector<std::int64_t>{10, 110}));
  EXPECT_EQ(eng.now(), TimePoint(110));
}

TEST(Handoff, StopFromAnEventOnAProcessStackEndsTheRun) {
  Engine eng;
  Process p(eng, "p", [&](Process& self) { self.delay(Duration(100)); });
  int ticks = 0;
  for (int i = 1; i <= 3; ++i) {
    eng.schedule_at(TimePoint(10 * i), [&] {
      if (++ticks == 2) eng.stop();
    });
  }
  eng.run();
  EXPECT_EQ(ticks, 2);
  EXPECT_EQ(eng.now(), TimePoint(20));
  EXPECT_FALSE(p.finished());
  EXPECT_EQ(eng.fiber_switches(), 2u);  // in at the start, back at stop()
  eng.run();
  EXPECT_EQ(ticks, 3);
  EXPECT_TRUE(p.finished());
  EXPECT_EQ(eng.now(), TimePoint(100));
}

TEST(Handoff, ProcessParkedMidDispatchUnwindsWhenKilledOutsideARun) {
  Engine eng;
  bool unwound = false;
  Process parked(eng, "parked", [&](Process& self) {
    Cleanup c{&unwound};
    self.delay(Duration(100));  // fires other's first wake: hands on
    ADD_FAILURE() << "a killed body woke";
  });
  Process other(eng, "other",
                [&](Process& self) { self.delay(Duration(200)); });
  eng.run_until(TimePoint(50));  // other hands the thread back at 50
  EXPECT_EQ(eng.fiber_switches(), 3u);
  parked.kill();  // from outside any run: there and back
  EXPECT_TRUE(unwound);
  EXPECT_TRUE(parked.finished());
  EXPECT_EQ(eng.fiber_switches(), 5u);
  eng.run();
  EXPECT_TRUE(other.finished());
  EXPECT_EQ(eng.now(), TimePoint(200));
  EXPECT_EQ(fire_fresh_events(eng, 8), 8);
}

TEST(Handoff, SlabHistoryMatchesACallerOnlyLoop) {
  // A ring with queued and inline wakes, yields and ticks. The hashes were
  // recorded with the loop that ran every event on the run caller's stack
  // and released each fired slot when its callback returned there. Slots
  // handed to woken processes must be released at the same boundaries, or
  // the freelist, the pool counters and every snapshot would differ.
  constexpr int kProcs = 16;
  constexpr int kLaps = 3;
  Engine eng;
  for (int t = 1; t <= 40; t += 3) eng.schedule_at(TimePoint(t), [] {});
  std::vector<std::unique_ptr<Condition>> turn;
  for (int i = 0; i < kProcs; ++i)
    turn.push_back(std::make_unique<Condition>(eng));
  int token = 0;
  std::vector<std::unique_ptr<Process>> ring;
  for (int i = 0; i < kProcs; ++i) {
    ring.push_back(std::make_unique<Process>(
        eng, std::to_string(i), [&, i](Process& self) {
          for (int lap = 0; lap < kLaps; ++lap) {
            while (token != i) turn[static_cast<std::size_t>(i)]->wait(self);
            self.delay(Duration(1 + i % 3));
            token = (i + 1) % kProcs;
            turn[static_cast<std::size_t>(token)]->notify_one();
            if (i % 5 == 0) self.yield();
          }
        }));
  }
  std::vector<std::uint64_t> hashes;
  for (const std::uint64_t k : {5u, 17u, 40u, 77u, 101u}) {
    eng.set_watchpoint(k, [&] { hashes.push_back(state_hash(eng)); });
  }
  eng.run();
  const EnginePerfStats& perf = eng.perf_stats();
  EXPECT_EQ(eng.now(), TimePoint(93));
  EXPECT_EQ(perf.executed, 137u);
  EXPECT_EQ(perf.pool_reuses, 79u);
  EXPECT_EQ(perf.pool_allocs, 31u);
  EXPECT_EQ(hashes, (std::vector<std::uint64_t>{
                        0xf36fc0ac22157b08ull, 0x33d20ff30361141eull,
                        0xd0b664197af0d8bdull, 0x0e12d1ed90800a2full,
                        0x62cd3e081f56ffb9ull}));
  EXPECT_EQ(state_hash(eng), 0xfddecdbb54298d06ull);
}

// ---- stack-resident condition waiters --------------------------------

TEST(ConditionWaiter, ConditionDestroyedBeforeKillDoesNotFault) {
  Engine eng;
  // A new condition takes the destroyed one's storage, so a waiter that
  // still unlinked itself through the stale pointer would corrupt the new
  // FIFO, visibly even without a sanitizer.
  std::optional<Condition> cond(std::in_place, eng);
  bool unwound = false;
  Process waiter(eng, "waiter", [&](Process& self) {
    Cleanup c{&unwound};
    cond->wait(self);
  });
  eng.run_until(TimePoint(10));
  cond.reset();  // the waiter is still linked into it
  cond.emplace(eng);
  bool late_woke = false;
  Process late(eng, "late", [&](Process& self) {
    cond->wait(self);
    late_woke = true;
  });
  eng.run();
  ASSERT_FALSE(waiter.finished());
  waiter.kill();
  EXPECT_TRUE(unwound);
  cond->notify_one();
  eng.run();
  EXPECT_TRUE(late_woke);
  EXPECT_TRUE(late.finished());
}

TEST(ConditionWaiter, NotifiedWaiterKilledBeforeWakeGetsStaleWake) {
  Engine eng;
  Condition cond(eng);
  std::vector<int> woke;
  Process w0(eng, "w0", [&](Process& self) {
    cond.wait(self);
    woke.push_back(0);
  });
  Process w1(eng, "w1", [&](Process& self) {
    cond.wait(self);
    woke.push_back(1);
  });
  eng.schedule_at(TimePoint(10), [&] {
    cond.notify_one();  // w0's wake is queued at t=10...
    eng.stop();
  });
  eng.run();
  EXPECT_EQ(eng.pending_events(), 1u);
  w0.kill();  // ...and w0 dies between runs, before it fires
  EXPECT_TRUE(w0.finished());
  eng.schedule_at(TimePoint(20), [&] { cond.notify_one(); });  // reaches w1
  eng.run();
  EXPECT_EQ(woke, (std::vector<int>{1}));
  EXPECT_TRUE(w1.finished());
  EXPECT_EQ(eng.now(), TimePoint(20));
  EXPECT_EQ(eng.pending_events(), 0u);
}

// ---- fiber conformance -------------------------------------------------

TEST(Process, ThousandProcessRingRunsWithoutThreads) {
  constexpr int kProcs = 1024;
  constexpr int kLaps = 3;
  const int threads_before = os_threads();
  ASSERT_GT(threads_before, 0);
  Engine eng;
  std::vector<std::unique_ptr<Condition>> turn;
  for (int i = 0; i < kProcs; ++i)
    turn.push_back(std::make_unique<Condition>(eng));
  int token = 0;
  int passes = 0;
  int threads_during = -1;
  std::vector<std::uint64_t> at_lap;  // fiber_switches() as each lap starts
  std::vector<std::unique_ptr<Process>> ring;
  for (int i = 0; i < kProcs; ++i) {
    ring.push_back(std::make_unique<Process>(
        eng, std::to_string(i), [&, i](Process& self) {
          for (int lap = 0; lap < kLaps; ++lap) {
            while (token != i) turn[static_cast<std::size_t>(i)]->wait(self);
            if (passes == kProcs * kLaps / 2) threads_during = os_threads();
            if (passes % kProcs == 0) at_lap.push_back(eng.fiber_switches());
            ++passes;
            self.delay(Duration(1));
            token = (i + 1) % kProcs;
            turn[static_cast<std::size_t>(token)]->notify_one();
          }
        }));
  }
  eng.run();
  EXPECT_EQ(passes, kProcs * kLaps);
  EXPECT_EQ(eng.now(), TimePoint(kProcs * kLaps));
  for (const auto& p : ring) EXPECT_TRUE(p->finished());
  EXPECT_EQ(threads_during, threads_before);
  EXPECT_EQ(os_threads(), threads_before);
  // In the middle lap every process is woken on its predecessor's stack
  // and blocks again after one pass: one switch per pass. (The first lap
  // also starts every process, and in the last each body ends.)
  ASSERT_EQ(at_lap.size(), static_cast<std::size_t>(kLaps));
  EXPECT_EQ(at_lap[2] - at_lap[1], static_cast<std::uint64_t>(kProcs));
}

TEST(ProcessDeathTest, UnboundedRecursionDiesOnGuardPage) {
  EXPECT_DEATH(
      {
        Engine eng;
        Process p(eng, "deep",
                  [](Process&) { static_cast<void>(recurse(0)); });
        eng.run();
      },
      "");
}

TEST(Process, KillBeforeStartSkipsBody) {
  Engine eng;
  bool ran = false;
  Process p(eng, "unstarted", [&](Process&) { ran = true; });
  p.kill();
  EXPECT_TRUE(p.finished());
  eng.run();  // the queued first resume finds the process finished
  EXPECT_FALSE(ran);
  EXPECT_TRUE(p.finished());
}

TEST(Process, KillDuringARunFailsCheck) {
  Engine eng;
  Condition never(eng);
  Process victim(eng, "victim", [&](Process& self) { never.wait(self); });
  int body_threw = 0;
  Process killer(eng, "killer", [&](Process& self) {
    self.delay(Duration(10));
    try {
      victim.kill();  // another process, from a body
    } catch (const std::logic_error&) {
      ++body_threw;
    }
    try {
      self.kill();  // itself
    } catch (const std::logic_error&) {
      ++body_threw;
    }
  });
  bool event_threw = false;
  eng.schedule_at(TimePoint(5), [&] {
    try {
      victim.kill();  // an event, here on the victim's own stack
    } catch (const std::logic_error&) {
      event_threw = true;
    }
  });
  eng.run();
  EXPECT_EQ(body_threw, 2);
  EXPECT_TRUE(event_threw);
  EXPECT_TRUE(killer.finished());
  EXPECT_FALSE(victim.finished());
  victim.kill();  // between runs
  EXPECT_TRUE(victim.finished());
}

TEST(Process, BlockingOutsideOwnBodyFailsCheck) {
  Engine eng;
  Condition never(eng);
  Process idle(eng, "idle", [&](Process& self) { never.wait(self); });
  bool other_threw = false;
  Process other(eng, "other", [&](Process&) {
    try {
      idle.delay(Duration(1));  // another process's body
    } catch (const std::logic_error&) {
      other_threw = true;
    }
  });
  bool event_threw = false;
  eng.schedule_at(TimePoint(5), [&] {
    try {
      idle.yield();  // an engine event
    } catch (const std::logic_error&) {
      event_threw = true;
    }
  });
  eng.run();
  EXPECT_TRUE(other_threw);
  EXPECT_TRUE(event_threw);
  EXPECT_THROW(idle.delay(Duration(1)), std::logic_error);  // no engine running
  EXPECT_THROW(never.wait(idle), std::logic_error);
  // Nothing was scheduled and nothing switched: idle still sleeps where it
  // was and unwinds cleanly.
  EXPECT_EQ(eng.pending_events(), 0u);
  EXPECT_FALSE(idle.finished());
  idle.kill();
  EXPECT_TRUE(idle.finished());
}

TEST(Process, SuspendedOnOneThreadKilledFromAnother) {
  Engine eng;
  Condition never(eng);
  bool unwound = false;
  std::thread::id ran_on, unwound_on;
  auto p = std::make_unique<Process>(eng, "migrant", [&](Process& self) {
    struct NoteThread {
      std::thread::id* id;
      ~NoteThread() { *id = thread_now(); }
    } note{&unwound_on};
    Cleanup c{&unwound};
    ran_on = thread_now();
    never.wait(self);
  });
  std::thread([&] { eng.run(); }).join();
  ASSERT_FALSE(p->finished());
  EXPECT_NE(ran_on, thread_now());
  p.reset();  // kill: the fiber resumes and unwinds on this thread
  EXPECT_TRUE(unwound);
  EXPECT_EQ(unwound_on, thread_now());
}
