#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "sim/process.hpp"

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

TEST(Condition, WaitForTimesOut) {
  Engine eng;
  Condition cond(eng);
  bool notified = true;
  Process p(eng, "p", [&](Process& self) {
    notified = cond.wait_for(self, Duration(50));
  });
  eng.run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(eng.now(), TimePoint(50));
}

TEST(Condition, WaitForReturnsTrueWhenNotifiedFirst) {
  Engine eng;
  Condition cond(eng);
  bool notified = false;
  std::int64_t woke_at = -1;
  Process p(eng, "p", [&](Process& self) {
    notified = cond.wait_for(self, Duration(1000));
    woke_at = eng.now().count();
  });
  Process n(eng, "n", [&](Process& self) {
    self.delay(Duration(20));
    cond.notify_all();
  });
  eng.run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(woke_at, 20);
}

TEST(Condition, TimedOutWaiterDoesNotConsumeNotifyOne) {
  Engine eng;
  Condition cond(eng);
  std::vector<int> woke;
  Process w0(eng, "w0", [&](Process& self) {
    if (!cond.wait_for(self, Duration(10))) woke.push_back(-1);
  });
  Process w1(eng, "w1", [&](Process& self) {
    cond.wait(self);
    woke.push_back(1);
  });
  Process n(eng, "n", [&](Process& self) {
    self.delay(Duration(100));  // after w0 timed out
    cond.notify_one();          // must wake w1, not the dead w0 slot
  });
  eng.run();
  EXPECT_EQ(woke, (std::vector<int>{-1, 1}));
}

TEST(Process, BlockedProcessesDetectedAsDeadlock) {
  Engine eng;
  Condition never(eng);
  auto p = std::make_unique<Process>(eng, "stuck",
                                     [&](Process& self) { never.wait(self); });
  eng.run();  // queue drains with p still blocked
  const auto blocked = eng.blocked_processes();
  ASSERT_EQ(blocked.size(), 1u);
  EXPECT_EQ(blocked[0]->name(), "stuck");
  p.reset();  // kill + join cleanly
  EXPECT_TRUE(eng.blocked_processes().empty());
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
  std::vector<std::unique_ptr<Process>> ring;
  for (int i = 0; i < kProcs; ++i) {
    ring.push_back(std::make_unique<Process>(
        eng, std::to_string(i), [&, i](Process& self) {
          for (int lap = 0; lap < kLaps; ++lap) {
            while (token != i) turn[static_cast<std::size_t>(i)]->wait(self);
            if (passes == kProcs * kLaps / 2) threads_during = os_threads();
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
  EXPECT_TRUE(eng.blocked_processes().empty());
}

TEST(Process, BodyKillsAnotherProcess) {
  Engine eng;
  Condition never(eng);
  bool victim_unwound = false;
  std::vector<std::string> trace;
  Process victim(eng, "victim", [&](Process& self) {
    Cleanup c{&victim_unwound};
    never.wait(self);
  });
  Process killer(eng, "killer", [&](Process& self) {
    self.delay(Duration(10));
    victim.kill();  // unwinds the victim before returning here
    trace.push_back(victim_unwound ? "victim unwound" : "victim alive");
    self.delay(Duration(5));
    trace.push_back("killer done");
  });
  eng.run();
  EXPECT_TRUE(victim.finished());
  EXPECT_TRUE(killer.finished());
  EXPECT_EQ(trace,
            (std::vector<std::string>{"victim unwound", "killer done"}));
  EXPECT_EQ(eng.now(), TimePoint(15));
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
