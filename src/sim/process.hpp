// Cooperative simulated processes.
//
// Each Process runs user code (an MPI rank body, a traffic generator) as a
// stackful fiber: its own mmap'd stack, entered and left by a context switch
// on whichever OS thread is dispatching its engine at the time. Exactly one
// context — the engine's or one process's — executes on that thread at any
// moment, and every wake-up takes its place in the engine's (time,
// sequence) order, so execution order is fully determined and the
// simulation is reproducible. A wake that goes through the event queue
// costs a switch out and back; a delay whose wake is provably the next
// event advances the clock in place and does not switch at all
// (Engine::wake_inline). No kernel call sits on the switch path.
//
// Lifecycle: the constructor schedules the first resume at engine.now();
// the body runs until it returns, throws, or is kill()ed (which unwinds the
// body with ProcessKilled at its next suspension point).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "sim/engine.hpp"
#include "sim/time.hpp"

namespace mvflow::sim {

/// Thrown inside a process body when the process is killed; user code should
/// let it propagate (RAII cleans up along the way).
struct ProcessKilled {};

class Process {
 public:
  using Body = std::function<void(Process&)>;

  Process(Engine& engine, std::string name, Body body);
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process();

  // ---- API callable only from inside this process's body ----

  /// Advance simulated time by `d` (models compute or fixed overheads).
  void delay(Duration d);

  /// Reschedule at the current time, behind already-queued events. Lets
  /// other ready work run first (a cooperative yield): `delay(0)`.
  void yield() { delay(Duration::zero()); }

  // ---- API callable from engine context or other processes ----

  /// Unwind the body with ProcessKilled at its next (or current) suspension
  /// point. Safe to call on a finished process (no-op).
  void kill();

  Engine& engine() noexcept { return engine_; }
  const std::string& name() const noexcept { return name_; }
  bool finished() const noexcept { return finished_; }

 private:
  friend class Engine;
  friend class Condition;
  struct Fiber;

  /// A one-shot wake bound to one sleep epoch: invoking it after the
  /// process already woke for another reason is a harmless no-op. Two
  /// words, so it rides inline in an engine event. Whatever invokes it
  /// must do nothing after it returns (the inline-wake proof in
  /// Engine::wake_inline depends on it).
  struct Waker {
    Process* p;
    std::uint64_t epoch;
    void operator()() const {
      if (!p->finished_ && epoch == p->sleep_epoch_) p->resume();
    }
  };

  /// Start a new sleep, invalidating the wakers of earlier ones, and return
  /// its waker. Checks that the caller is this process's own body.
  Waker begin_sleep();
  void suspend();   // body side: switch back to whoever resumed us
  void resume();    // resumer side: run the body until it suspends or ends
  void run_body() noexcept;  // the fiber's whole life

  Engine& engine_;
  std::string name_;
  Body body_;
  /// Stack mapping and saved switch contexts; lives at the top of the
  /// process's own stack mapping (process.cpp).
  Fiber* fiber_ = nullptr;
  std::uint64_t sleep_epoch_ = 0;
  bool started_ = false;
  bool finished_ = false;
  bool kill_requested_ = false;
};

}  // namespace mvflow::sim
