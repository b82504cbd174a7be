// Cooperative simulated processes.
//
// Each Process runs user code (an MPI rank body, a traffic generator) as a
// stackful fiber: its own mmap'd stack, switched to on whichever OS thread
// is dispatching its engine at the time. Exactly one context — engine
// dispatch or one process's body — executes on that thread at any moment,
// and every wake-up takes its place in the engine's (time, sequence)
// order, so execution order is fully determined and the simulation is
// reproducible.
//
// A process that blocks runs the engine's dispatch loop on its own stack,
// as engine context, until its own wake comes up: that wake costs no
// switch, another process's wake costs one switch straight to that
// process, and the thread goes back to the run() caller only when nothing
// may run, at a watchpoint, after an error, or when a body ends. A delay
// whose wake is provably the next event advances the clock in place
// (Engine::wake_inline). No kernel call sits on the switch path.
//
// Lifecycle: the constructor schedules the first wake at engine.now();
// the body runs until it returns, throws, or is kill()ed between runs
// (which unwinds the body with ProcessKilled where it blocked).
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

  // ---- API callable only outside a run ----

  /// Unwind the body with ProcessKilled where it blocked; returns once it
  /// has ended. Throws std::logic_error while the engine is dispatching
  /// (from a body or an event). Safe to call on a finished process (no-op).
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
  /// must do nothing after it returns: the wake may switch to the process
  /// and park the invoker's stack until its own wake (DESIGN.md §10).
  struct Waker {
    Process* p;
    std::uint64_t epoch;
    void operator()() const {
      if (!p->finished_ && epoch == p->sleep_epoch_) p->wake();
    }
  };

  /// Start a new sleep, invalidating the wakers of earlier ones, and return
  /// its waker. Checks that the caller is this process's own body.
  Waker begin_sleep();
  /// Body side: block, dispatching events on this stack until this
  /// process's wake fires or a kill() unwinds it.
  void suspend();
  /// Waker side, called by an event callback as its last act: run the
  /// body, switching to it unless this is its own stack.
  void wake();
  /// Switch this engine's thread from `from`, the context in use, to this
  /// process's fiber.
  void enter_from(SwitchContext& from);
  /// Switch from this process's fiber to the run() caller or a killer;
  /// `finished` marks the last switch.
  void leave_to(SwitchContext& to, bool finished = false);
  void run_body() noexcept;  // the fiber's whole life

  Engine& engine_;
  std::string name_;
  Body body_;
  /// Stack mapping and saved switch context; lives at the top of the
  /// process's own stack mapping (process.cpp).
  Fiber* fiber_ = nullptr;
  std::uint64_t sleep_epoch_ = 0;
  /// The slot of the event that last woke this process, released when the
  /// process next blocks or ends (Engine::firing_).
  std::uint32_t held_slot_ = Engine::kNone;
  bool started_ = false;
  bool finished_ = false;
  bool kill_requested_ = false;
  bool woken_ = false;  // this sleep's wake has fired
};

}  // namespace mvflow::sim
