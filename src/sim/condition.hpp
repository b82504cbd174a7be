// Simulated condition variable: processes block on it; any context (an
// event callback or another process) notifies. Wake-ups are delivered
// through the engine's event queue, preserving deterministic ordering.
#pragma once

#include <list>
#include <memory>

#include "sim/engine.hpp"
#include "sim/process.hpp"
#include "sim/time.hpp"

namespace mvflow::sim {

class Condition {
 public:
  explicit Condition(Engine& engine) : engine_(engine) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;

  /// Block `p` until notify_one/notify_all. Must be called from p's body.
  void wait(Process& p);

  /// Block with a timeout; returns true if notified, false on timeout.
  bool wait_for(Process& p, Duration timeout);

  /// Wake every currently blocked process (as events at the current time).
  /// The no-waiter case is the common one on the hot path (a completion
  /// queue notifies per entry, pollers rarely block), so it short-circuits
  /// inline before the out-of-line wake loop.
  void notify_all() {
    if (!waiters_.empty()) notify_all_slow();
  }

  /// Wake the longest-waiting blocked process, if any.
  void notify_one() {
    if (!waiters_.empty()) notify_one_slow();
  }

  std::size_t waiter_count() const noexcept { return waiters_.size(); }

 private:
  struct Waiter {
    Process::Waker wake;
    bool notified = false;
    bool abandoned = false;  // waiter timed out / unwound; skip on notify
  };
  std::shared_ptr<Waiter> enqueue(Process::Waker wake);
  void notify_all_slow();
  void notify_one_slow();

  Engine& engine_;
  std::list<std::shared_ptr<Waiter>> waiters_;
};

}  // namespace mvflow::sim
