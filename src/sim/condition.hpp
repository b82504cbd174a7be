// Simulated condition variable: processes block on it; any context (an
// event callback or another process) notifies. Wake-ups are delivered
// through the engine's event queue, preserving deterministic ordering.
//
// A wait allocates nothing. Each blocked process's waiter is a node of an
// intrusive FIFO that lives in the wait call's own frame on the process's
// stack. Notify unlinks the node and queues the process's two-word Waker
// by value, so no queued wake refers to the frame; the frame unlinks
// itself on every way out, ProcessKilled included; and a Condition
// destroyed while processes still wait on it detaches their nodes.
#pragma once

#include "sim/engine.hpp"
#include "sim/process.hpp"

namespace mvflow::sim {

class Condition {
 public:
  explicit Condition(Engine& engine) : engine_(engine) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;
  ~Condition();

  /// Block `p` until notify_one/notify_all. Must be called from p's body.
  void wait(Process& p);

  /// Wake every currently blocked process (as events at the current time).
  /// The no-waiter case is the common one on the hot path (a completion
  /// queue notifies per entry, pollers rarely block), so it short-circuits
  /// inline before the out-of-line wake loop.
  void notify_all() {
    if (head_ != nullptr) notify_all_slow();
  }

  /// Wake the longest-waiting blocked process, if any.
  void notify_one() {
    if (head_ != nullptr) wake_front();
  }

 private:
  struct Waiter;  // one per blocked process, in its wait frame

  void push_back(Waiter& w) noexcept;
  void unlink(Waiter& w) noexcept;
  void wake_front();
  void notify_all_slow();

  Engine& engine_;
  Waiter* head_ = nullptr;  // longest-waiting first
  Waiter* tail_ = nullptr;
};

}  // namespace mvflow::sim
