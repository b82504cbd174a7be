#include "sim/condition.hpp"

#include "util/check.hpp"

namespace mvflow::sim {

/// A blocked process's place in the FIFO. It lives in the wait call's
/// frame, and its destructor runs on every way out of the wait
/// (notification or ProcessKilled), so nothing refers to the frame once it
/// is gone.
struct Condition::Waiter {
  Process::Waker wake;
  Condition* cond;  // linked into cond's FIFO while non-null
  Waiter* prev = nullptr;
  Waiter* next = nullptr;
  bool notified = false;

  Waiter(Process::Waker w, Condition& c) : wake(w), cond(&c) {
    c.push_back(*this);
  }
  Waiter(const Waiter&) = delete;
  Waiter& operator=(const Waiter&) = delete;
  ~Waiter() {
    if (cond != nullptr) cond->unlink(*this);
  }
};

Condition::~Condition() {
  // Processes still blocked here stay blocked (a kill unwinds them); their
  // frames must not unlink from a condition that no longer exists.
  for (Waiter* w = head_; w != nullptr; w = w->next) w->cond = nullptr;
}

void Condition::push_back(Waiter& w) noexcept {
  w.prev = tail_;
  (tail_ != nullptr ? tail_->next : head_) = &w;
  tail_ = &w;
}

void Condition::unlink(Waiter& w) noexcept {
  (w.prev != nullptr ? w.prev->next : head_) = w.next;
  (w.next != nullptr ? w.next->prev : tail_) = w.prev;
  w.prev = w.next = nullptr;
  w.cond = nullptr;
}

void Condition::wake_front() {
  Waiter& w = *head_;
  engine_.schedule_at(engine_.now(), w.wake);
  unlink(w);
  w.notified = true;
}

void Condition::notify_all_slow() {
  // Queuing a wake runs nothing, so no process joins the FIFO meanwhile.
  while (head_ != nullptr) wake_front();
}

void Condition::wait(Process& p) {
  Waiter w(p.begin_sleep(), *this);
  p.suspend();
  util::check(w.notified, "condition wait woke without notification");
}

}  // namespace mvflow::sim
