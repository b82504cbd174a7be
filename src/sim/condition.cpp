#include "sim/condition.hpp"

#include "util/check.hpp"

namespace mvflow::sim {

namespace {

/// Marks a waiter abandoned if the wait unwinds (timeout or ProcessKilled)
/// so notify_one never "spends" a wake-up on a dead waiter.
struct WaiterGuard {
  std::shared_ptr<void> raw;
  bool* notified;
  bool* abandoned;
  ~WaiterGuard() {
    if (!*notified) *abandoned = true;
  }
};

}  // namespace

std::shared_ptr<Condition::Waiter> Condition::enqueue(Process::Waker wake) {
  auto w = std::make_shared<Waiter>(Waiter{wake});
  waiters_.push_back(w);
  return w;
}

void Condition::wait(Process& p) {
  auto w = enqueue(p.begin_sleep());
  WaiterGuard guard{w, &w->notified, &w->abandoned};
  p.suspend();
  util::check(w->notified, "condition wait woke without notification");
}

bool Condition::wait_for(Process& p, Duration timeout) {
  const Process::Waker wake = p.begin_sleep();
  auto w = enqueue(wake);
  auto handle = engine_.schedule_after(timeout, [w, wake] {
    if (w->notified || w->abandoned) return;
    w->abandoned = true;
    wake();
  });
  WaiterGuard guard{w, &w->notified, &w->abandoned};
  p.suspend();
  handle.cancel();
  return w->notified;
}

void Condition::notify_all_slow() {
  auto pending = std::move(waiters_);
  waiters_.clear();
  for (auto& w : pending) {
    if (w->abandoned || w->notified) continue;
    w->notified = true;
    engine_.schedule_at(engine_.now(), [w] { w->wake(); });
  }
}

void Condition::notify_one_slow() {
  while (!waiters_.empty()) {
    auto w = waiters_.front();
    waiters_.pop_front();
    if (w->abandoned || w->notified) continue;
    w->notified = true;
    engine_.schedule_at(engine_.now(), [w] { w->wake(); });
    return;
  }
}

}  // namespace mvflow::sim
