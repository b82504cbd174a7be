#include "sim/engine.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/check.hpp"
#include "util/serial.hpp"

namespace mvflow::sim {

std::uint32_t Engine::acquire_slot_grow() {
  ++perf_.pool_allocs;
  if (slab_size_ == chunks_.size() * kChunkSize) {
    chunks_.push_back(std::make_unique<Node[]>(kChunkSize));
  }
  return slab_size_++;
}

void Engine::release_slot(std::uint32_t slot) noexcept {
  ++node(slot).gen;  // every outstanding handle to this event is now invalid
  release_fired(slot);
}

void Engine::past_schedule_fail() const {
  util::fail("require", "cannot schedule event in the past",
             std::source_location::current());
}

bool Engine::cancel(std::uint32_t slot, std::uint32_t gen) {
  if (slot >= slab_size_) return false;
  if (node(slot).gen != gen) return false;  // already fired or cancelled
  // Lazy: release the slot (O(1)) and leave the heap entry behind as a
  // zombie; the generation stamped in the entry no longer matches, so the
  // dispatcher drops it when it reaches the top. The slot is immediately
  // reusable — a reuse advances gen again, which changes nothing for the
  // zombie (it already mismatches).
  release_slot(slot);
  ++zombies_;
  ++perf_.cancelled_before_fire;
  return true;
}

bool Engine::handle_valid(std::uint32_t slot, std::uint32_t gen) const noexcept {
  // gen matches only between schedule and release, and release happens
  // exactly at fire or cancel — so a match means "still pending".
  return slot < slab_size_ && node(slot).gen == gen;
}

void Engine::set_watchpoint(std::uint64_t executed, std::function<void()> fn) {
  watchpoints_.emplace_back(executed, std::move(fn));
  next_watch_ = std::min(next_watch_, executed);
}

void Engine::recompute_next_watch() noexcept {
  next_watch_ = ~0ull;
  for (const auto& [count, fn] : watchpoints_) {
    next_watch_ = std::min(next_watch_, count);
  }
}

void Engine::fire_watchpoints() {
  // Extract the due callbacks before invoking any: a callback may register
  // further watchpoints (e.g. a restore arming its next checkpoint), which
  // must not invalidate this iteration.
  std::vector<std::function<void()>> due;
  for (auto it = watchpoints_.begin(); it != watchpoints_.end();) {
    if (it->first <= perf_.executed) {
      due.push_back(std::move(it->second));
      it = watchpoints_.erase(it);
    } else {
      ++it;
    }
  }
  recompute_next_watch();
  for (auto& fn : due) fn();
}

std::size_t Engine::run() { return dispatch(TimePoint::max()); }

std::size_t Engine::run_until(TimePoint t) {
  const std::size_t executed = dispatch(t);
  if (!stopped_) now_ = std::max(now_, t);
  return executed;
}

std::size_t Engine::dispatch(TimePoint horizon) {
  util::check(!running_, "Engine::run is not reentrant");
  running_ = true;
  stopped_ = false;
  horizon_ = horizon;
  struct Running {
    bool& flag;
    ~Running() { flag = false; }
  } running{running_};
  const std::uint64_t start = perf_.executed;
  // An event that wakes a process switches to it, and the processes then
  // dispatch on their own stacks (Process::suspend). The thread comes back
  // here, inside that event's callback, only when nothing may run, at a
  // watchpoint, after an error, or when a body ends.
  while (step()) {
    if (perf_.executed >= next_watch_) fire_watchpoints();
  }
  if (first_error_) {
    std::rethrow_exception(std::exchange(first_error_, nullptr));
  }
  return static_cast<std::size_t>(perf_.executed - start);
}

void Engine::serialize_state(util::serial::BufWriter& w) const {
  w.i64(now_.count());
  w.u64(next_seq_);
  w.u32(slab_size_);
  // Perf counters: deterministic across identical replays, so they belong
  // in the audit — a divergence here means the replay did different work.
  // Peak depth, dead pops and batch lengths describe the heap rather than
  // the work and stay out.
  w.u64(perf_.scheduled);
  w.u64(perf_.executed);
  w.u64(perf_.cancelled_before_fire);
  w.u64(perf_.pool_reuses);
  w.u64(perf_.pool_allocs);
  // The live pending set in canonical (t, seq) order — the total dispatch
  // order of everything that will happen next. Zombies and the heap's
  // array order never reach the bytes.
  std::vector<SchedEntry> live;
  live.reserve(pending_.size());
  pending_.visit([&](const SchedEntry& e) {
    if (node(e.slot).gen == e.gen) live.push_back(e);
  });
  std::sort(live.begin(), live.end(),
            [](const SchedEntry& a, const SchedEntry& b) {
              return sched_before(a, b);
            });
  w.u64(live.size());
  for (const SchedEntry& e : live) {
    w.i64(e.t.count());
    w.u64(e.seq);
    w.u32(e.slot);
    w.u32(e.gen);
  }
  // Slab occupancy profile: each slot's generation counts its complete
  // acquire/release history, and the freelist chain pins the exact order
  // future slots will be handed out in.
  for (std::uint32_t slot = 0; slot < slab_size_; ++slot) {
    w.u32(node(slot).gen);
  }
  std::uint32_t free_len = 0;
  for (std::uint32_t s = free_head_; s != kNone; s = node(s).next_free) {
    ++free_len;
  }
  w.u32(free_len);
  for (std::uint32_t s = free_head_; s != kNone; s = node(s).next_free) {
    w.u32(s);
  }
}

void Engine::record_error(std::exception_ptr e) {
  if (!first_error_) first_error_ = std::move(e);
  stopped_ = true;
}

}  // namespace mvflow::sim
