// Discrete-event simulation engine.
//
// A single pooled min-heap of (time, sequence) ordered events drives the
// whole simulation. Everything that happens — packet hops, timer expiry,
// process wake-ups — is an event; ties at equal times execute in
// scheduling order, which makes runs bit-deterministic. A process delay
// whose wake is provably the next event completes in place instead: it
// takes its sequence number and counts as an event, but never enters the
// heap (wake_inline). The dispatch loop runs on whichever stack holds the
// thread: the run() caller's, or a blocked process's fiber (step(),
// Process::suspend).
//
// The hot path is allocation-free in steady state: event nodes live in a
// freelist-recycled slab, callbacks are stored inline (InplaceFunction),
// and handles are {slot, generation} pairs with O(1) lazy cancellation and
// no reference counting. See DESIGN.md §10 for the invariants.
//
// The pending set is a 4-ary heap held by value (scheduler.hpp, DESIGN.md
// §14); cancelled entries stay in it as zombies until they reach the top.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inplace_function.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "util/check.hpp"

namespace mvflow::util::serial {
class BufWriter;
}

namespace mvflow::sim {

class Engine;
class Process;
/// A saved execution context the fiber switch resumes: a process's fiber
/// stack, or a thread's own stack (process.cpp).
struct SwitchContext;

/// Engine self-observation counters: how much work the scheduler did and
/// how well the event-node pool avoided the allocator. `pool_hit_rate()`
/// ≈ 1.0 after warmup is the "steady-state dispatch is allocation-free"
/// invariant the throughput bench reports.
///
/// `scheduled` and `executed` include inline process wakes (events that
/// never enter the heap, DESIGN.md §10); `pool_reuses + pool_allocs`
/// count slab traffic only. So `scheduled - pool_reuses - pool_allocs` is
/// the number of inline wakes.
struct EnginePerfStats {
  std::uint64_t scheduled = 0;  ///< schedule_at/after calls + inline wakes
  std::uint64_t executed = 0;   ///< events fired, inline wakes included
  std::uint64_t cancelled_before_fire = 0;
  /// Max heap size, cancelled entries not yet reaped included.
  std::size_t peak_heap_depth = 0;
  std::uint64_t pool_reuses = 0;   ///< event nodes recycled from the freelist
  std::uint64_t pool_allocs = 0;   ///< event nodes that grew the slab
  std::uint64_t dead_pops = 0;     ///< lazily-cancelled entries reaped at pop
  /// Always 0: cancelled entries are reaped only at the front (dead_pops).
  /// Kept so metrics documents keep their shape.
  std::uint64_t timer_purges = 0;
  std::size_t max_batch = 0;       ///< longest run of events at one timestamp
  double pool_hit_rate() const {
    const double total =
        static_cast<double>(pool_reuses) + static_cast<double>(pool_allocs);
    return total == 0 ? 0.0 : static_cast<double>(pool_reuses) / total;
  }

  /// Enumerate every counter as (name, value) for a metrics sink.
  template <typename Fn>
  void visit(Fn&& f) const {
    f("scheduled", static_cast<double>(scheduled));
    f("executed", static_cast<double>(executed));
    f("cancelled_before_fire", static_cast<double>(cancelled_before_fire));
    f("peak_heap_depth", static_cast<double>(peak_heap_depth));
    f("pool_reuses", static_cast<double>(pool_reuses));
    f("pool_allocs", static_cast<double>(pool_allocs));
    f("pool_hit_rate", pool_hit_rate());
    f("dead_pops", static_cast<double>(dead_pops));
    f("timer_purges", static_cast<double>(timer_purges));
    f("max_batch", static_cast<double>(max_batch));
  }
};

/// Handle for a scheduled event; lets the scheduler cancel timers (e.g. an
/// RNR retry that was satisfied early). Copyable; cancelling any copy
/// cancels the event. A handle is a {slot, generation} pair into the
/// engine's event slab: once the event fires or is cancelled, the slot's
/// generation advances and every outstanding handle to it reads invalid —
/// cancel-after-fire is a harmless no-op.
///
/// A handle is used only while its engine lives: its holders, a QP's two
/// timers, die with their fabric before the World's engine, and no
/// destructor cancels a handle (DESIGN.md §10).
class EventHandle {
 public:
  EventHandle() = default;
  inline void cancel();
  /// True only while the event is still pending (scheduled, not yet fired
  /// or cancelled).
  inline bool valid() const;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t gen)
      : engine_(engine), slot_(slot), gen_(gen) {}
  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t gen_ = 0;
};

class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  TimePoint now() const noexcept { return now_; }

  /// Inline storage for event callbacks, sized for the largest hot-path
  /// closure (the fabric's packet-delivery lambda: a full Packet plus
  /// routing state) with headroom. A schedule site whose capture outgrows
  /// this fails to compile instead of silently allocating.
  static constexpr std::size_t kEventInlineBytes = 96;
  using EventFn = InplaceFunction<void(), kEventInlineBytes>;

  /// Schedule `fn` to run at absolute simulated time `t` (must be >= now()).
  /// The callable is constructed directly inside the slab node — no
  /// intermediate EventFn move on the hot path.
  template <typename F>
  EventHandle schedule_at(TimePoint t, F&& fn) {
    require_not_past(t);
    const std::uint32_t slot = acquire_slot();
    Node& n = node(slot);
    n.fn.emplace(std::forward<F>(fn));
    try {
      pending_.push(SchedEntry{t, next_seq_++, slot, n.gen});
    } catch (...) {
      // Heap growth hit bad_alloc: put the slot (and its closure's
      // captured resources) back instead of leaking them.
      release_slot(slot);
      throw;
    }
    ++perf_.scheduled;
    if (pending_.size() > perf_.peak_heap_depth) {
      perf_.peak_heap_depth = pending_.size();
    }
    return EventHandle(this, slot, n.gen);
  }
  /// Schedule `fn` to run `d` after the current time.
  template <typename F>
  EventHandle schedule_after(Duration d, F&& fn) {
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Run events until the queue is empty or stop() is called. Returns the
  /// number of events executed, inline process wakes included. If a
  /// process body threw, or an event callback threw on a process's stack,
  /// the exception is rethrown here after the engine stops; a callback
  /// that throws on the caller's own stack propagates directly.
  std::size_t run();

  /// Run events with time <= t; leaves later events queued. Advances now()
  /// to t even if the queue drains early.
  std::size_t run_until(TimePoint t);

  /// Request that run() return at the next event boundary.
  void stop() noexcept { stopped_ = true; }

  std::size_t executed_events() const noexcept {
    return static_cast<std::size_t>(perf_.executed);
  }
  std::size_t pending_events() const noexcept {
    return pending_.size() - zombies_;  // zombies are cancelled, not pending
  }

  const EnginePerfStats& perf_stats() const noexcept { return perf_; }

  /// Fiber switches made so far: one per handoff between the run caller
  /// and a process or between two processes (DESIGN.md D1). A host-side
  /// count, so it stays out of EnginePerfStats, metrics documents and
  /// snapshots.
  std::uint64_t fiber_switches() const noexcept { return switches_; }

  /// Run `fn` at the first event boundary at which executed_events() is at
  /// least `executed` (checked after each dispatch, so the callback
  /// observes a consistent "between events" world). An event that wakes a
  /// process ends when that process next blocks or ends. Inline process
  /// wakes count as executed events but end no dispatch, so a count they
  /// cross is seen at the next boundary, where executed_events() may
  /// already be past it. Several watchpoints may share a count; each fires
  /// exactly once, in registration order. The callback runs in engine
  /// context on the run() caller's stack (a dispatching process hands the
  /// thread back first) and may capture state, register further
  /// watchpoints, or call stop(); the inactive-path cost in the dispatch
  /// loop is a single integer compare.
  /// This is the checkpoint hook (DESIGN.md §13): "checkpoint at k events"
  /// arms a watchpoint at k.
  void set_watchpoint(std::uint64_t executed, std::function<void()> fn);

  /// Serialize the engine's dispatch state — clock, sequence counter, the
  /// live pending set in canonical (t, seq) order, per-slot generations,
  /// the freelist chain, and the perf counters that count work rather
  /// than heap layout — for the snapshot's bit-identical restore audit.
  /// Heap array order and unreaped zombies never reach the bytes. Event
  /// *callbacks* are not serialized (closures are reconstructed by
  /// deterministic replay); this captures every byte of state that orders
  /// them.
  void serialize_state(util::serial::BufWriter& w) const;

 private:
  friend class Process;
  friend class EventHandle;

  void record_error(std::exception_ptr e);
  /// run() and run_until(): the dispatch loop on the caller's stack.
  std::size_t dispatch(TimePoint horizon);
  /// One compare inline (schedule_at is the hottest entry point); the
  /// throw machinery stays out of line.
  void require_not_past(TimePoint t) const {
    if (t < now_) past_schedule_fail();
  }
  [[noreturn]] void past_schedule_fail() const;

  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// One slab slot. `gen` advances every time the slot is released (fired
  /// or cancelled), invalidating outstanding handles — and orphaning any
  /// heap entry still carrying the old generation (see below).
  /// The ordering key (t, seq) lives in the heap entry, not here: sift
  /// comparisons stay inside the contiguous heap array instead of chasing
  /// a ~100-byte Node per probe (the single hottest path in the engine).
  struct Node {
    std::uint32_t gen = 0;
    std::uint32_t next_free = kNone;
    EventFn fn;
  };

  /// The slab is chunked so node addresses are stable across growth: the
  /// dispatcher invokes a callback in place (no per-event 96-byte move),
  /// and the callback itself may schedule new events that extend the slab
  /// while it is still executing.
  static constexpr std::uint32_t kChunkBits = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkBits;

  Node& node(std::uint32_t slot) noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }
  const Node& node(std::uint32_t slot) const noexcept {
    return chunks_[slot >> kChunkBits][slot & (kChunkSize - 1)];
  }

  /// Complete a process wake at `t` in place when it is provably the next
  /// event: the engine is dispatching and not stopped, `t` is within the
  /// current run's horizon, and every queued entry, live or cancelled, is
  /// strictly later (a queued entry at `t` holds a smaller sequence number
  /// and would fire first). The clock advances to `t` and the wake counts
  /// as one scheduled and one executed event with its own sequence number,
  /// but it takes no slab slot, no heap entry and no fiber switch. It does
  /// not look at watchpoints: a count it crosses is seen at the next event
  /// boundary. Returns false, changing nothing, when the wake must queue.
  ///
  /// Sound only if whoever woke the calling process does nothing after
  /// Process::wake(), so that a queued wake would have been the very next
  /// pop; Process::delay, the one caller, relies on it (DESIGN.md §10).
  bool wake_inline(TimePoint t) noexcept {
    if (!running_ || stopped_ || t > horizon_) return false;
    const SchedEntry* top = pending_.peek();
    if (top != nullptr && top->t <= t) return false;
    ++next_seq_;
    ++perf_.scheduled;
    ++perf_.executed;
    now_ = t;
    note_fired(t);
    return true;
  }

  /// Track runs of events at one timestamp for perf_.max_batch.
  void note_fired(TimePoint t) noexcept {
    if (t == last_fired_) {
      ++cur_batch_;
    } else {
      last_fired_ = t;
      cur_batch_ = 1;
    }
    if (cur_batch_ > perf_.max_batch) perf_.max_batch = cur_batch_;
  }

  /// Freelist pop inline (steady state is ~100% pool hits); slab growth
  /// stays out of line.
  std::uint32_t acquire_slot() {
    if (free_head_ != kNone) {
      const std::uint32_t slot = free_head_;
      Node& n = node(slot);
      free_head_ = n.next_free;
      n.next_free = kNone;
      ++perf_.pool_reuses;
      return slot;
    }
    return acquire_slot_grow();
  }
  std::uint32_t acquire_slot_grow();
  void release_slot(std::uint32_t slot) noexcept;
  bool cancel(std::uint32_t slot, std::uint32_t gen);
  bool handle_valid(std::uint32_t slot, std::uint32_t gen) const noexcept;

  /// Reap zombies at the front until the minimum entry is live; copies it
  /// to `out` (still queued) and returns true, or false when the queue
  /// drains. Cancellation is lazy — cancel() releases the slot (O(1)) and
  /// leaves the heap entry behind as a zombie whose stamped
  /// generation no longer matches; reaping it here counts a dead_pop.
  /// Dispatch order of live events is untouched — a cancelled event fires
  /// in neither scheme.
  bool peek_live(SchedEntry& out);
  /// Pop `out` (the entry peek_live just surfaced) and run its callback.
  void fire_entry(const SchedEntry& top);
  /// One dispatch step, callable from any context: the run loop on the
  /// caller's stack, or a blocked process's fiber (Process::suspend). If
  /// the run may go on (not stopped, and a live event is due within the
  /// horizon), fire that event and return true; otherwise change nothing
  /// and return false. Watchpoints are the caller's to check.
  bool step() {
    if (stopped_) return false;
    // peek_live() first: a zombie at the front must not gate (or satisfy)
    // the horizon check — only the earliest *live* event's time matters.
    SchedEntry top;
    if (!peek_live(top) || top.t > horizon_) return false;
    fire_entry(top);
    return true;
  }
  /// Return a fired event's slot to the freelist (its generation already
  /// advanced when it fired).
  void release_fired(std::uint32_t slot) noexcept {
    Node& n = node(slot);
    n.fn.reset();
    n.next_free = free_head_;
    free_head_ = slot;
  }
  void fire_watchpoints();
  void recompute_next_watch() noexcept;

  std::vector<std::unique_ptr<Node[]>> chunks_;  // freelist-recycled slab
  std::uint32_t slab_size_ = 0;   // slots handed out so far (all chunks)
  FourAryHeap pending_;           // pending + zombie events, (t, seq) order
  std::uint32_t free_head_ = kNone;   // freelist of released slots
  std::size_t zombies_ = 0;           // cancelled entries not yet reaped
  TimePoint now_{0};
  std::uint64_t next_seq_ = 0;
  EnginePerfStats perf_;
  /// Same-timestamp dispatch-run tracking for perf_.max_batch.
  TimePoint last_fired_{Duration::min()};
  std::size_t cur_batch_ = 0;
  bool stopped_ = false;
  bool running_ = false;
  /// Latest time the current run() / run_until() dispatches.
  TimePoint horizon_ = TimePoint::max();
  std::exception_ptr first_error_;
  /// Checkpoint hooks: (executed-count, callback), fired at event
  /// boundaries. `next_watch_` caches the minimum pending count so the
  /// dispatch loop pays one compare when no watchpoint is armed.
  std::vector<std::pair<std::uint64_t, std::function<void()>>> watchpoints_;
  std::uint64_t next_watch_ = ~0ull;

  // ---- the rank handoff (process.cpp, DESIGN.md D1 and §10) ----
  /// The process whose body is executing; null in engine context, which
  /// includes an event running on a blocked process's stack.
  Process* current_ = nullptr;
  /// The process whose fiber stack is in use; null on a thread's own stack.
  Process* stack_owner_ = nullptr;
  /// Where a dispatching process hands the thread back: the run() caller,
  /// parked in the Process::wake() that first switched away from it, or,
  /// between runs, a Process::kill() parked while its victim unwinds.
  SwitchContext* caller_ = nullptr;
  /// The slot of the callback now running, until that callback wakes a
  /// process. The woken process then releases it when it next blocks or
  /// ends, the boundary at which that event ends (set_watchpoint), so the
  /// freelist and the pool counters follow the event order alone, not the
  /// stack each callback ran on.
  std::uint32_t firing_ = kNone;
  std::uint64_t switches_ = 0;
};

// peek_live/fire_entry are defined here so they inline into step() and
// the two dispatch loops that call it (Engine::dispatch and
// Process::suspend) — together they are the per-event overhead floor, and
// keeping `top` in registers across the peek → fire handoff is worth
// several percent of whole-sim throughput.
inline bool Engine::peek_live(SchedEntry& out) {
  for (;;) {
    const SchedEntry* top = pending_.peek();
    if (top == nullptr) return false;
    if (node(top->slot).gen == top->gen) {
      out = *top;
      return true;
    }
    pending_.pop_min();  // reap a cancelled entry
    --zombies_;
    ++perf_.dead_pops;
  }
}

inline void Engine::fire_entry(const SchedEntry& top) {
  // Returns the fired slot to the freelist after its callback finishes —
  // even if the callback throws (otherwise the slot would leak) — unless
  // the callback woke a process and so handed the slot on (firing_).
  struct FireGuard {
    Engine* e;
    std::uint32_t slot;
    ~FireGuard() {
      if (e->firing_ != slot) return;
      e->firing_ = kNone;
      e->release_fired(slot);
    }
  };
  Node& n = node(top.slot);
  util::check(top.t >= now_, "event queue went backwards");
  now_ = top.t;
  note_fired(top.t);
  pending_.pop_min();  // peek_live just surfaced `top` at the heap root
  // The callback runs in place — its chunk address is stable even if it
  // schedules events that grow the slab. The generation is bumped first so
  // the event's own handle already reads fired (cancelling yourself is a
  // no-op), but the slot joins the freelist only after the callback
  // returns, so nothing can emplace over the still-executing closure. A
  // callback that wakes a process does so as its last act and leaves the
  // slot to that process, which may release it while the callback's frame
  // is still parked on a stack: past wake(), the closure is never read.
  ++n.gen;
  ++perf_.executed;
  firing_ = top.slot;
  FireGuard guard{this, top.slot};
  n.fn();
}

inline void EventHandle::cancel() {
  if (engine_ != nullptr) engine_->cancel(slot_, gen_);
}

inline bool EventHandle::valid() const {
  return engine_ != nullptr && engine_->handle_valid(slot_, gen_);
}

}  // namespace mvflow::sim
