#include "sim/process.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <new>
#include <system_error>
#include <utility>
#include <vector>

#include "util/check.hpp"

// Switch backend, fixed at build time: a register-only switch on x86-64,
// glibc's ucontext everywhere else (and wherever MVFLOW_FIBER_UCONTEXT is
// defined, which is how the test suite keeps the fallback exercised).
#if defined(__x86_64__) && !defined(MVFLOW_FIBER_UCONTEXT)
#define MVFLOW_FIBER_ASM 1
#else
#define MVFLOW_FIBER_ASM 0
#include <ucontext.h>
#endif

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if MVFLOW_FIBER_ASM
// mvflow_fiber_switch(save, load): push the callee-saved registers and the
// MXCSR / x87 control words onto the current stack, store the stack pointer
// to *save, load `load`, and pop the same frame off the other stack.
// Everything else is caller-saved under the SysV ABI, so that frame is the
// whole context — and no kernel call is involved (glibc's swapcontext
// spends most of its time in the signal-mask syscall).
//
// mvflow_fiber_start is the return address of a fresh fiber's first frame:
// it calls the entry function left in %r12 with the argument left in %rbx.
// Its CFI marks the end of the call chain for unwinders and debuggers.
extern "C" void mvflow_fiber_switch(void** save, void* load);
extern "C" void mvflow_fiber_start();
asm(R"(
  .pushsection .text
  .globl mvflow_fiber_switch
  .type mvflow_fiber_switch, @function
  .p2align 4
mvflow_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size mvflow_fiber_switch, .-mvflow_fiber_switch

  .globl mvflow_fiber_start
  .type mvflow_fiber_start, @function
  .p2align 4
mvflow_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %rbx, %rdi
  callq *%r12
  ud2
  .cfi_endproc
  .size mvflow_fiber_start, .-mvflow_fiber_start
  .popsection
)");
#endif

namespace mvflow::sim {

/// A saved execution context: a process's fiber stack, or a thread's own
/// stack (the run() caller's, parked in Process::wake(), or a killer's
/// outside any fiber, parked in Process::kill()). transfer() saves the
/// running context into one and resumes another.
struct SwitchContext {
#if MVFLOW_FIBER_ASM
  void* sp = nullptr;  // saved stack pointer
#else
  ucontext_t uc{};
#endif
#if defined(__SANITIZE_ADDRESS__)
  // ASan must know which stack is live, or the first exception thrown on a
  // fiber reads as a stack-buffer overflow or underflow. A fiber's bounds
  // are set when it is created; a thread stack's are learned from ASan on
  // arrival at the context switched to from it.
  void* fake_stack = nullptr;
  const void* stack_lo = nullptr;
  std::size_t stack_bytes = 0;
  SwitchContext* came_from = nullptr;  // the context last switched from
#endif
#if defined(__SANITIZE_THREAD__)
  // Switches synchronize, which gives TSan the happens-before edges between
  // a fiber and whoever switches to it, on one thread or across threads.
  void* tsan_fiber = nullptr;
#endif
};

namespace {

/// One stack size for every process, with no option: the measured
/// high-water mark across fig3, fig9, fig10, bench_conn_scaling and the
/// test suite, event dispatch on rank stacks included, is 16.3 KiB in
/// Release and 35.5 KiB under ASan (the NAS kernels; DESIGN.md D1). Pages
/// a fiber never touches cost address space only.
constexpr std::size_t kStackBytes = 256 * 1024;

/// Stack mappings a thread keeps for its next processes; enough for the
/// largest world (bench_conn_scaling's 1 024 ranks), so building a world
/// after an equal or larger one on the same thread maps nothing.
constexpr std::size_t kPooledStacks = 1024;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

std::size_t map_bytes() { return page_bytes() + kStackBytes; }

/// Mappings of destroyed processes' stacks, guard page intact, kept for
/// this thread's next processes: they cost no mmap, mprotect or munmap.
struct StackPool {
  std::vector<void*> maps;
  // Reserved up front, so returning a mapping never allocates.
  StackPool() { maps.reserve(kPooledStacks); }
  ~StackPool();
};
thread_local StackPool t_stack_pool;
/// Set once this thread's pool is gone: a process destroyed later in the
/// thread's exit unmaps its stack instead.
thread_local bool t_stack_pool_gone = false;

StackPool::~StackPool() {
  t_stack_pool_gone = true;
  for (void* map : maps) ::munmap(map, map_bytes());
}

#if defined(__SANITIZE_ADDRESS__)
/// First act on arrival in `self`: restore its fake stack (null for a
/// fresh fiber) and learn the bounds of the stack just left.
void arrived(SwitchContext& self, void* fake_stack) {
  SwitchContext& from = *self.came_from;
  __sanitizer_finish_switch_fiber(fake_stack, &from.stack_lo,
                                  &from.stack_bytes);
}
#endif

/// The one switch: save the running context into `from` and resume `to`;
/// returns when something switches back to `from`. `from_finished` marks
/// the last switch off a finished body (ASan then frees its fake stack).
void transfer(SwitchContext& from, SwitchContext& to,
              [[maybe_unused]] bool from_finished) {
#if defined(__SANITIZE_ADDRESS__)
  to.came_from = &from;
  __sanitizer_start_switch_fiber(from_finished ? nullptr : &from.fake_stack,
                                 to.stack_lo, to.stack_bytes);
#endif
#if defined(__SANITIZE_THREAD__)
  from.tsan_fiber = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
#if MVFLOW_FIBER_ASM
  mvflow_fiber_switch(&from.sp, to.sp);
#else
  swapcontext(&from.uc, &to.uc);
#endif
#if defined(__SANITIZE_ADDRESS__)
  arrived(from, from.fake_stack);
#endif
}

}  // namespace

/// A process's stack mapping and saved context. The mapping is one guard
/// page (PROT_NONE, so a runaway body faults instead of overwriting a
/// neighbour) followed by the stack, with this block at its very top. A
/// fiber resumes on whichever thread switches to it; every switch saves
/// the context it leaves, so the thread that resumes a fiber need not be
/// the one it last ran on.
struct Process::Fiber {
  void* map = nullptr;
  std::byte* stack_lo = nullptr;  // usable stack, up to this block
  std::size_t stack_bytes = 0;
  SwitchContext ctx;

  static Fiber* create(Process* owner);
  static void destroy(Fiber* f) noexcept;

  /// First frame on a fresh fiber's stack.
  [[noreturn]] static void main(Process* p) {
#if defined(__SANITIZE_ADDRESS__)
    arrived(p->fiber_->ctx, nullptr);
#endif
    Engine& e = p->engine_;
    e.current_ = p;
    p->run_body();
    // The event that last woke the body ends here (Engine::firing_).
    if (p->held_slot_ != Engine::kNone) e.release_fired(p->held_slot_);
    e.current_ = nullptr;
    p->leave_to(*e.caller_, true);
    __builtin_unreachable();  // nothing resumes a finished fiber
  }

#if !MVFLOW_FIBER_ASM
  // makecontext passes int-sized arguments, so the pointer comes in halves.
  static void trampoline(unsigned hi, unsigned lo) {
    main(reinterpret_cast<Process*>(
        static_cast<std::uintptr_t>(std::uint64_t{hi} << 32 | lo)));
  }
#endif
};

Process::Fiber* Process::Fiber::create(Process* owner) {
  const std::size_t guard = page_bytes();
  const std::size_t bytes = map_bytes();
  void* map = nullptr;
  if (!t_stack_pool.maps.empty()) {
    map = t_stack_pool.maps.back();
    t_stack_pool.maps.pop_back();
  } else {
    map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
    if (map == MAP_FAILED) throw std::bad_alloc();
    if (::mprotect(map, guard, PROT_NONE) != 0) {
      const int err = errno;
      ::munmap(map, bytes);
      throw std::system_error(err, std::generic_category(),
                              "fiber guard page");
    }
  }
  auto* base = static_cast<std::byte*>(map);
  const std::uintptr_t block =
      (reinterpret_cast<std::uintptr_t>(base + bytes) - sizeof(Fiber)) &
      ~std::uintptr_t{alignof(Fiber) - 1};
  Fiber* f = new (reinterpret_cast<void*>(block)) Fiber();
  f->map = map;
  f->stack_lo = base + guard;
  // The ABI wants a 16-byte-aligned stack at every call.
  const std::uintptr_t top = block & ~std::uintptr_t{15};
  f->stack_bytes = top - reinterpret_cast<std::uintptr_t>(f->stack_lo);
#if MVFLOW_FIBER_ASM
  // The frame the first switch in pops: control words inherited from the
  // creating thread (as a new thread would inherit them), the entry
  // function in r12 and its argument in rbx, a null frame pointer that ends
  // backtraces, and the start stub as return address. The stub then runs
  // with rsp == top, so main() is entered with the ABI's alignment.
  auto* frame = reinterpret_cast<std::uint64_t*>(top) - 8;
  std::uint32_t mxcsr = 0;
  std::uint16_t fpucw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fpucw));
  frame[0] = mxcsr | std::uint64_t{fpucw} << 32;
  frame[1] = 0;  // r15
  frame[2] = 0;  // r14
  frame[3] = 0;  // r13
  frame[4] = reinterpret_cast<std::uint64_t>(&Fiber::main);     // r12
  frame[5] = reinterpret_cast<std::uint64_t>(owner);            // rbx
  frame[6] = 0;                                                 // rbp
  frame[7] = reinterpret_cast<std::uint64_t>(&mvflow_fiber_start);
  f->ctx.sp = frame;
#else
  getcontext(&f->ctx.uc);
  f->ctx.uc.uc_stack.ss_sp = f->stack_lo;
  f->ctx.uc.uc_stack.ss_size = f->stack_bytes;
  f->ctx.uc.uc_link = nullptr;
  const std::uint64_t bits = reinterpret_cast<std::uintptr_t>(owner);
  makecontext(&f->ctx.uc, reinterpret_cast<void (*)()>(&Fiber::trampoline),
              2, static_cast<unsigned>(bits >> 32),
              static_cast<unsigned>(bits));
#endif
#if defined(__SANITIZE_ADDRESS__)
  f->ctx.stack_lo = f->stack_lo;
  f->ctx.stack_bytes = f->stack_bytes;
#endif
#if defined(__SANITIZE_THREAD__)
  f->ctx.tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(f->ctx.tsan_fiber, owner->name_.c_str());
#endif
  return f;
}

void Process::Fiber::destroy(Fiber* f) noexcept {
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(f->ctx.tsan_fiber);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Frames a fiber never returned from leave their redzones poisoned; the
  // next fiber on this mapping, or a later mapping at the same address,
  // must not inherit them.
  __asan_unpoison_memory_region(f->stack_lo, f->stack_bytes);
#endif
  void* map = f->map;
  f->~Fiber();
  if (!t_stack_pool_gone && t_stack_pool.maps.size() < kPooledStacks) {
    t_stack_pool.maps.push_back(map);
  } else {
    ::munmap(map, map_bytes());
  }
}

Process::Process(Engine& engine, std::string name, Body body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_(Fiber::create(this)) {
  // First wake: enter the body at the current simulated time.
  engine_.schedule_at(engine_.now(), [this] {
    if (!finished_) wake();
  });
}

Process::~Process() {
  if (!finished_) kill();
  Fiber::destroy(fiber_);
}

void Process::run_body() noexcept {
  try {
    body_(*this);
  } catch (const ProcessKilled&) {
    // Normal teardown path: unwound by kill().
  } catch (...) {
    engine_.record_error(std::current_exception());
  }
  finished_ = true;
}

void Process::enter_from(SwitchContext& from) {
  engine_.stack_owner_ = this;
  ++engine_.switches_;
  transfer(from, fiber_->ctx, false);
}

void Process::leave_to(SwitchContext& to, bool finished) {
  engine_.stack_owner_ = nullptr;
  ++engine_.switches_;
  transfer(fiber_->ctx, to, finished);
}

void Process::wake() {
  Engine& e = engine_;
  started_ = true;
  woken_ = true;
  held_slot_ = std::exchange(e.firing_, Engine::kNone);
  Process* const owner = e.stack_owner_;
  // Its own wake, fired on its own stack: the body carries on in place.
  if (owner == this) return;
  // Another process's stack: that process stays parked here, inside this
  // event, until its own wake switches back to it.
  if (owner != nullptr) {
    enter_from(owner->fiber_->ctx);
    return;
  }
  // The run() caller's stack: parked here until a process hands it back.
  SwitchContext caller;
  e.caller_ = &caller;
  enter_from(caller);
}

void Process::suspend() {
  Engine& e = engine_;
  // The event that woke this body ends here (Engine::firing_).
  if (held_slot_ != Engine::kNone) {
    e.release_fired(std::exchange(held_slot_, Engine::kNone));
  }
  e.current_ = nullptr;  // events on this stack run as engine context
  woken_ = false;
  if (kill_requested_) {
    // Blocking while kill() unwinds it: back to the killer, which reports
    // it.
    leave_to(*e.caller_);
  } else {
    while (!woken_ && !kill_requested_) {
      // The first pass is the boundary of the event that woke this body.
      bool fired = false;
      if (e.perf_.executed < e.next_watch_) {
        try {
          fired = e.step();
        } catch (...) {
          // A callback's exception leaves through Engine::run, never
          // through this body.
          e.record_error(std::current_exception());
        }
      }
      // Nothing may run, a watchpoint is due or a callback threw: the run
      // caller takes over. This returns once this process is woken or
      // killed.
      if (!fired) leave_to(*e.caller_);
    }
  }
  e.current_ = this;
  if (kill_requested_) throw ProcessKilled{};
}

Process::Waker Process::begin_sleep() {
  util::check(engine_.current_ == this,
              "a process can only block inside its own body");
  return Waker{this, ++sleep_epoch_};
}

void Process::delay(Duration d) {
  util::require(d >= Duration::zero(), "negative delay");
  const Waker waker = begin_sleep();
  if (engine_.wake_inline(engine_.now() + d)) return;
  engine_.schedule_after(d, waker);
  suspend();
}

void Process::kill() {
  util::check(!engine_.running_, "Process::kill runs only outside a run");
  if (finished_) return;
  kill_requested_ = true;
  ++sleep_epoch_;  // invalidate any pending wakers
  if (!started_) {
    finished_ = true;  // never entered: there is no body to unwind
    return;
  }
  // The killer parks here as the run() caller does in wake(); the victim
  // unwinds and switches back when its body ends.
  SwitchContext killer;
  engine_.caller_ = &killer;
  enter_from(killer);
  util::check(finished_, "killed process did not finish");
}

}  // namespace mvflow::sim
