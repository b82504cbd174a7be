#include "sim/process.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <new>
#include <system_error>

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

namespace {

/// One stack size for every process, with no option: the measured
/// high-water mark across fig3, fig9, fig10, bench_conn_scaling and the
/// test suite is 6.2 KiB, and 47 KiB under ASan (the NAS kernels). Pages a
/// fiber never touches cost address space only.
constexpr std::size_t kStackBytes = 256 * 1024;

std::size_t page_bytes() {
  static const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

/// The process whose fiber this thread is executing; null in engine
/// context. A blocking call checks it, so calling one from anywhere but the
/// process's own body fails instead of switching away from the wrong stack.
thread_local Process* t_current = nullptr;

}  // namespace

/// A process's stack mapping and saved contexts. The mapping is one guard
/// page (PROT_NONE, so a runaway body faults instead of overwriting a
/// neighbour) followed by the stack, with this block at its very top. A
/// fiber resumes on whichever thread calls enter(); the caller's context is
/// saved anew on every switch, so the thread that resumes it need not be
/// the one it last ran on.
struct Process::Fiber {
  void* map = nullptr;
  std::size_t map_bytes = 0;
  std::byte* stack_lo = nullptr;  // usable stack, up to this block
  std::size_t stack_bytes = 0;
#if MVFLOW_FIBER_ASM
  void* sp = nullptr;         // the fiber's saved stack pointer
  void* caller_sp = nullptr;  // and its last resumer's
#else
  ucontext_t ctx{};
  ucontext_t caller{};
#endif
#if defined(__SANITIZE_ADDRESS__)
  // ASan must know which stack is live, or the first exception thrown on a
  // fiber reads as a stack-buffer overflow or underflow.
  void* fake_stack = nullptr;
  const void* caller_lo = nullptr;
  std::size_t caller_bytes = 0;
#endif
#if defined(__SANITIZE_THREAD__)
  // Switches synchronize, which gives TSan the happens-before edges between
  // a fiber and whoever resumes it, on one thread or across threads.
  void* tsan_fiber = nullptr;
  void* tsan_caller = nullptr;
#endif

  static Fiber* create(Process* owner);
  static void destroy(Fiber* f) noexcept;

  /// Resumer side: switch into the fiber until it leaves again.
  void enter() {
#if defined(__SANITIZE_ADDRESS__)
    void* fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack_lo, stack_bytes);
#endif
#if defined(__SANITIZE_THREAD__)
    tsan_caller = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
#if MVFLOW_FIBER_ASM
    mvflow_fiber_switch(&caller_sp, sp);
#else
    swapcontext(&caller, &ctx);
#endif
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
  }

  /// Fiber side: switch back to the resumer. `last` is the final switch
  /// of a finished body (ASan then frees the fiber's fake stack).
  void leave([[maybe_unused]] bool last) {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(last ? nullptr : &fake_stack, caller_lo,
                                   caller_bytes);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(tsan_caller, 0);
#endif
#if MVFLOW_FIBER_ASM
    mvflow_fiber_switch(&sp, caller_sp);
#else
    swapcontext(&ctx, &caller);
#endif
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(fake_stack, &caller_lo, &caller_bytes);
#endif
  }

  /// First frame on a fresh fiber's stack.
  [[noreturn]] static void main(Process* p) {
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &p->fiber_->caller_lo,
                                    &p->fiber_->caller_bytes);
#endif
    p->run_body();
    p->fiber_->leave(true);
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
  const std::size_t bytes = guard + kStackBytes;
  void* map = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_STACK, -1, 0);
  if (map == MAP_FAILED) throw std::bad_alloc();
  if (::mprotect(map, guard, PROT_NONE) != 0) {
    const int err = errno;
    ::munmap(map, bytes);
    throw std::system_error(err, std::generic_category(), "fiber guard page");
  }
  auto* base = static_cast<std::byte*>(map);
  const std::uintptr_t block =
      (reinterpret_cast<std::uintptr_t>(base + bytes) - sizeof(Fiber)) &
      ~std::uintptr_t{alignof(Fiber) - 1};
  Fiber* f = new (reinterpret_cast<void*>(block)) Fiber();
  f->map = map;
  f->map_bytes = bytes;
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
  f->sp = frame;
#else
  getcontext(&f->ctx);
  f->ctx.uc_stack.ss_sp = f->stack_lo;
  f->ctx.uc_stack.ss_size = f->stack_bytes;
  f->ctx.uc_link = nullptr;
  const std::uint64_t bits = reinterpret_cast<std::uintptr_t>(owner);
  makecontext(&f->ctx, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(bits >> 32), static_cast<unsigned>(bits));
#endif
#if defined(__SANITIZE_THREAD__)
  f->tsan_fiber = __tsan_create_fiber(0);
  __tsan_set_fiber_name(f->tsan_fiber, owner->name_.c_str());
#endif
  return f;
}

void Process::Fiber::destroy(Fiber* f) noexcept {
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(f->tsan_fiber);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Frames a fiber never returned from leave their redzones poisoned; a
  // later mapping at the same address must not inherit them.
  __asan_unpoison_memory_region(f->stack_lo, f->stack_bytes);
#endif
  void* map = f->map;
  const std::size_t bytes = f->map_bytes;
  f->~Fiber();
  ::munmap(map, bytes);
}

Process::Process(Engine& engine, std::string name, Body body)
    : engine_(engine),
      name_(std::move(name)),
      body_(std::move(body)),
      fiber_(Fiber::create(this)) {
  engine_.register_process(this);
  // First resume: enter the body at the current simulated time.
  engine_.schedule_at(engine_.now(), [this] {
    if (!finished_) resume();
  });
}

Process::~Process() {
  if (!finished_) kill();
  engine_.unregister_process(this);
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

void Process::resume() {
  started_ = true;
  Process* const resumer = t_current;  // null, or a process killing us
  t_current = this;
  fiber_->enter();
  t_current = resumer;
}

void Process::suspend() {
  fiber_->leave(false);
  if (kill_requested_) throw ProcessKilled{};
}

Process::Waker Process::begin_sleep() {
  util::check(t_current == this,
              "a process can only block inside its own body");
  return Waker{this, ++sleep_epoch_};
}

void Process::delay(Duration d) {
  util::require(d >= Duration::zero(), "negative delay");
  const Waker wake = begin_sleep();
  // kill() continues after its resume(), so a killed body that blocks
  // while unwinding takes the queued path (and kill() reports it).
  if (!kill_requested_ && engine_.wake_inline(engine_.now() + d)) return;
  engine_.schedule_after(d, wake);
  suspend();
}

void Process::kill() {
  if (finished_) return;
  kill_requested_ = true;
  // A process killing itself: unwind directly.
  if (t_current == this) throw ProcessKilled{};
  ++sleep_epoch_;  // invalidate any pending wakers
  if (!started_) {
    finished_ = true;  // never entered: there is no body to unwind
    return;
  }
  resume();
  util::check(finished_, "killed process did not finish");
}

}  // namespace mvflow::sim
