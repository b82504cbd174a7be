// Host-time spans recorded by the benchmark around its own calls into each
// layer's public functions. Nothing inside the simulator is instrumented:
// a span's duration is what the caller of that function waited for.
//
// Concurrency: every workload runs on the serial engine, where exactly one
// thread (the engine thread or one rank thread) executes at any instant and
// the rank handoff semaphores order every switch. The recorder's shared
// state is therefore touched by one thread at a time with a happens-before
// edge between turns, and needs no lock. Only the open-span stack is
// per-thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench::trace {

enum class Layer : std::uint8_t { sim, ib, mpi, nas, kCount };

const char* layer_name(Layer l);

/// Each public entry point the benchmark times.
enum class Kind : std::uint8_t {
  world_new,   // mpi::World::World
  world_run,   // mpi::World::run
  send,        // mpi::Communicator::send
  recv,        // mpi::Communicator::recv
  isend,       // mpi::Communicator::isend
  irecv,       // mpi::Communicator::irecv
  wait_all,    // mpi::Communicator::wait_all
  nas_lu,      // nas::run_lu
  nas_mg,      // nas::run_mg
  nas_cg,      // nas::run_cg
  engine_run,  // sim::Engine::run
  post_send,   // ib::QueuePair::post_send
  post_recv,   // ib::QueuePair::post_recv
  poll,        // ib::CompletionQueue::poll
  connect,     // ib::Fabric::connect
  kCount
};

const char* kind_name(Kind k);
Layer kind_layer(Kind k);

/// Aggregates of one kind over the spans recorded since the last reset.
struct KindStats {
  std::uint64_t count = 0;
  double total_s = 0;  ///< wall time
  double self_s = 0;   ///< minus children; thread CPU time for calls that block
  /// Per-call durations in ns (capped; see trace.cpp) for medians.
  std::vector<std::uint32_t> samples_ns;
  double median_ns() const;
};

struct Stats {
  KindStats kinds[static_cast<std::size_t>(Kind::kCount)];
  double layer_self_s[static_cast<std::size_t>(Layer::kCount)] = {};
  std::uint64_t spans = 0;
  std::uint64_t kept = 0;

  const KindStats& of(Kind k) const {
    return kinds[static_cast<std::size_t>(k)];
  }
  double self_of(Layer l) const {
    return layer_self_s[static_cast<std::size_t>(l)];
  }
};

/// Arm or disarm recording. Disarmed, a Span costs one predicted branch.
void set_enabled(bool on);

/// Keep full span records (for the Chrome export) until `cap` are held;
/// aggregates keep counting past the cap.
void keep_spans(std::size_t cap);

/// Return the aggregates recorded since the last call and reset them.
Stats take_stats();

/// Write the kept spans in Chrome trace_event form. Returns false when the
/// file cannot be written.
bool write_chrome(const std::string& path);

/// RAII span around one call. The parent is the innermost open span on
/// this thread or, for a rank thread's outermost spans, the World::run
/// span (see adopt_parent).
class Span {
 public:
  explicit Span(Kind k);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
};

/// Called first thing in a rank body: tags this thread's spans with
/// `thread_index` and parents its outermost spans to the open
/// mpi::World::run span on the engine thread.
void adopt_parent(int thread_index);

}  // namespace perfbench::trace
