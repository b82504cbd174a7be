// Completion queue. Work completions from any number of QPs funnel into
// one CQ (the paper's MPI attaches all connections of a process to a
// single CQ). Consumers poll; blocking consumers wait on nonempty().
#pragma once

#include <optional>

#include "ib/types.hpp"
#include "sim/condition.hpp"
#include "sim/engine.hpp"
#include "util/flat_fifo.hpp"

namespace mvflow::ib {

class CompletionQueue {
 public:
  explicit CompletionQueue(sim::Engine& engine)
      : nonempty_(engine) {}
  CompletionQueue(const CompletionQueue&) = delete;
  CompletionQueue& operator=(const CompletionQueue&) = delete;

  /// Non-blocking poll; nullopt when empty.
  std::optional<Completion> poll();

  bool empty() const noexcept { return entries_.empty(); }
  std::size_t depth() const noexcept { return entries_.size(); }

  /// Condition signalled whenever a completion is pushed; lets a consumer
  /// process sleep instead of spinning (interrupt-style blocking).
  sim::Condition& nonempty() noexcept { return nonempty_; }

  /// Producer side (HCA/QP protocol engines).
  void push(const Completion& wc);

  std::uint64_t total_pushed() const noexcept { return total_pushed_; }

 private:
  util::FlatFifo<Completion> entries_;
  sim::Condition nonempty_;
  std::uint64_t total_pushed_ = 0;
};

}  // namespace mvflow::ib
