#include "ib/cq.hpp"

namespace mvflow::ib {

std::optional<Completion> CompletionQueue::poll() {
  if (entries_.empty()) return std::nullopt;
  Completion wc = entries_.front();
  entries_.pop_front();
  return wc;
}

void CompletionQueue::push(const Completion& wc) {
  entries_.push_back(wc);
  ++total_pushed_;
  nonempty_.notify_all();
}

}  // namespace mvflow::ib
