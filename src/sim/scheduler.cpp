#include "sim/scheduler.hpp"

namespace mvflow::sim {

void FourAryHeap::sift_up(std::uint32_t pos) {
  const SchedEntry e = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 4;
    if (!sched_before(e, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = e;
}

}  // namespace mvflow::sim
