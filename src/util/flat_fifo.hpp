// Cursor-based FIFO over a flat vector. The simulator's hot queues (QP send
// windows, posted receives, completion queues) are strict FIFOs with rare
// mid-queue surgery; std::deque serves them but pays steady-state block
// churn — libstdc++ frees a 512-byte block every time pop_front crosses a
// block boundary and reallocates it on the next push_back. This container
// instead advances a read cursor over one vector and recycles the storage
// (capacity retained) whenever the consumer drains it, so a queue that
// repeatedly fills and empties never touches the allocator after warmup.
//
// Unconsumed elements occupy [head_, buf_.size()); slots before the cursor
// are dead until the next drain — or until pop_front compacts: once the
// dead prefix passes a threshold and outweighs the live tail, the prefix
// is erased (destroying the moved-from elements it pinned), so a queue
// that never fully drains still uses O(live) memory, amortized O(1) per
// pop. Iterators cover only live elements and follow vector invalidation
// rules; pop_front may invalidate them (compaction), like pop-and-push on
// a ring buffer would.
#pragma once

#include <algorithm>
#include <cstddef>
#include <iterator>
#include <utility>
#include <vector>

namespace mvflow::util {

template <typename T>
class FlatFifo {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  bool empty() const noexcept { return head_ == buf_.size(); }
  std::size_t size() const noexcept { return buf_.size() - head_; }

  T& front() { return buf_[head_]; }
  const T& front() const { return buf_[head_]; }
  T& back() { return buf_.back(); }
  const T& back() const { return buf_.back(); }

  void push_back(T v) { buf_.push_back(std::move(v)); }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    return buf_.emplace_back(std::forward<Args>(args)...);
  }

  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      clear();
    } else if (head_ >= kCompactMin && head_ >= buf_.size() - head_) {
      // Dead prefix outweighs the live tail: erase it. Each compaction
      // moves at most as many elements as pops since the last one, so the
      // cost is amortized O(1) and memory stays O(live).
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }
  void pop_back() {
    buf_.pop_back();
    if (head_ == buf_.size()) clear();
  }

  /// Re-queue [first, last) at the head, in order (retransmission rewind;
  /// pass move iterators to move). Reuses the dead prefix in front of the
  /// cursor when it is long enough, else makes one insert, so n entries
  /// cost O(n + size()) element moves.
  template <typename It>
  void prepend(It first, It last) {
    const auto n = static_cast<std::size_t>(std::distance(first, last));
    if (n <= head_) {
      head_ -= n;
      std::copy(first, last, buf_.begin() + static_cast<std::ptrdiff_t>(head_));
    } else {
      buf_.insert(buf_.begin() + static_cast<std::ptrdiff_t>(head_), first, last);
    }
  }

  void clear() noexcept {
    buf_.clear();  // capacity retained
    head_ = 0;
  }

  iterator begin() noexcept { return buf_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() noexcept { return buf_.end(); }
  const_iterator begin() const noexcept {
    return buf_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const noexcept { return buf_.end(); }

  iterator erase(iterator it) {
    iterator out = buf_.erase(it);
    if (head_ == buf_.size()) {
      clear();
      return buf_.end();
    }
    return out;
  }
  iterator erase(iterator first, iterator last) {
    iterator out = buf_.erase(first, last);
    if (head_ == buf_.size()) {
      clear();
      return buf_.end();
    }
    return out;
  }

 private:
  /// Minimum dead-prefix length before compaction kicks in; keeps the
  /// common small fill/drain cycles on the pure cursor-advance path.
  static constexpr std::size_t kCompactMin = 64;

  std::vector<T> buf_;
  std::size_t head_ = 0;
};

}  // namespace mvflow::util
