// Pooled message descriptors for the packet hot path.
//
// Every in-flight message used to be a fresh `make_shared<MessageData>`;
// at millions of packet-hop events per run that is the dominant allocator
// traffic. Messages now live in a per-HCA pool: acquire() recycles a
// node, and MsgRef counts references intrusively (single-threaded
// simulation — no atomics). A message returns to its pool only when the
// last reference dies, i.e. after final ACK/completion retires the send —
// so retransmissions always replay the original bytes and pooling cannot
// change protocol behavior.
//
// Lifetime: each checked-out message holds a shared_ptr keepalive to its
// pool, so packets still sitting in engine events after an HCA (or the
// whole fabric) is torn down release into a pool that is guaranteed to
// still exist; the pool itself dies with the last outstanding message.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "ib/types.hpp"

namespace mvflow::ib {

class MessageDataPool;

/// One in-flight message; data packets of the same message share it.
///
/// Payloads are zero-copy: `src` points into the sender's registered
/// region, which verbs rules require to stay untouched until the WQE
/// completes — and every consumer (delivery, retransmission) runs before
/// the completion is generated, so reading through the pointer is
/// equivalent to the eager deep-copy it replaces.
struct MessageData {
  WrOpcode opcode = WrOpcode::send;
  const std::byte* src = nullptr;      // send / rdma_write source (borrowed)
  std::byte* remote_addr = nullptr;    // rdma_write target
  std::uint32_t rkey = 0;
  std::uint32_t length = 0;            // total message length
};

/// Pool node: the message plus its intrusive refcount and owner linkage.
struct PooledMessage {
  MessageData data;
  std::uint32_t refs = 0;
  std::shared_ptr<MessageDataPool> keepalive;  // set while checked out
};

/// Shared handle to a pooled message (read-only view, like the
/// shared_ptr<const MessageData> it replaces — but copies are a non-atomic
/// increment and release is freelist recycling, not deallocation).
class MsgRef {
 public:
  MsgRef() noexcept = default;
  MsgRef(const MsgRef& o) noexcept : m_(o.m_) {
    if (m_ != nullptr) ++m_->refs;
  }
  MsgRef(MsgRef&& o) noexcept : m_(o.m_) { o.m_ = nullptr; }
  MsgRef& operator=(const MsgRef& o) noexcept {
    if (this != &o) {
      release_();
      m_ = o.m_;
      if (m_ != nullptr) ++m_->refs;
    }
    return *this;
  }
  MsgRef& operator=(MsgRef&& o) noexcept {
    if (this != &o) {
      release_();
      m_ = o.m_;
      o.m_ = nullptr;
    }
    return *this;
  }
  ~MsgRef() { release_(); }

  explicit operator bool() const noexcept { return m_ != nullptr; }
  const MessageData* operator->() const noexcept { return &m_->data; }
  const MessageData& operator*() const noexcept { return m_->data; }

  /// Writable view for the owner that just acquired the message; must not
  /// be used once packets referencing it are on the wire.
  MessageData& fill() noexcept { return m_->data; }

 private:
  friend class MessageDataPool;
  explicit MsgRef(PooledMessage* m) noexcept : m_(m) { ++m_->refs; }
  inline void release_() noexcept;
  PooledMessage* m_ = nullptr;
};

class MessageDataPool
    : public std::enable_shared_from_this<MessageDataPool> {
 public:
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;  ///< served from the freelist
    std::uint64_t allocs = 0;  ///< grew the pool
    double hit_rate() const {
      return acquires == 0
                 ? 0.0
                 : static_cast<double>(reuses) / static_cast<double>(acquires);
    }

    /// Enumerate every counter as (name, value) for a metrics sink.
    template <typename Fn>
    void visit(Fn&& f) const {
      f("acquires", static_cast<double>(acquires));
      f("reuses", static_cast<double>(reuses));
      f("allocs", static_cast<double>(allocs));
      f("hit_rate", hit_rate());
    }
  };

  /// Check out a message; `fill()` it before putting packets on the wire.
  MsgRef acquire() {
    ++stats_.acquires;
    PooledMessage* m;
    if (!free_.empty()) {
      m = free_.back();
      free_.pop_back();
      ++stats_.reuses;
    } else {
      // free_ can never hold more than all_.size() entries, so growing its
      // capacity in lockstep (geometrically, and before the node exists)
      // guarantees the noexcept release() below never allocates — a
      // push_back that threw bad_alloc there would terminate.
      if (free_.capacity() < all_.size() + 1) {
        free_.reserve(std::max<std::size_t>(16, 2 * (all_.size() + 1)));
      }
      all_.push_back(std::make_unique<PooledMessage>());
      m = all_.back().get();
      ++stats_.allocs;
    }
    m->keepalive = shared_from_this();
    return MsgRef(m);
  }

  const Stats& stats() const noexcept { return stats_; }
  std::size_t outstanding() const noexcept { return all_.size() - free_.size(); }

 private:
  friend class MsgRef;
  void release(PooledMessage* m) noexcept {
    m->data.src = nullptr;
    m->data.remote_addr = nullptr;
    free_.push_back(m);
  }

  std::vector<std::unique_ptr<PooledMessage>> all_;
  std::vector<PooledMessage*> free_;
  Stats stats_;
};

inline void MsgRef::release_() noexcept {
  if (m_ == nullptr) return;
  if (--m_->refs == 0) {
    // Keep the pool alive through the release: if the HCA already dropped
    // its reference, the pool is destroyed right after the last message
    // returns — not before.
    const std::shared_ptr<MessageDataPool> keep = std::move(m_->keepalive);
    keep->release(m_);
  }
  m_ = nullptr;
}

}  // namespace mvflow::ib
