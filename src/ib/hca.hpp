// Host Channel Adapter: the per-node verbs entry point. Owns the node's
// memory registry, completion queues, and queue pairs.
#pragma once

#include <utility>
#include <vector>
#include <memory>
#include <span>

#include "ib/cq.hpp"
#include "ib/memory.hpp"
#include "ib/msg_pool.hpp"
#include "ib/qp.hpp"
#include "ib/types.hpp"

namespace mvflow::ib {

class Fabric;

class Hca {
 public:
  Hca(Fabric& fabric, int node_id);
  Hca(const Hca&) = delete;
  Hca& operator=(const Hca&) = delete;

  /// Pin and register a buffer; returns its (lkey, rkey).
  MemoryRegionHandle register_memory(std::span<std::byte> region, Access access);
  void deregister_memory(MemoryRegionHandle handle);

  std::shared_ptr<CompletionQueue> create_cq();

  /// Create a queue pair bound to the given CQs (they may be the same
  /// object — the paper's MPI uses one CQ for everything). RC by default;
  /// pass QpType::ud for a connectionless datagram QP.
  std::shared_ptr<QueuePair> create_qp(std::shared_ptr<CompletionQueue> send_cq,
                                       std::shared_ptr<CompletionQueue> recv_cq,
                                       QpType type = QpType::rc);
  void destroy_qp(QpNumber qpn);

  QueuePair* find_qp(QpNumber qpn);

  int node_id() const noexcept { return node_id_; }
  Fabric& fabric() noexcept { return fabric_; }
  /// The fabric's engine, on which every QP and CQ of this HCA schedules.
  sim::Engine& engine() noexcept;
  MemoryRegistry& memory() noexcept { return memory_; }
  const MemoryRegistry& memory() const noexcept { return memory_; }

  /// Pool backing every message this HCA originates (sends, UD datagrams,
  /// RDMA-read responses). Buffers recycle only after final completion.
  MessageDataPool& msg_pool() noexcept { return *msg_pool_; }
  const MessageDataPool& msg_pool() const noexcept { return *msg_pool_; }

 private:
  Fabric& fabric_;
  int node_id_;
  MemoryRegistry memory_;
  std::shared_ptr<MessageDataPool> msg_pool_ =
      std::make_shared<MessageDataPool>();
  // Dense QP slots: find_qp runs once per delivered packet, so it resolves
  // through the fabric-global QPN index (qpn -> (node, slot), one array
  // read) instead of scanning. Destroyed slots go on a freelist and are
  // reused by the next create, so the vector never grows past the peak
  // concurrent QP count — reconnect churn stays dense (asserted in
  // create/destroy).
  std::vector<std::shared_ptr<QueuePair>> qps_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t live_qps_ = 0;
};

}  // namespace mvflow::ib
