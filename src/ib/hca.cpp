#include "ib/hca.hpp"

#include "ib/fabric.hpp"
#include "util/check.hpp"

namespace mvflow::ib {

Hca::Hca(Fabric& fabric, int node_id) : fabric_(fabric), node_id_(node_id) {}

sim::Engine& Hca::engine() noexcept { return fabric_.engine(); }

MemoryRegionHandle Hca::register_memory(std::span<std::byte> region,
                                        Access access) {
  return memory_.register_region(region, access);
}

void Hca::deregister_memory(MemoryRegionHandle handle) {
  memory_.deregister(handle);
}

std::shared_ptr<CompletionQueue> Hca::create_cq() {
  return std::make_shared<CompletionQueue>(engine());
}

std::shared_ptr<QueuePair> Hca::create_qp(
    std::shared_ptr<CompletionQueue> send_cq,
    std::shared_ptr<CompletionQueue> recv_cq) {
  const QpNumber qpn = fabric_.alloc_qpn();
  auto qp = std::make_shared<QueuePair>(*this, qpn, std::move(send_cq),
                                        std::move(recv_cq));
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    util::require(qps_[slot] == nullptr, "freelist slot still occupied");
    qps_[slot] = qp;
  } else {
    slot = static_cast<std::uint32_t>(qps_.size());
    qps_.push_back(qp);
  }
  ++live_qps_;
  fabric_.bind_qpn(qpn, node_id_, slot);
  // Density invariant: reconnect churn reuses slots, so the table never
  // grows past the peak concurrent QP count.
  util::require(live_qps_ + free_slots_.size() == qps_.size(),
                "QP slot table not dense");
  return qp;
}

void Hca::destroy_qp(QpNumber qpn) {
  const Fabric::QpnEntry* e = fabric_.qpn_entry(qpn);
  util::require(e != nullptr && e->node == node_id_,
                "destroy of unknown QP");
  qps_[e->slot].reset();
  free_slots_.push_back(e->slot);
  --live_qps_;
  fabric_.unbind_qpn(qpn);
  util::require(live_qps_ + free_slots_.size() == qps_.size(),
                "QP slot table not dense");
}

QueuePair* Hca::find_qp(QpNumber qpn) {
  const Fabric::QpnEntry* e = fabric_.qpn_entry(qpn);
  if (e == nullptr || e->node != node_id_) return nullptr;
  return qps_[e->slot].get();
}

}  // namespace mvflow::ib
