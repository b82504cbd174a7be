#include "ib/memory.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace mvflow::ib {

MemoryRegionHandle MemoryRegistry::register_region(std::span<std::byte> region,
                                                   Access access) {
  util::require(!region.empty(), "cannot register empty region");
  RegionInfo info;
  info.base = region.data();
  info.length = region.size();
  info.access = access;
  info.lkey = next_key_++;
  info.rkey = next_key_++;
  regions_.push_back(info);
  registered_bytes_ += info.length;
  return MemoryRegionHandle{info.lkey, info.rkey};
}

void MemoryRegistry::deregister(MemoryRegionHandle handle) {
  const auto it =
      std::find_if(regions_.begin(), regions_.end(),
                   [&](const RegionInfo& r) { return r.lkey == handle.lkey; });
  util::require(it != regions_.end(), "deregister of unknown region");
  registered_bytes_ -= it->length;
  regions_.erase(it);
}

const RegionInfo* MemoryRegistry::find_lkey(std::uint32_t lkey) const noexcept {
  for (const RegionInfo& r : regions_) {
    if (r.lkey == lkey) return &r;
  }
  return nullptr;
}

bool MemoryRegistry::check_local(const std::byte* addr, std::size_t len,
                                 std::uint32_t lkey, Access needed) const {
  const RegionInfo* r = find_lkey(lkey);
  if (r == nullptr) return false;
  if (!has_access(r->access, needed)) return false;
  if (addr < r->base) return false;
  return static_cast<std::size_t>(addr - r->base) + len <= r->length;
}

std::optional<RegionInfo> MemoryRegistry::find_rkey(std::uint32_t rkey) const {
  for (const RegionInfo& r : regions_) {
    if (r.rkey == rkey) return r;
  }
  return std::nullopt;
}

bool MemoryRegistry::check_remote(const std::byte* addr, std::size_t len,
                                  std::uint32_t rkey, Access needed) const {
  const auto r = find_rkey(rkey);
  if (!r) return false;
  if (!has_access(r->access, needed)) return false;
  if (addr < r->base) return false;
  return static_cast<std::size_t>(addr - r->base) + len <= r->length;
}

}  // namespace mvflow::ib
