// Memory registration: the verbs requirement that every buffer used for
// communication is pinned and named by (lkey, rkey) before use. The
// registry enforces bounds and access rights exactly where a real HCA
// would (lkey at the local QP, rkey at the RDMA responder).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "ib/types.hpp"

namespace mvflow::ib {

struct RegionInfo {
  std::byte* base = nullptr;
  std::size_t length = 0;
  Access access = Access::none;
  std::uint32_t lkey = 0;
  std::uint32_t rkey = 0;
};

class MemoryRegistry {
 public:
  /// Register [data, data+len) with the given rights. Returns keys.
  MemoryRegionHandle register_region(std::span<std::byte> region, Access access);

  /// Invalidate a registration; later key lookups fail.
  void deregister(MemoryRegionHandle handle);

  /// Validate a local access (post_send source / post_recv destination).
  bool check_local(const std::byte* addr, std::size_t len, std::uint32_t lkey,
                   Access needed) const;

  /// Look up a region by rkey for a remote (RDMA) access; nullopt if the
  /// key is unknown or was deregistered.
  std::optional<RegionInfo> find_rkey(std::uint32_t rkey) const;

  /// Validate a remote access against an rkey.
  bool check_remote(const std::byte* addr, std::size_t len, std::uint32_t rkey,
                    Access needed) const;

  std::size_t region_count() const noexcept { return regions_.size(); }
  std::size_t registered_bytes() const noexcept { return registered_bytes_; }

 private:
  const RegionInfo* find_lkey(std::uint32_t lkey) const noexcept;

  // An HCA registers a handful of regions, so key lookup — which is on the
  // per-WQE hot path (every post_send/post_recv validates) — is a linear
  // scan of one flat array, not a tree walk.
  std::vector<RegionInfo> regions_;
  std::uint32_t next_key_ = 1;
  std::size_t registered_bytes_ = 0;
};

}  // namespace mvflow::ib
