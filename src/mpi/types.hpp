// Basic MPI-facing types for the mvflow mini-MPI.
#pragma once

#include <cstdint>

namespace mvflow::mpi {

using Rank = int;
using Tag = int;

/// Wildcards (match MPI semantics: any user tag must be >= 0; tags below
/// kMinInternalTag are reserved for collectives).
inline constexpr Rank kAnySource = -1;
inline constexpr Tag kAnyTag = -1;
inline constexpr Tag kMinUserTag = 0;
inline constexpr Tag kFirstInternalTag = -10;  // internal tags go downward

/// Completion information for a receive.
struct Status {
  Rank source = kAnySource;
  Tag tag = kAnyTag;
  std::uint32_t bytes = 0;
};

}  // namespace mvflow::mpi
