// 64-bit FNV-1a, the tests' fingerprint for pinned tables and documents.
// Standard parameters (offset basis 14695981039346656037, prime
// 1099511628211), so any other FNV-1a implementation reproduces a pin.
#pragma once

#include <cstdint>
#include <string_view>

namespace mvflow::test {

inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace mvflow::test
