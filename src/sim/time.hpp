// Simulated-time types. The whole simulator runs on integer nanoseconds so
// arithmetic is exact and runs are bit-reproducible.
#pragma once

#include <chrono>
#include <cstdint>

namespace mvflow::sim {

/// Durations and absolute times are both nanosecond counts; TimePoint is a
/// duration since simulation start (t = 0).
using Duration = std::chrono::nanoseconds;
using TimePoint = std::chrono::nanoseconds;

inline constexpr Duration nanoseconds(std::int64_t n) { return Duration(n); }
inline constexpr Duration microseconds(std::int64_t n) { return Duration(n * 1000); }
inline constexpr Duration milliseconds(std::int64_t n) { return Duration(n * 1000000); }
inline constexpr Duration seconds(std::int64_t n) { return Duration(n * 1000000000); }

inline constexpr double to_us(Duration d) {
  return static_cast<double>(d.count()) / 1e3;
}
inline constexpr double to_ms(Duration d) {
  return static_cast<double>(d.count()) / 1e6;
}
inline constexpr double to_s(Duration d) {
  return static_cast<double>(d.count()) / 1e9;
}

/// Duration needed to move `bytes` across a `bytes_per_second` pipe,
/// rounded up to a whole nanosecond so back-to-back packets never overlap.
inline Duration transfer_time(std::uint64_t bytes, double bytes_per_second) {
  const double ns = static_cast<double>(bytes) / bytes_per_second * 1e9;
  return Duration(static_cast<std::int64_t>(ns) + 1);
}

}  // namespace mvflow::sim
