// Error lines on stderr, for what a run reports without stopping on it: a
// malformed environment value, a failed export, a watchdog diagnosis.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace mvflow::util {

class Logger {
 public:
  /// Emit one line to stderr: "[ERROR]", then the simulated time `now_ns`
  /// when the caller has one (a world passes its engine's clock, so the
  /// line correlates with trace/metrics timestamps), then
  /// "component: message".
  static void error(std::string_view component, std::string_view message,
                    std::optional<std::int64_t> now_ns = std::nullopt);
};

}  // namespace mvflow::util
