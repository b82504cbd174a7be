// Error lines on stderr, for what a run reports without stopping on it: a
// malformed environment value, a failed export, a watchdog diagnosis.
#pragma once

#include <string_view>

namespace mvflow::util {

class Logger {
 public:
  /// Emit one line to stderr: "[ERROR]", then the current simulated time
  /// when a time source is active (so the line correlates with
  /// trace/metrics timestamps), then "component: message".
  static void error(std::string_view component, std::string_view message);

  /// Current-time callback returning nanoseconds; `ctx` identifies the
  /// owner (a sim::Engine registers itself on construction). Sources stack:
  /// the most recently pushed one wins, and pop removes by ctx so nested
  /// engine lifetimes unwind in any order. The stack is thread-local —
  /// concurrent simulations each see their own engine's clock, and a push
  /// is visible only on the pushing thread (rank fibers run on the thread
  /// dispatching their engine). Kept as a plain function pointer to avoid
  /// std::function overhead on a layer below everything else.
  using TimeSourceFn = long long (*)(const void* ctx);
  static void push_time_source(TimeSourceFn fn, const void* ctx);
  static void pop_time_source(const void* ctx);
};

}  // namespace mvflow::util
