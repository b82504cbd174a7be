// Tiny leveled logger. Silent (Level::off) by default so the simulator's
// hot paths cost nothing unless tracing is explicitly enabled (e.g. the
// MVFLOW_LOG environment variable or Logger::set_level in tests).
#pragma once

#include <sstream>
#include <string>
#include <string_view>

namespace mvflow::util {

enum class LogLevel { off = 0, error = 1, warn = 2, info = 3, debug = 4, trace = 5 };

class Logger {
 public:
  /// Global log level; reads MVFLOW_LOG (off/error/warn/info/debug/trace)
  /// on first use.
  static LogLevel level();
  static void set_level(LogLevel lvl);

  static bool enabled(LogLevel lvl) { return lvl <= level(); }

  /// Emit one line to stderr, prefixed with the level and component tag —
  /// and, when a time source is active, the current simulated time, so
  /// MVFLOW_LOG output correlates with trace/metrics timestamps.
  static void write(LogLevel lvl, std::string_view component,
                    std::string_view message);

  /// Current-time callback returning nanoseconds; `ctx` identifies the
  /// owner (a sim::Engine registers itself on construction). Sources stack:
  /// the most recently pushed one wins, and pop removes by ctx so nested
  /// engine lifetimes unwind in any order. The stack is thread-local —
  /// concurrent simulations each see their own engine's clock, and a push
  /// is visible only on the pushing thread (rank fibers run on the thread
  /// dispatching their engine; a sharded world pushes each shard's engine
  /// on the thread running its window). Kept as a plain function pointer
  /// to avoid std::function overhead on a layer below everything else.
  using TimeSourceFn = long long (*)(const void* ctx);
  static void push_time_source(TimeSourceFn fn, const void* ctx);
  static void pop_time_source(const void* ctx);
};

/// Streaming helper: LogLine(LogLevel::debug, "ib") << "qp " << qpn;
class LogLine {
 public:
  LogLine(LogLevel lvl, std::string_view component)
      : lvl_(lvl), component_(component), live_(Logger::enabled(lvl)) {}
  ~LogLine() {
    if (live_) Logger::write(lvl_, component_, oss_.str());
  }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    if (live_) oss_ << v;
    return *this;
  }

 private:
  LogLevel lvl_;
  std::string component_;
  bool live_;
  std::ostringstream oss_;
};

}  // namespace mvflow::util
