#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <vector>

namespace mvflow::util {

namespace {

LogLevel parse_level(const char* s) {
  if (!s) return LogLevel::off;
  if (std::strcmp(s, "error") == 0) return LogLevel::error;
  if (std::strcmp(s, "warn") == 0) return LogLevel::warn;
  if (std::strcmp(s, "info") == 0) return LogLevel::info;
  if (std::strcmp(s, "debug") == 0) return LogLevel::debug;
  if (std::strcmp(s, "trace") == 0) return LogLevel::trace;
  return LogLevel::off;
}

const char* level_name(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::error: return "ERROR";
    case LogLevel::warn: return "WARN";
    case LogLevel::info: return "INFO";
    case LogLevel::debug: return "DEBUG";
    case LogLevel::trace: return "TRACE";
    default: return "OFF";
  }
}

// Atomic because the level is read from every thread running a simulation
// while tests (or a main thread configuring a sweep) may set it.
std::atomic<LogLevel>& level_storage() {
  static std::atomic<LogLevel> lvl = parse_level(std::getenv("MVFLOW_LOG"));
  return lvl;
}

struct TimeSource {
  Logger::TimeSourceFn fn = nullptr;
  const void* ctx = nullptr;
};

// Thread-local: each experiment thread sees only the time sources pushed
// on that thread, so concurrent engines never observe each other's clocks.
// A sim::Engine registers on its constructing thread, and rank fibers log
// through whichever thread is running them.
std::vector<TimeSource>& time_sources() {
  thread_local std::vector<TimeSource> sources;
  return sources;
}

/// Human-readable simulated time, mirroring sim::format_time ("12.345us");
/// duplicated locally because util sits below the sim layer.
void format_ns(char* buf, std::size_t n, long long ns) {
  const double t = static_cast<double>(ns);
  if (ns < 1'000) std::snprintf(buf, n, "%lldns", ns);
  else if (ns < 1'000'000) std::snprintf(buf, n, "%.3fus", t / 1e3);
  else if (ns < 1'000'000'000) std::snprintf(buf, n, "%.3fms", t / 1e6);
  else std::snprintf(buf, n, "%.3fs", t / 1e9);
}

}  // namespace

LogLevel Logger::level() {
  return level_storage().load(std::memory_order_relaxed);
}

void Logger::set_level(LogLevel lvl) {
  level_storage().store(lvl, std::memory_order_relaxed);
}

void Logger::write(LogLevel lvl, std::string_view component,
                   std::string_view message) {
  // Format the whole line first and emit it with a single stdio call:
  // stdio locks the stream per call, so concurrent writers interleave only
  // at line granularity, never mid-line.
  char line[1024];
  int n;
  const auto& sources = time_sources();
  if (!sources.empty()) {
    char ts[32];
    format_ns(ts, sizeof ts, sources.back().fn(sources.back().ctx));
    n = std::snprintf(line, sizeof line, "[%s] [%s] %.*s: %.*s\n",
                      level_name(lvl), ts,
                      static_cast<int>(component.size()), component.data(),
                      static_cast<int>(message.size()), message.data());
  } else {
    n = std::snprintf(line, sizeof line, "[%s] %.*s: %.*s\n", level_name(lvl),
                      static_cast<int>(component.size()), component.data(),
                      static_cast<int>(message.size()), message.data());
  }
  if (n <= 0) return;
  if (static_cast<std::size_t>(n) >= sizeof line) {
    // Truncated: keep the line shape (terminate with a newline) so the
    // atomicity guarantee holds even for oversized messages.
    line[sizeof line - 2] = '\n';
    n = static_cast<int>(sizeof line) - 1;
  }
  std::fwrite(line, 1, static_cast<std::size_t>(n), stderr);
}

void Logger::push_time_source(TimeSourceFn fn, const void* ctx) {
  time_sources().push_back(TimeSource{fn, ctx});
}

void Logger::pop_time_source(const void* ctx) {
  auto& sources = time_sources();
  for (auto it = sources.rbegin(); it != sources.rend(); ++it) {
    if (it->ctx == ctx) {
      sources.erase(std::next(it).base());
      return;
    }
  }
}

}  // namespace mvflow::util
