#include "util/log.hpp"

#include <cstdio>

namespace mvflow::util {

namespace {

/// Human-readable simulated time ("12.345us").
void format_ns(char* buf, std::size_t n, long long ns) {
  const double t = static_cast<double>(ns);
  if (ns < 1'000) std::snprintf(buf, n, "%lldns", ns);
  else if (ns < 1'000'000) std::snprintf(buf, n, "%.3fus", t / 1e3);
  else if (ns < 1'000'000'000) std::snprintf(buf, n, "%.3fms", t / 1e6);
  else std::snprintf(buf, n, "%.3fs", t / 1e9);
}

}  // namespace

void Logger::error(std::string_view component, std::string_view message,
                   std::optional<std::int64_t> now_ns) {
  // Format the whole line first and emit it with a single stdio call:
  // stdio locks the stream per call, so concurrent writers interleave only
  // at line granularity, never mid-line.
  char line[1024];
  int n;
  if (now_ns) {
    char ts[32];
    format_ns(ts, sizeof ts, *now_ns);
    n = std::snprintf(line, sizeof line, "[ERROR] [%s] %.*s: %.*s\n", ts,
                      static_cast<int>(component.size()), component.data(),
                      static_cast<int>(message.size()), message.data());
  } else {
    n = std::snprintf(line, sizeof line, "[ERROR] %.*s: %.*s\n",
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

}  // namespace mvflow::util
