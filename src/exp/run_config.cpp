#include "exp/run_config.hpp"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <iterator>
#include <string_view>
#include <system_error>

#include "util/log.hpp"

namespace mvflow::exp {

namespace {

/// The variables from_env reads; any other set MVFLOW_* is reported.
constexpr std::string_view kVariables[] = {
    "MVFLOW_METRICS", "MVFLOW_TRACE", "MVFLOW_TRACE_CSV",
    "MVFLOW_PROF",    "MVFLOW_AUDIT", "MVFLOW_WATCHDOG_US"};

std::string env_or_empty(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::string(v) : std::string();
}

/// One error line for a variable whose value does not parse in full; the
/// caller then treats the variable as unset.
void report_malformed(const char* name, const std::string& value) {
  util::Logger::error("env", std::string(name) + "=" + value +
                                 " is malformed; treated as unset");
}

/// One error line per set MVFLOW_* variable that is not in kVariables: a
/// misspelt or retired name would otherwise change nothing, silently.
void report_unread() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv = *e;
    if (kv.rfind("MVFLOW_", 0) != 0) continue;
    const std::string_view name = kv.substr(0, kv.find('='));
    if (std::find(std::begin(kVariables), std::end(kVariables), name) ==
        std::end(kVariables)) {
      util::Logger::error("env", std::string(kv) + " is not read; ignored");
    }
  }
}

/// A non-negative decimal count; unset, empty or malformed reads as 0.
std::uint64_t env_count(const char* name) {
  const std::string s = env_or_empty(name);
  if (s.empty()) return 0;
  std::uint64_t v = 0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (ec == std::errc{} && end == last) return v;
  report_malformed(name, s);
  return 0;
}

}  // namespace

RunConfig RunConfig::from_env() {
  RunConfig cfg;
  cfg.metrics_path = env_or_empty("MVFLOW_METRICS");
  cfg.trace_path = env_or_empty("MVFLOW_TRACE");
  cfg.trace_csv_path = env_or_empty("MVFLOW_TRACE_CSV");
  cfg.prof_path = env_or_empty("MVFLOW_PROF");
  const std::string audit = env_or_empty("MVFLOW_AUDIT");
  cfg.audit = !audit.empty() && audit != "0";
  cfg.watchdog_horizon_us =
      static_cast<std::int64_t>(env_count("MVFLOW_WATCHDOG_US"));
  report_unread();
  return cfg;
}

const RunConfig& RunConfig::process() {
  // Thread-safe one-time capture (magic static): the first World or runner
  // to ask pins the snapshot for the process lifetime.
  static const RunConfig snapshot = from_env();
  return snapshot;
}

RunConfig RunConfig::quiet() const {
  // The auditor and watchdog stay armed: they are checks, not exports.
  RunConfig cfg = *this;
  cfg.metrics_path.clear();
  cfg.trace_path.clear();
  cfg.trace_csv_path.clear();
  cfg.prof_path.clear();
  return cfg;
}

}  // namespace mvflow::exp
