#include "exp/run_config.hpp"

#include <charconv>
#include <cstdlib>
#include <system_error>

#include "util/log.hpp"

namespace mvflow::exp {

namespace {

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

bool RunConfig::parse_checkpoint(const std::string& request) {
  checkpoint_path.clear();
  checkpoint_events.clear();
  const std::size_t at = request.rfind('@');
  if (at == std::string::npos || at == 0 || at + 1 == request.size())
    return false;
  std::vector<std::uint64_t> events;
  const std::string list = request.substr(at + 1);
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    const std::string tok = list.substr(pos, comma - pos);
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (tok.empty() || end == nullptr || *end != '\0') return false;
    events.push_back(static_cast<std::uint64_t>(v));
    pos = comma + 1;
  }
  checkpoint_path = request.substr(0, at);
  checkpoint_events = std::move(events);
  return true;
}

RunConfig RunConfig::from_env() {
  RunConfig cfg;
  cfg.metrics_path = env_or_empty("MVFLOW_METRICS");
  cfg.trace_path = env_or_empty("MVFLOW_TRACE");
  cfg.trace_csv_path = env_or_empty("MVFLOW_TRACE_CSV");
  cfg.trace_capacity =
      static_cast<std::size_t>(env_count("MVFLOW_TRACE_CAPACITY"));
  cfg.prof_path = env_or_empty("MVFLOW_PROF");
  const std::string ck = env_or_empty("MVFLOW_CHECKPOINT");
  if (!ck.empty() && !cfg.parse_checkpoint(ck))
    report_malformed("MVFLOW_CHECKPOINT", ck);
  const std::string audit = env_or_empty("MVFLOW_AUDIT");
  cfg.audit = !audit.empty() && audit != "0";
  cfg.watchdog_horizon_us =
      static_cast<std::int64_t>(env_count("MVFLOW_WATCHDOG_US"));
  cfg.watchdog_dump_path = env_or_empty("MVFLOW_WATCHDOG_DUMP");
  cfg.watchdog_ckpt_path = env_or_empty("MVFLOW_WATCHDOG_CKPT");
  return cfg;
}

const RunConfig& RunConfig::process() {
  // Thread-safe one-time capture (magic static): the first World or runner
  // to ask pins the snapshot for the process lifetime.
  static const RunConfig snapshot = from_env();
  return snapshot;
}

RunConfig RunConfig::quiet() const {
  RunConfig cfg = *this;
  cfg.metrics_path.clear();
  cfg.trace_path.clear();
  cfg.trace_csv_path.clear();
  cfg.prof_path.clear();
  cfg.checkpoint_path.clear();
  cfg.checkpoint_events.clear();
  // The auditor and watchdog stay armed (they are checks, not exports);
  // only their file artifacts are silenced for parallel jobs.
  cfg.watchdog_dump_path.clear();
  cfg.watchdog_ckpt_path.clear();
  return cfg;
}

}  // namespace mvflow::exp
