#include "obs/metrics.hpp"

#include <cstdio>

#include "obs/json.hpp"

namespace mvflow::obs {

namespace {

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

}  // namespace

bool Snapshot::has(std::string_view name) const noexcept {
  for (const auto& [k, v] : values) {
    (void)v;
    if (k == name) return true;
  }
  return false;
}

double Snapshot::get(std::string_view name, double fallback) const noexcept {
  for (const auto& [k, v] : values) {
    if (k == name) return v;
  }
  return fallback;
}

double Snapshot::sum_suffix(std::string_view suffix) const noexcept {
  double sum = 0.0;
  for (const auto& [k, v] : values) {
    if (ends_with(k, suffix)) sum += v;
  }
  return sum;
}

std::size_t Snapshot::count_suffix(std::string_view suffix) const noexcept {
  std::size_t n = 0;
  for (const auto& [k, v] : values) {
    (void)v;
    if (ends_with(k, suffix)) ++n;
  }
  return n;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"schema\": \"mvflow.metrics.v1\",\n  \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < values.size(); ++i) {
    // %.17g survives a strtod round trip bit-exactly for every double.
    std::snprintf(buf, sizeof buf, "%.17g", values[i].second);
    out += i == 0 ? "\n" : ",\n";
    out += "    \"";
    out += json::escape(values[i].first);
    out += "\": ";
    out += buf;
  }
  out += "\n  }\n}\n";
  return out;
}

std::optional<Snapshot> Snapshot::from_json(std::string_view text) {
  const auto doc = json::parse(text);
  if (!doc || !doc->is_object()) return std::nullopt;
  const json::Value* metrics = doc->find("metrics");
  if (metrics == nullptr || !metrics->is_object()) return std::nullopt;
  Snapshot out;
  out.values.reserve(metrics->object.size());
  for (const auto& [name, v] : metrics->object) {
    if (!v.is_number()) return std::nullopt;
    out.values.emplace_back(name, v.number);
  }
  return out;
}

bool Snapshot::write_json(const std::string& path) const {
  // "-" is pipeline use (MVFLOW_METRICS=-): a consumer like mvflow_prof
  // reads the snapshot from stdout without a temp file.
  return json::write_file(path, to_json());
}

void MetricsRegistry::add_source(std::string prefix, SourceFn fn) {
  sources_.push_back(Source{std::move(prefix), std::move(fn)});
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  for (const auto& src : sources_) {
    const EmitFn emit = [&out, &src](std::string_view name, double v) {
      out.values.emplace_back(src.prefix + std::string(name), v);
    };
    src.fn(emit);
  }
  return out;
}

}  // namespace mvflow::obs
