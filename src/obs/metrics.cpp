#include "obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

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

namespace {

/// Find-or-create in a Named<T> vector (registration is rare and the lists
/// are short; no map needed).
template <typename Vec, typename Make>
auto& find_or_create(Vec& vec, const std::string& name, Make&& make) {
  for (auto& e : vec) {
    if (e.name == name) return *e.value;
  }
  vec.push_back({name, make()});
  return *vec.back().value;
}

}  // namespace

std::uint64_t& MetricsRegistry::counter(const std::string& name) {
  return find_or_create(counters_, name,
                        [] { return std::make_unique<std::uint64_t>(0); });
}

double& MetricsRegistry::gauge(const std::string& name) {
  return find_or_create(gauges_, name,
                        [] { return std::make_unique<double>(0.0); });
}

util::RunningStats& MetricsRegistry::running_stats(const std::string& name) {
  return find_or_create(stats_, name,
                        [] { return std::make_unique<util::RunningStats>(); });
}

util::Histogram& MetricsRegistry::histogram(const std::string& name, double lo,
                                            double hi, std::size_t buckets) {
  return find_or_create(histograms_, name, [&] {
    return std::make_unique<util::Histogram>(lo, hi, buckets);
  });
}

std::uint64_t MetricsRegistry::add_source(std::string prefix, SourceFn fn) {
  const std::uint64_t id = next_source_id_++;
  sources_.push_back(Source{id, std::move(prefix), std::move(fn)});
  return id;
}

void MetricsRegistry::remove_source(std::uint64_t id) {
  sources_.erase(std::remove_if(sources_.begin(), sources_.end(),
                                [id](const Source& s) { return s.id == id; }),
                 sources_.end());
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  for (const auto& c : counters_)
    out.values.emplace_back(c.name, static_cast<double>(*c.value));
  for (const auto& g : gauges_) out.values.emplace_back(g.name, *g.value);
  const auto push = [&out](std::string name, double v) {
    out.values.emplace_back(std::move(name), v);
  };
  for (const auto& s : stats_) emit_running_stats(s.name, *s.value, push);
  for (const auto& h : histograms_) emit_histogram(h.name, *h.value, push);
  for (const auto& src : sources_) {
    const EmitFn emit = [&out, &src](std::string_view name, double v) {
      out.values.emplace_back(src.prefix + std::string(name), v);
    };
    src.fn(emit);
  }
  return out;
}

}  // namespace mvflow::obs
