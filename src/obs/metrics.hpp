// Unified metrics registry (DESIGN.md §11).
//
// Every layer of the stack keeps scalar counters (flowctl::Counters,
// FabricStats, DeviceStats, MessageDataPool::Stats, EnginePerfStats, ...).
// Before this layer existed each bench hand-aggregated the structs it knew
// about; the registry inverts that: components register *sources* (a prefix
// plus a callback that enumerates name/value pairs at snapshot time), and
// one snapshot() walks them all and serializes to a single flat JSON
// document — `MVFLOW_METRICS=out.json` on any World-based program. Every
// value stays in the component that changes it; the registry keeps none.
//
// Snapshots are flat (dotted names, double values) on purpose: they diff
// trivially across runs, round-trip through JSON bit-exactly (%.17g), and
// need no schema negotiation between writer and reader.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mvflow::obs {

/// One flattened metrics capture: insertion-ordered (name, value) pairs.
struct Snapshot {
  std::vector<std::pair<std::string, double>> values;

  bool has(std::string_view name) const noexcept;
  double get(std::string_view name, double fallback = 0.0) const noexcept;
  /// Sum of every entry whose name ends with `suffix` — aggregates
  /// per-connection/per-rank metrics without knowing the topology.
  double sum_suffix(std::string_view suffix) const noexcept;
  /// Number of entries whose name ends with `suffix`.
  std::size_t count_suffix(std::string_view suffix) const noexcept;

  /// `{"schema": "mvflow.metrics.v1", "metrics": {name: value, ...}}`.
  std::string to_json() const;
  /// Inverse of to_json (accepts any document with a flat numeric
  /// "metrics" object). Values round-trip bit-exactly.
  static std::optional<Snapshot> from_json(std::string_view text);
  /// Write to_json() to `path`; "-" writes to stdout (pipeline use).
  bool write_json(const std::string& path) const;
};

class MetricsRegistry {
 public:
  /// Snapshot-time sink: receives one fully-qualified (name, value) pair.
  using EmitFn = std::function<void(std::string_view, double)>;
  /// A live source enumerates its current values into the sink. Runs only
  /// at snapshot time — registering a source costs nothing per event.
  using SourceFn = std::function<void(const EmitFn&)>;

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register a live source (component-owned state, read at snapshot
  /// time). The callback's emitted names are prefixed with `prefix`; the
  /// source must stay valid until the registry dies.
  void add_source(std::string prefix, SourceFn fn);

  /// Flatten every source, in registration order, into one capture.
  /// ($MVFLOW_METRICS export goes through exp::RunConfig — the registry
  /// itself never reads the environment.)
  Snapshot snapshot() const;

 private:
  struct Source {
    std::string prefix;
    SourceFn fn;
  };

  std::vector<Source> sources_;
};

}  // namespace mvflow::obs
