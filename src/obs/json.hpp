// Minimal JSON reader for the observability layer's round-trip tests and
// tools: parses the documents this repo *writes* (metrics snapshots, Chrome
// traces, BENCH_*.json) back into a navigable value tree. Hand-rolled so the
// repo stays dependency-free; not a general-purpose validating parser, but
// strict enough that a malformed export fails the parse instead of passing
// silently.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mvflow::obs::json {

class Value {
 public:
  enum class Kind { null, boolean, number, string, array, object };

  Kind kind = Kind::null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  /// Insertion-ordered, so a parsed document compares field-for-field with
  /// the writer's emission order.
  std::vector<std::pair<std::string, Value>> object;

  bool is_null() const noexcept { return kind == Kind::null; }
  bool is_object() const noexcept { return kind == Kind::object; }
  bool is_array() const noexcept { return kind == Kind::array; }
  bool is_number() const noexcept { return kind == Kind::number; }
  bool is_string() const noexcept { return kind == Kind::string; }

  /// Object member lookup; nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;
};

/// Parse a complete JSON document. Returns nullopt on any syntax error or
/// trailing garbage.
std::optional<Value> parse(std::string_view text);

/// Escape a string for embedding in emitted JSON (quotes not included).
std::string escape(std::string_view s);

/// Write a finished document to `path`; "-" writes to stdout. False when
/// the file cannot be opened or when the write, the close or the flush of
/// stdout fails (a full disk surfaces only at the close).
bool write_file(const std::string& path, std::string_view doc);

}  // namespace mvflow::obs::json
