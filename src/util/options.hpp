// Minimal --key=value command-line option parsing for the bench binaries
// and examples. Keeps the harnesses dependency-free.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace mvflow::util {

/// Parses argv of the form: prog --key=value --flag -x4 -x val positional ...
/// A bare "--flag" (or "-x" with no value) is stored with value "true";
/// short options use the single letter as the key ("-j8" == "--j=8").
/// A typed getter throws std::invalid_argument, naming the option and its
/// value, unless the whole value parses as that type: "--reps=1O" is an
/// error, not 1, and "--ondemand=ture" is an error, not false.
class Options {
 public:
  Options(int argc, const char* const* argv);

  std::optional<std::string> get(const std::string& key) const;
  std::string get_or(const std::string& key, const std::string& fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;
  double get_double(const std::string& key, double fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Keys that were supplied but never queried (catches typos in scripts).
  std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> kv_;
  mutable std::map<std::string, bool> used_;
  std::vector<std::string> positional_;
};

/// A program's main, guarded: parses argv into Options and returns
/// body(options). An exception escaping either — a malformed option value,
/// say — prints "error: <what>" on stderr and returns 1, where it would
/// otherwise end the program in std::terminate.
int run_main(int argc, const char* const* argv, int (*body)(const Options&));

}  // namespace mvflow::util
