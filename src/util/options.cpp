#include "util/options.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string_view>

namespace mvflow::util {

namespace {

[[noreturn]] void reject(const std::string& key, const std::string& value,
                         const char* expected) {
  const std::string dashes = key.size() == 1 ? "-" : "--";  // "-j four"
  throw std::invalid_argument("option " + dashes + key + ": '" + value +
                              "' is not " + expected);
}

}  // namespace

Options::Options(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      arg.remove_prefix(2);
      const auto eq = arg.find('=');
      if (eq == std::string_view::npos) {
        kv_.emplace(std::string(arg), "true");
      } else {
        kv_.emplace(std::string(arg.substr(0, eq)), std::string(arg.substr(eq + 1)));
      }
    } else if (arg.size() >= 2 && arg[0] == '-' &&
               std::isalpha(static_cast<unsigned char>(arg[1]))) {
      // Short option: -j4, -j=4, -j 4, or bare -j ("true"). The key is the
      // single letter; an alpha check keeps negative-number positionals
      // (e.g. "-5") out of this branch.
      const std::string key(1, arg[1]);
      std::string_view rest = arg.substr(2);
      if (!rest.empty() && rest.front() == '=') rest.remove_prefix(1);
      if (!rest.empty()) {
        kv_.emplace(key, std::string(rest));
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        kv_.emplace(key, argv[++i]);
      } else {
        kv_.emplace(key, "true");
      }
    } else {
      positional_.emplace_back(arg);
    }
  }
}

std::optional<std::string> Options::get(const std::string& key) const {
  used_[key] = true;
  const auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string Options::get_or(const std::string& key, const std::string& fallback) const {
  return get(key).value_or(fallback);
}

std::int64_t Options::get_int(const std::string& key, std::int64_t fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(v->c_str(), &end, 10);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE)
    reject(key, *v, "an integer");
  return n;
}

double Options::get_double(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double x = std::strtod(v->c_str(), &end);
  if (end == v->c_str() || *end != '\0' || errno == ERANGE)
    reject(key, *v, "a number");
  return x;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  const auto v = get(key);
  if (!v) return fallback;
  if (*v == "true" || *v == "1" || *v == "yes" || *v == "on") return true;
  if (*v == "false" || *v == "0" || *v == "no" || *v == "off") return false;
  reject(key, *v, "a boolean (true/false, 1/0, yes/no, on/off)");
}

std::vector<std::string> Options::unused() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : kv_) {
    (void)v;
    if (!used_.count(k)) out.push_back(k);
  }
  return out;
}

int run_main(int argc, const char* const* argv, int (*body)(const Options&)) {
  try {
    return body(Options(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace mvflow::util
