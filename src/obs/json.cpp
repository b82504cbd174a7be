#include "obs/json.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>

namespace mvflow::obs::json {

const Value* Value::find(std::string_view key) const noexcept {
  if (kind != Kind::object) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

/// Recursive-descent parser over a string_view cursor.
class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> run() {
    auto v = value();
    if (!v) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;  // trailing garbage
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  std::optional<std::string> string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return std::nullopt;
      const char esc = s_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // \uXXXX: decode the code unit; non-ASCII becomes '?' (the repo
          // never emits these, but a trace viewer might).
          if (pos_ + 4 > s_.size()) return std::nullopt;
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else return std::nullopt;
          }
          out.push_back(cp < 0x80 ? static_cast<char>(cp) : '?');
          break;
        }
        default: return std::nullopt;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Value> value() {
    skip_ws();
    if (pos_ >= s_.size()) return std::nullopt;
    const char c = s_[pos_];
    Value v;
    if (c == '{') {
      ++pos_;
      v.kind = Value::Kind::object;
      skip_ws();
      if (eat('}')) return v;
      for (;;) {
        skip_ws();
        auto key = string();
        if (!key || !eat(':')) return std::nullopt;
        auto member = value();
        if (!member) return std::nullopt;
        v.object.emplace_back(std::move(*key), std::move(*member));
        if (eat(',')) continue;
        if (eat('}')) return v;
        return std::nullopt;
      }
    }
    if (c == '[') {
      ++pos_;
      v.kind = Value::Kind::array;
      skip_ws();
      if (eat(']')) return v;
      for (;;) {
        auto elem = value();
        if (!elem) return std::nullopt;
        v.array.push_back(std::move(*elem));
        if (eat(',')) continue;
        if (eat(']')) return v;
        return std::nullopt;
      }
    }
    if (c == '"') {
      auto s = string();
      if (!s) return std::nullopt;
      v.kind = Value::Kind::string;
      v.string = std::move(*s);
      return v;
    }
    if (c == 't') {
      if (!literal("true")) return std::nullopt;
      v.kind = Value::Kind::boolean;
      v.boolean = true;
      return v;
    }
    if (c == 'f') {
      if (!literal("false")) return std::nullopt;
      v.kind = Value::Kind::boolean;
      return v;
    }
    if (c == 'n') {
      if (!literal("null")) return std::nullopt;
      return v;
    }
    // Number: delegate to strtod over the remaining slice.
    if (c == '-' || (c >= '0' && c <= '9')) {
      // strtod needs NUL-terminated input; the slice is short-lived.
      const std::string slice(s_.substr(pos_, 64));
      char* end = nullptr;
      const double d = std::strtod(slice.c_str(), &end);
      if (end == slice.c_str()) return std::nullopt;
      pos_ += static_cast<std::size_t>(end - slice.c_str());
      v.kind = Value::Kind::number;
      v.number = d;
      return v;
    }
    return std::nullopt;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) { return Parser(text).run(); }

std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

bool write_file(const std::string& path, std::string_view doc) {
  if (path == "-") {
    const bool ok =
        std::fwrite(doc.data(), 1, doc.size(), stdout) == doc.size();
    return std::fflush(stdout) == 0 && ok && std::ferror(stdout) == 0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace mvflow::obs::json
