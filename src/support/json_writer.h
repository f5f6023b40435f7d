// Minimal streaming JSON writer shared by the e2e benchmark's result file and
// the trace/metrics exporters.
//
// Comma placement and nesting are tracked by a container stack, so callers
// never hand-manage separators; strings are escaped per RFC 8259 (the
// hand-rolled emitters this replaces interpolated raw strings). Output is
// pretty-printed (two-space indent) by default — the benchmark's result
// JSON is read by humans in CI logs — or compact for large machine-only
// payloads like Chrome traces.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <string_view>
#include <vector>

namespace parcoach {

class JsonWriter {
public:
  explicit JsonWriter(std::ostream& os, bool pretty = true)
      : os_(os), pretty_(pretty) {}
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& begin_object() {
    begin_value();
    os_ << '{';
    stack_.push_back({});
    return *this;
  }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() {
    begin_value();
    os_ << '[';
    stack_.push_back({});
    return *this;
  }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(std::string_view k) {
    separate();
    write_string(k);
    os_ << (pretty_ ? ": " : ":");
    have_key_ = true;
    return *this;
  }

  JsonWriter& value(std::string_view v) {
    begin_value();
    write_string(v);
    return *this;
  }
  JsonWriter& value(const char* v) { return value(std::string_view(v)); }
  JsonWriter& value(bool v) {
    begin_value();
    os_ << (v ? "true" : "false");
    return *this;
  }
  JsonWriter& value(int64_t v) {
    begin_value();
    os_ << v;
    return *this;
  }
  JsonWriter& value(uint64_t v) {
    begin_value();
    os_ << v;
    return *this;
  }
  JsonWriter& value(int v) { return value(static_cast<int64_t>(v)); }
  JsonWriter& value(unsigned v) { return value(static_cast<uint64_t>(v)); }

  /// `fixed_precision` >= 0 renders std::fixed with that many decimals; -1
  /// uses the default float format.
  /// Non-finite values render as 0 — JSON has no NaN/Infinity.
  JsonWriter& value(double v, int fixed_precision = -1) {
    begin_value();
    if (!std::isfinite(v)) {
      os_ << 0;
      return *this;
    }
    std::ostringstream tmp; // isolates formatting state from the sink stream
    if (fixed_precision >= 0)
      tmp << std::fixed << std::setprecision(fixed_precision);
    tmp << v;
    os_ << tmp.str();
    return *this;
  }

  template <typename T>
  JsonWriter& kv(std::string_view k, T&& v) {
    key(k);
    return value(std::forward<T>(v));
  }
  JsonWriter& kv(std::string_view k, double v, int fixed_precision) {
    key(k);
    return value(v, fixed_precision);
  }

private:
  struct Level {
    size_t count = 0;
  };

  /// Comma/newline before a new element; keys and array values share it.
  void separate() {
    if (stack_.empty()) return;
    if (stack_.back().count++ > 0) os_ << ',';
    if (pretty_) {
      os_ << '\n';
      indent(stack_.size());
    }
  }

  void begin_value() {
    if (have_key_) {
      have_key_ = false;
      return; // value follows its key inline
    }
    separate();
  }

  JsonWriter& close(char bracket) {
    const Level level = stack_.back();
    stack_.pop_back();
    if (pretty_ && level.count > 0) {
      os_ << '\n';
      indent(stack_.size());
    }
    os_ << bracket;
    return *this;
  }

  void indent(size_t depth) {
    for (size_t i = 0; i < 2 * depth; ++i) os_ << ' ';
  }

  void write_string(std::string_view s) {
    os_ << '"';
    for (char ch : s) {
      const auto u = static_cast<unsigned char>(ch);
      switch (ch) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\b': os_ << "\\b"; break;
        case '\f': os_ << "\\f"; break;
        case '\n': os_ << "\\n"; break;
        case '\r': os_ << "\\r"; break;
        case '\t': os_ << "\\t"; break;
        default:
          if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", u);
            os_ << buf;
          } else {
            os_ << ch;
          }
      }
    }
    os_ << '"';
  }

  std::ostream& os_;
  const bool pretty_;
  std::vector<Level> stack_;
  bool have_key_ = false;
};

} // namespace parcoach
