// Small string utilities shared across the project.
#pragma once

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace parcoach::str {

[[nodiscard]] std::vector<std::string> split_lines(std::string_view text);

/// join({"a","b"}, ", ") == "a, b"
template <typename Range>
[[nodiscard]] std::string join(const Range& parts, std::string_view sep) {
  std::ostringstream os;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) os << sep;
    os << p;
    first = false;
  }
  return os.str();
}

/// Streams all arguments into one string: cat("x=", 3) == "x=3".
template <typename... Ts>
[[nodiscard]] std::string cat(Ts&&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

/// Appends the decimal spelling of `v` to `out`, as `os << v` would.
inline void append_int(std::string& out, int64_t v) {
  char buf[20]; // "-9223372036854775808"
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix) noexcept;
[[nodiscard]] bool contains(std::string_view s, std::string_view needle) noexcept;

/// Counts non-empty, non-comment lines (used for workload LoC reporting).
[[nodiscard]] size_t count_code_lines(std::string_view text);

} // namespace parcoach::str
