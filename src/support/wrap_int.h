// Two's-complement integer arithmetic: the one definition of what an int64_t
// sum, difference, product, negation, quotient or remainder means when the
// exact result leaves the representable range. Plain signed overflow is
// undefined behaviour (and INT64_MIN / -1 traps on x86); here
//   - + - * and unary - wrap modulo 2^64 (the unsigned arithmetic is
//     defined, and C++20 defines the conversion back to int64_t as modular);
//   - a quotient is undefined for b == 0 and for INT64_MIN / -1, whose exact
//     value 2^63 does not fit: checked_div returns nullopt for both, and
//     callers treat that as a fault (or, folding constants, leave it alone);
//   - a remainder is undefined only for b == 0; x % -1 is 0 for every x.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

namespace parcoach {

[[nodiscard]] constexpr int64_t wrap_add(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

[[nodiscard]] constexpr int64_t wrap_sub(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) -
                              static_cast<uint64_t>(b));
}

[[nodiscard]] constexpr int64_t wrap_mul(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

[[nodiscard]] constexpr int64_t wrap_neg(int64_t a) noexcept {
  return static_cast<int64_t>(0 - static_cast<uint64_t>(a));
}

[[nodiscard]] constexpr std::optional<int64_t> checked_div(int64_t a,
                                                           int64_t b) noexcept {
  if (b == 0) return std::nullopt;
  if (b == -1 && a == std::numeric_limits<int64_t>::min()) return std::nullopt;
  return a / b;
}

[[nodiscard]] constexpr std::optional<int64_t> checked_rem(int64_t a,
                                                           int64_t b) noexcept {
  if (b == 0) return std::nullopt;
  if (b == -1) return 0;
  return a % b;
}

} // namespace parcoach
