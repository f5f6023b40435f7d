// Two's-complement wrapping integer arithmetic: the one definition of what
// an int64_t sum or product means when it leaves the representable range.
// Plain signed overflow is undefined behaviour; these wrap modulo 2^64
// instead (the unsigned arithmetic is defined, and C++20 defines the
// conversion back to int64_t as modular).
#pragma once

#include <cstdint>

namespace parcoach {

[[nodiscard]] constexpr int64_t wrap_add(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) +
                              static_cast<uint64_t>(b));
}

[[nodiscard]] constexpr int64_t wrap_mul(int64_t a, int64_t b) noexcept {
  return static_cast<int64_t>(static_cast<uint64_t>(a) *
                              static_cast<uint64_t>(b));
}

} // namespace parcoach
