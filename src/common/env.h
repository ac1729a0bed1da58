#pragma once

/// \file env.h
/// Parsing of the library's positive-integer environment settings
/// (RFP_THREADS, RFP_CACHE_MB, RFP_GEMM_NC). Each caller reads its
/// variable with std::getenv, passes the text here, and applies its own
/// default and clamp.

#include <cstddef>
#include <limits>
#include <optional>

namespace rfp::common {

/// \p text as a base-10 integer >= 1, or nullopt when it is null, empty,
/// signed ("+4", "-1"), has any non-digit character (whitespace
/// included), or is zero. Values past SIZE_MAX saturate there, so a
/// caller's upper clamp still applies. Unlike strtoul, "-1" does not wrap
/// to a huge value.
inline std::optional<std::size_t> parsePositiveEnv(const char* text) {
  if (text == nullptr || *text == '\0') return std::nullopt;
  constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
  std::size_t value = 0;
  for (const char* p = text; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return std::nullopt;
    const std::size_t digit = static_cast<std::size_t>(*p - '0');
    value = value > (kMax - digit) / 10 ? kMax : value * 10 + digit;
  }
  if (value == 0) return std::nullopt;
  return value;
}

}  // namespace rfp::common
