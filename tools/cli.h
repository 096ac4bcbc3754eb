// Checked flag parsing shared by the command-line tools.
//
// ParseUint accepts only a whole unsigned decimal string: no sign, no
// whitespace, no trailing characters, no overflow of T, and a value inside
// [min, max]. Anything else prints "<tool>: <flag> ..." to stderr and exits
// with status 2, so a typo never runs with a silently substituted value
// ("abc" read as 0, "-5" wrapped to 2^64 - 5).
#ifndef FASTSAFE_TOOLS_CLI_H_
#define FASTSAFE_TOOLS_CLI_H_

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

#include "src/driver/protection.h"

namespace fsio::cli {

template <typename T = std::uint64_t>
T ParseUint(const char* tool, std::string_view flag, std::string_view text, T min = 0,
            T max = std::numeric_limits<T>::max()) {
  static_assert(std::is_unsigned_v<T>);
  T value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < min || value > max) {
    std::fprintf(stderr, "%s: %.*s expects a decimal integer in [%llu, %llu], got '%.*s'\n",
                 tool, static_cast<int>(flag.size()), flag.data(),
                 static_cast<unsigned long long>(min), static_cast<unsigned long long>(max),
                 static_cast<int>(text.size()), text.data());
    std::exit(2);
  }
  return value;
}

// "all" (every mode, kAllModes order) or a single ModeToken(). An unknown
// token prints a diagnostic naming the flag and exits with status 2.
inline std::vector<ProtectionMode> ParseModes(const char* tool, std::string_view flag,
                                              std::string_view text) {
  if (text == "all") {
    return {std::begin(kAllModes), std::end(kAllModes)};
  }
  ProtectionMode mode{};
  if (!ParseModeToken(text, &mode)) {
    std::fprintf(stderr, "%s: %.*s expects all or a mode token, got '%.*s'\n", tool,
                 static_cast<int>(flag.size()), flag.data(), static_cast<int>(text.size()),
                 text.data());
    std::exit(2);
  }
  return {mode};
}

}  // namespace fsio::cli

#endif  // FASTSAFE_TOOLS_CLI_H_
