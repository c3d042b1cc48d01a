#ifndef MAD_UTIL_STRING_UTIL_H_
#define MAD_UTIL_STRING_UTIL_H_

#include <charconv>
#include <sstream>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace mad {

/// Joins `parts` with `sep` ("a", "b" -> "a, b" for sep ", ").
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Formats a double compactly: integers print without a trailing ".0",
/// infinities print as "inf"/"-inf".
std::string FormatDouble(double v);

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Parses all of `text` as a T (an integer type, or double), base 10.
/// Returns false, leaving `*out` alone, on empty input, trailing characters,
/// or a value outside T's range. The CLIs' numeric flags go through it, so a
/// bad value is a usage error.
template <typename T>
bool ParseNumber(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace mad

#endif  // MAD_UTIL_STRING_UTIL_H_
