// Input validation that survives Release builds.
//
// Constructors across the library used to guard their inputs with bare
// `assert`, which compiles out under NDEBUG and silently accepts invalid
// configs. `rpv::validate` throws std::invalid_argument with a readable
// message instead, so a bad Scenario/SessionConfig fails loudly at setup
// time rather than corrupting a multi-minute simulation.
#pragma once

#include <charconv>
#include <cstdint>
#include <stdexcept>
#include <string>

namespace rpv {

inline void validate(bool condition, const std::string& message) {
  if (!condition) throw std::invalid_argument(message);
}

// String-literal messages bind here rather than to a temporary std::string,
// so a passing check on a per-packet path costs a branch, not an
// allocation.
inline void validate(bool condition, const char* message) {
  if (!condition) throw std::invalid_argument(message);
}

// Parses the whole of `text` as a base-10 integer in [lo, hi], for CLI
// values like `--runs 3`. Throws std::invalid_argument naming `name` on
// anything else: trailing junk ("3x"), an empty string, a value that does
// not fit in 64 bits, or one outside the range — so "--seed -5" is rejected
// instead of wrapping to 18446744073709551611, and "--runs 4294967297" is
// rejected instead of truncating to 1 in an int.
[[nodiscard]] inline std::int64_t parse_int(const std::string& name,
                                            const std::string& text,
                                            std::int64_t lo, std::int64_t hi) {
  std::int64_t value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  validate(ec == std::errc{} && ptr == end && !text.empty(),
           "bad value for " + name + ": '" + text + "'");
  validate(value >= lo && value <= hi,
           name + " must be in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "] (got " + text + ")");
  return value;
}

}  // namespace rpv
