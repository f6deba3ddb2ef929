#pragma once
// ccaperf::env_* — the one reader of the process environment.
//
// Every runtime knob (README "Runtime knobs") is read through these
// helpers at the call site that uses it, on every call: nothing is cached,
// so a test may set a variable between cases. Unset and empty both mean
// "not given" (nullopt). Text that does not parse raises a ccaperf::Error
// that names the knob, instead of silently reading as 0.

#include <charconv>
#include <limits>
#include <optional>
#include <string>

namespace ccaperf {

/// Value of `name`; nullopt when unset or empty.
std::optional<std::string> env_text(const char* name);

/// Raises a ccaperf::Error: "<name>: want <want>, got '<text>'".
[[noreturn]] void env_malformed(const char* name, const std::string& text,
                                const std::string& want);

/// Integer value of `name` in [lo, hi], in decimal or 0x-prefixed hex;
/// nullopt when unset or empty. Raises on any other text, and on a value
/// outside [lo, hi].
template <class T>
std::optional<T> env_int(const char* name,
                         T lo = std::numeric_limits<T>::min(),
                         T hi = std::numeric_limits<T>::max()) {
  const std::optional<std::string> text = env_text(name);
  if (!text) return std::nullopt;
  const char* first = text->data();
  const char* const last = first + text->size();
  int base = 10;
  if (text->size() > 2 && text->starts_with("0x")) {
    first += 2;
    base = 16;
  }
  T v{};
  const auto [end, ec] = std::from_chars(first, last, v, base);
  if (ec != std::errc{} || end != last || v < lo || v > hi) {
    const bool bounded = lo != std::numeric_limits<T>::min() ||
                         hi != std::numeric_limits<T>::max();
    env_malformed(name, *text,
                  bounded ? "an integer in [" + std::to_string(lo) + ", " +
                                std::to_string(hi) + "]"
                          : std::string("an integer"));
  }
  return v;
}

/// Finite decimal number value of `name`; nullopt when unset or empty.
/// Raises on any other text.
std::optional<double> env_number(const char* name);

}  // namespace ccaperf
