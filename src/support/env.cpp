#include "support/env.hpp"

#include <cmath>
#include <cstdlib>

#include "support/error.hpp"

namespace ccaperf {

std::optional<std::string> env_text(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  return std::string(v);
}

void env_malformed(const char* name, const std::string& text,
                   const std::string& want) {
  raise(std::string(name) + ": want " + want + ", got '" + text + "'");
}

std::optional<double> env_number(const char* name) {
  const std::optional<std::string> text = env_text(name);
  if (!text) return std::nullopt;
  double v = 0.0;
  const char* const last = text->data() + text->size();
  const auto [end, ec] = std::from_chars(text->data(), last, v);
  if (ec != std::errc{} || end != last || !std::isfinite(v))
    env_malformed(name, *text, "a number");
  return v;
}

}  // namespace ccaperf
