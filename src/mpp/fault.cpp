#include "mpp/fault.hpp"

#include <cctype>
#include <cstdlib>

#include "mpp/hooks.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"

namespace mpp {

namespace {

/// Hash chain over the message identity: every field perturbs the state and
/// every draw is a fresh splitmix64 step. Pure function — no shared stream.
std::uint64_t fold(std::uint64_t state, std::uint64_t v) {
  state ^= v + 0x9e3779b97f4a7c15ULL + (state << 6) + (state >> 2);
  return ccaperf::splitmix64(state);
}

double u01(std::uint64_t& state) {
  return static_cast<double>(ccaperf::splitmix64(state) >> 11) * 0x1.0p-53;
}

double parse_number(std::string_view key, std::string_view value) {
  CCAPERF_REQUIRE(!value.empty(), "FaultSpec::parse: empty value");
  char* end = nullptr;
  const std::string owned(value);
  const double v = std::strtod(owned.c_str(), &end);
  CCAPERF_REQUIRE(end == owned.c_str() + owned.size(),
                  "FaultSpec::parse: bad number for key " + std::string(key));
  return v;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return s;
}

}  // namespace

FaultSpec FaultSpec::moderate(std::uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.drop = 0.10;
  s.delay = 0.20;
  s.duplicate = 0.05;
  s.reorder = 0.05;
  s.stall = 0.02;
  s.max_delay_steps = 4;
  s.stall_us = 100.0;
  return s;
}

FaultSpec FaultSpec::parse(std::string_view text) {
  FaultSpec s;
  const std::string_view whole = trim(text);
  if (whole.empty() || whole == "off" || whole == "none" || whole == "0") return s;
  if (whole == "moderate") return moderate();

  std::string_view rest = whole;
  while (!rest.empty()) {
    const std::size_t comma = rest.find(',');
    std::string_view item = trim(rest.substr(0, comma));
    rest = (comma == std::string_view::npos) ? std::string_view{}
                                             : rest.substr(comma + 1);
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    CCAPERF_REQUIRE(eq != std::string_view::npos,
                    "FaultSpec::parse: expected key=value, got " + std::string(item));
    const std::string_view key = trim(item.substr(0, eq));
    const std::string_view value = trim(item.substr(eq + 1));
    if (key == "seed")
      s.seed = static_cast<std::uint64_t>(parse_number(key, value));
    else if (key == "drop")
      s.drop = parse_number(key, value);
    else if (key == "delay")
      s.delay = parse_number(key, value);
    else if (key == "dup" || key == "duplicate")
      s.duplicate = parse_number(key, value);
    else if (key == "reorder")
      s.reorder = parse_number(key, value);
    else if (key == "stall")
      s.stall = parse_number(key, value);
    else if (key == "max_delay_steps")
      s.max_delay_steps = static_cast<int>(parse_number(key, value));
    else if (key == "stall_us")
      s.stall_us = parse_number(key, value);
    else if (key == "retry_base_steps")
      s.retry_base_steps = static_cast<int>(parse_number(key, value));
    else if (key == "retry_max_attempts")
      s.retry_max_attempts = static_cast<int>(parse_number(key, value));
    else if (key == "retry_faults")
      s.retry_faults = parse_number(key, value) != 0.0;
    else
      ccaperf::raise("FaultSpec::parse: unknown key " + std::string(key));
  }
  CCAPERF_REQUIRE(s.drop >= 0 && s.delay >= 0 && s.duplicate >= 0 &&
                      s.reorder >= 0 && s.stall >= 0 &&
                      s.drop + s.delay + s.duplicate + s.reorder <= 1.0,
                  "FaultSpec::parse: rates must be >= 0 and sum to <= 1");
  CCAPERF_REQUIRE(s.max_delay_steps >= 1 && s.retry_base_steps >= 1 &&
                      s.retry_max_attempts >= 1,
                  "FaultSpec::parse: steps/attempts must be >= 1");
  return s;
}

FaultSpec FaultSpec::from_env() {
  const std::optional<std::string> plan = ccaperf::env_text("CCAPERF_FAULT_PLAN");
  if (!plan) return FaultSpec{};
  FaultSpec s = parse(*plan);
  s.seed = ccaperf::env_int<std::uint64_t>("CCAPERF_FAULT_SEED").value_or(s.seed);
  return s;
}

FaultDecision FaultPlan::decide(int src, int dst, std::uint64_t seq,
                                std::uint32_t attempt) const {
  if (!active_) return {FaultKind::none, 0};
  std::uint64_t state = spec_.seed;
  state = fold(state, 0x6d657373ULL);  // domain tag: "mess"
  state = fold(state, static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)));
  state = fold(state, static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)));
  state = fold(state, seq);
  state = fold(state, attempt);
  const double u = u01(state);
  if (attempt > 1) {
    // Retransmission: only loss can re-fire, and only when configured.
    if (spec_.retry_faults && u < spec_.drop) return {FaultKind::drop, 0};
    return {FaultKind::none, 0};
  }
  double edge = spec_.drop;
  if (u < edge) return {FaultKind::drop, 0};
  edge += spec_.delay;
  if (u < edge) {
    const int steps = 1 + static_cast<int>(u01(state) *
                                           static_cast<double>(spec_.max_delay_steps));
    return {FaultKind::delay, steps < spec_.max_delay_steps ? steps
                                                            : spec_.max_delay_steps};
  }
  edge += spec_.duplicate;
  if (u < edge) return {FaultKind::duplicate, 0};
  edge += spec_.reorder;
  if (u < edge) return {FaultKind::reorder, 0};
  return {FaultKind::none, 0};
}

bool FaultPlan::stall_at(int rank, std::uint64_t check) const {
  if (!active_ || spec_.stall <= 0.0) return false;
  std::uint64_t state = spec_.seed;
  state = fold(state, 0x7374616cULL);  // domain tag: "stal"
  state = fold(state, static_cast<std::uint64_t>(static_cast<std::uint32_t>(rank)));
  state = fold(state, check);
  return u01(state) < spec_.stall;
}

}  // namespace mpp
