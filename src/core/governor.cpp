#include "core/governor.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "support/env.hpp"
#include "support/error.hpp"

namespace core {

// ---------------------------------------------------------------------------
// GovernorConfig
// ---------------------------------------------------------------------------

GovernorConfig GovernorConfig::from_env() {
  GovernorConfig cfg;
  const std::optional<double> pct = ccaperf::env_number("CCAPERF_OVERHEAD_PCT");
  if (!pct) return cfg;  // disabled: byte-identical
  const double v = *pct;
  CCAPERF_REQUIRE(v > 0.0, "CCAPERF_OVERHEAD_PCT: want a positive percentage");
  cfg.enabled = true;
  cfg.budget_pct = v;
  // The hysteresis half-band is a quarter of the budget, capped at 0.5
  // points: a 2% budget throttles above 2.5% and relaxes below 1.5%.
  cfg.band_pct = std::min(0.5, 0.25 * v);
  return cfg;
}

// ---------------------------------------------------------------------------
// OverheadGovernor
// ---------------------------------------------------------------------------

OverheadGovernor::Settings OverheadGovernor::settings_for(int level) {
  // The ladder trades information for cost in order of regret: stretching
  // the telemetry interval loses nothing but resolution, dropping trace
  // verbosity loses post-hoc detail, and thinning monitor records leaves
  // the model fits fewer rows (realized_fraction() scales counts taken
  // from them back to calls).
  static constexpr Settings kLadder[kMaxLevel + 1] = {
      /*0*/ {1, tau::TraceTier::full, 1},
      /*1*/ {2, tau::TraceTier::full, 1},
      /*2*/ {4, tau::TraceTier::slices, 1},
      /*3*/ {4, tau::TraceTier::slices, 2},
      /*4*/ {8, tau::TraceTier::counters, 4},
      /*5*/ {8, tau::TraceTier::counters, 8},
      /*6*/ {16, tau::TraceTier::off, 16},
      /*7*/ {16, tau::TraceTier::off, 32},
  };
  if (level < 0) level = 0;
  if (level > kMaxLevel) level = kMaxLevel;
  return kLadder[level];
}

OverheadGovernor::Decision OverheadGovernor::observe(const Window& w) {
  Decision d;
  d.prev_level = level_;
  d.level = level_;
  if (!(w.wall_us >= cfg_.min_window_us) || w.wall_us <= 0.0) {
    return d;  // degenerate window: hold everything, including settle state
  }
  const double overhead = 100.0 * std::max(0.0, w.self_us) / w.wall_us;
  d.evaluated = true;
  d.overhead_pct = overhead;
  d.headroom_pct = cfg_.budget_pct - overhead;
  last_overhead_pct_ = overhead;
  last_overhead_bp_ =
      static_cast<std::uint64_t>(std::llround(overhead * 100.0));
  ++decisions_;

  const double high = cfg_.budget_pct + cfg_.band_pct;
  const double low = cfg_.budget_pct - cfg_.band_pct;

  if (settle_left_ > 0) {
    // An actuation just happened; its effect is not yet fully reflected in
    // the window. Hold so one throttle cannot trigger the next.
    --settle_left_;
    calm_run_ = 0;
    d.level = level_;
    history_.push_back(d);
    return d;
  }

  if (overhead > high && level_ < kMaxLevel) {
    ++level_;
    ++throttles_;
    settle_left_ = cfg_.settle_windows;
    calm_run_ = 0;
    d.changed = true;
  } else if (overhead < low && level_ > 0) {
    // Relaxing needs sustained calm: `calm_windows` consecutive windows
    // below the lower band edge. A single quiet window (a barrier, an I/O
    // stall) must not reopen the expensive tiers.
    if (++calm_run_ >= cfg_.calm_windows) {
      --level_;
      ++unthrottles_;
      settle_left_ = cfg_.settle_windows;
      calm_run_ = 0;
      d.changed = true;
    }
  } else {
    calm_run_ = 0;  // inside the band (or pinned at an end): steady state
  }
  d.level = level_;
  history_.push_back(d);
  return d;
}

}  // namespace core
