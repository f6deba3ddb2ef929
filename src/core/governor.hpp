#pragma once
// core::OverheadGovernor — overhead-governed adaptive monitoring
// (DESIGN.md §12; ROADMAP "adaptive, overhead-governed monitoring").
//
// The paper's central tension is that the measurement apparatus perturbs
// the component performance it models ("these instrumentation related
// overheads are small", §4 — a property asserted, not enforced). The
// governor enforces it: a per-rank feedback controller samples the
// monitoring stack's self-cost against wall time in sliding windows and
// steers the observability tiers — trace verbosity, telemetry emission
// interval, monitor record sampling — to keep realized overhead under a target budget (CCAPERF_OVERHEAD_PCT, default
// 2%) with hysteresis bands so the controller never oscillates.
//
// The controller is PURE and deterministic: observe() consumes one
// (wall_us, self_us, records) window and moves the throttle level by at
// most one step. All clock reads, actuation and plumbing live in the
// Mastermind (mastermind.cpp), which feeds windows in and applies the
// returned Settings — so the same window trace always yields the same
// tier-transition sequence (the determinism test pins this).

#include <cstdint>
#include <vector>

#include "tau/registry.hpp"

namespace core {

/// Controller configuration. `enabled` is false unless CCAPERF_OVERHEAD_PCT
/// is set, which guarantees every output stays byte-identical to an
/// ungoverned run when the knob is absent.
struct GovernorConfig {
  bool enabled = false;
  double budget_pct = 2.0;   ///< target overhead, % of wall time
  double band_pct = 0.25;    ///< hysteresis half-band around the budget
  std::uint64_t window_records = 64;  ///< decision window, completed records
  double min_window_us = 500.0;       ///< ignore degenerate tiny windows
  int settle_windows = 1;  ///< windows to hold after an actuation
  int calm_windows = 2;    ///< consecutive calm windows before relaxing
  std::uint64_t seed = 0;  ///< phase of the deterministic 1-in-N samplers

  /// Reads CCAPERF_OVERHEAD_PCT (unset/empty -> disabled; malformed or
  /// <= 0 raises).
  static GovernorConfig from_env();
};

/// One per-rank feedback controller. Levels form a ladder of actuation
/// steps ordered by information loss (cheapest loss first): telemetry
/// interval stretches, then trace verbosity drops, then monitor record
/// sampling thins.
class OverheadGovernor {
 public:
  /// One decision window as measured by the plumbing layer.
  struct Window {
    double wall_us = 0.0;  ///< wall time since the previous window
    double self_us = 0.0;  ///< measurement self-cost spent in that span
    std::uint64_t records = 0;  ///< monitored invocations completed
  };

  /// The actuator state a throttle level maps to.
  struct Settings {
    std::uint32_t telem_interval_mult = 1;  ///< telemetry interval multiplier
    tau::TraceTier trace_tier = tau::TraceTier::full;
    std::uint32_t monitor_stride = 1;  ///< record 1-in-N monitored calls
  };

  /// Outcome of one observe() call.
  struct Decision {
    int level = 0;
    int prev_level = 0;
    double overhead_pct = 0.0;  ///< measured this window
    double headroom_pct = 0.0;  ///< budget - measured
    bool changed = false;       ///< level moved (settings must be re-applied)
    bool evaluated = false;     ///< window was large enough to judge
  };

  explicit OverheadGovernor(GovernorConfig cfg) : cfg_(cfg) {}

  const GovernorConfig& config() const { return cfg_; }

  /// Consumes one window; deterministic, no clock or environment reads.
  Decision observe(const Window& w);

  static constexpr int kMaxLevel = 7;
  /// Monotone ladder: every actuator is no more verbose at level n+1 than
  /// at level n (the property test pins this).
  static Settings settings_for(int level);

  int level() const { return level_; }
  Settings settings() const { return settings_for(level_); }

  // Decision history, exposed as GOVERNOR_* counter sources.
  std::uint64_t decisions() const { return decisions_; }
  std::uint64_t throttles() const { return throttles_; }
  std::uint64_t unthrottles() const { return unthrottles_; }
  /// Every evaluated decision in order, for post-hoc audit (the
  /// convergence bench prints this as the controller trace). Windows are
  /// rare (one per cfg.window_records invocations), so unbounded growth is
  /// not a concern on realistic runs.
  const std::vector<Decision>& history() const { return history_; }
  /// Last measured overhead in basis points (1/100 %), for the counter
  /// track (counters are unsigned integers).
  std::uint64_t last_overhead_bp() const { return last_overhead_bp_; }
  double last_overhead_pct() const { return last_overhead_pct_; }

 private:
  GovernorConfig cfg_;
  int level_ = 0;
  int settle_left_ = 0;
  int calm_run_ = 0;
  std::uint64_t decisions_ = 0;
  std::uint64_t throttles_ = 0;
  std::uint64_t unthrottles_ = 0;
  std::uint64_t last_overhead_bp_ = 0;
  double last_overhead_pct_ = 0.0;
  std::vector<Decision> history_;
};

}  // namespace core
