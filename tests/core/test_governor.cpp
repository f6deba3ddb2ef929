// core::OverheadGovernor (DESIGN.md §12): the feedback controller that
// keeps always-on telemetry under budget. The controller is pure — all
// clock reads live in the Mastermind — so these tests drive it with
// synthetic windows and pin the exact tier-transition sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/governor.hpp"
#include "core/mastermind.hpp"
#include "core/proxies.hpp"
#include "core/tau_component.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace {

core::GovernorConfig test_config() {
  core::GovernorConfig cfg;
  cfg.enabled = true;
  cfg.budget_pct = 2.0;
  cfg.band_pct = 0.5;
  cfg.window_records = 4;
  cfg.min_window_us = 100.0;
  cfg.settle_windows = 1;
  cfg.calm_windows = 2;
  return cfg;
}

/// Window with a given overhead percentage over a 10 ms span.
core::OverheadGovernor::Window window_pct(double pct) {
  core::OverheadGovernor::Window w;
  w.wall_us = 10'000.0;
  w.self_us = w.wall_us * pct / 100.0;
  w.records = 64;
  return w;
}

struct Rig {
  cca::Framework fw;
  core::MastermindComponent* mm;
  core::TauMeasurementComponent* tau;

  Rig() : fw(make_repo()) {
    fw.instantiate("tau", "TauMeasurement");
    fw.instantiate("mm", "Mastermind");
    fw.connect("mm", "measurement", "tau", "measurement");
    mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
    tau = dynamic_cast<core::TauMeasurementComponent*>(&fw.component("tau"));
  }

  static cca::ComponentRepository make_repo() {
    cca::ComponentRepository repo;
    repo.register_class("TauMeasurement", [] {
      return std::make_unique<core::TauMeasurementComponent>();
    });
    repo.register_class("Mastermind",
                        [] { return std::make_unique<core::MastermindComponent>(); });
    return repo;
  }
};

TEST(Governor, DisabledWhenEnvUnset) {
  unsetenv("CCAPERF_OVERHEAD_PCT");
  const core::GovernorConfig cfg = core::GovernorConfig::from_env();
  EXPECT_FALSE(cfg.enabled);
}

TEST(Governor, EnvBudgetParsedAndValidated) {
  setenv("CCAPERF_OVERHEAD_PCT", "2", 1);
  const core::GovernorConfig cfg = core::GovernorConfig::from_env();
  EXPECT_TRUE(cfg.enabled);
  EXPECT_DOUBLE_EQ(cfg.budget_pct, 2.0);
  // The acceptance contract: a 2% budget converges by 2.5%.
  EXPECT_LE(cfg.budget_pct + cfg.band_pct, 2.5 + 1e-12);
  // The half-band is a quarter of the budget, capped at 0.5 points.
  for (auto [pct, band] : {std::pair<const char*, double>{"0.5", 0.125},
                           {"1", 0.25}, {"2", 0.5}, {"4", 0.5}}) {
    setenv("CCAPERF_OVERHEAD_PCT", pct, 1);
    EXPECT_EQ(core::GovernorConfig::from_env().band_pct, band) << pct;
  }

  for (const char* bad : {"-1", "0", "bogus", "2%"}) {
    setenv("CCAPERF_OVERHEAD_PCT", bad, 1);
    try {
      core::GovernorConfig::from_env();
      ADD_FAILURE() << "CCAPERF_OVERHEAD_PCT=" << bad << " was accepted";
    } catch (const ccaperf::Error& e) {
      EXPECT_NE(std::string(e.what()).find("CCAPERF_OVERHEAD_PCT"),
                std::string::npos)
          << e.what();
    }
  }
  unsetenv("CCAPERF_OVERHEAD_PCT");
}

TEST(Governor, LadderIsMonotone) {
  using G = core::OverheadGovernor;
  for (int l = 0; l < G::kMaxLevel; ++l) {
    const G::Settings a = G::settings_for(l);
    const G::Settings b = G::settings_for(l + 1);
    EXPECT_LE(a.telem_interval_mult, b.telem_interval_mult) << "level " << l;
    EXPECT_LE(static_cast<int>(a.trace_tier), static_cast<int>(b.trace_tier))
        << "level " << l;
    EXPECT_LE(a.monitor_stride, b.monitor_stride) << "level " << l;
  }
  // Endpoints: level 0 is full verbosity, level max records 1-in-32.
  EXPECT_EQ(G::settings_for(0).monitor_stride, 1u);
  EXPECT_EQ(G::settings_for(0).trace_tier, tau::TraceTier::full);
  EXPECT_EQ(G::settings_for(G::kMaxLevel).trace_tier, tau::TraceTier::off);
}

TEST(Governor, DeterministicTransitions) {
  // Same config + same synthetic load => bit-identical level sequences.
  // This is the property that makes governed runs reproducible.
  core::OverheadGovernor a(test_config());
  core::OverheadGovernor b(test_config());
  const double load[] = {8.0, 8.0, 6.0, 5.0, 4.0, 3.0, 2.6, 2.0,
                         1.2, 1.0, 1.0, 1.0, 1.0, 3.1, 1.0, 1.0};
  std::vector<int> seq_a, seq_b;
  for (double pct : load) seq_a.push_back(a.observe(window_pct(pct)).level);
  for (double pct : load) seq_b.push_back(b.observe(window_pct(pct)).level);
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_EQ(a.decisions(), b.decisions());
  EXPECT_EQ(a.throttles(), b.throttles());
}

TEST(Governor, ThrottlesUnderSustainedOverloadWithSettle) {
  core::OverheadGovernor gov(test_config());
  // Sustained 8% overhead against a 2% budget: throttle one level per
  // decision, but every actuation is followed by one settle window.
  std::vector<int> levels;
  for (int i = 0; i < 8; ++i) levels.push_back(gov.observe(window_pct(8.0)).level);
  EXPECT_EQ(levels, (std::vector<int>{1, 1, 2, 2, 3, 3, 4, 4}));
  EXPECT_EQ(gov.throttles(), 4u);
  EXPECT_EQ(gov.unthrottles(), 0u);
}

TEST(Governor, RelaxNeedsSustainedCalm) {
  core::OverheadGovernor gov(test_config());
  gov.observe(window_pct(8.0));  // -> L1
  gov.observe(window_pct(8.0));  // settle
  ASSERT_EQ(gov.level(), 1);
  // One quiet window (a barrier, an I/O stall) must NOT reopen the tiers.
  gov.observe(window_pct(0.5));
  EXPECT_EQ(gov.level(), 1);
  // The second consecutive calm window completes the run and relaxes.
  gov.observe(window_pct(0.5));
  EXPECT_EQ(gov.level(), 0);
  EXPECT_EQ(gov.unthrottles(), 1u);
}

TEST(Governor, NoOscillationInsideBand) {
  core::OverheadGovernor gov(test_config());
  gov.observe(window_pct(8.0));
  gov.observe(window_pct(8.0));
  ASSERT_EQ(gov.level(), 1);
  // Overhead hovering inside [budget - band, budget + band]: dead zone.
  for (int i = 0; i < 20; ++i) {
    gov.observe(window_pct(i % 2 == 0 ? 1.8 : 2.3));
    EXPECT_EQ(gov.level(), 1) << "window " << i;
  }
}

TEST(Governor, CalmRunResetsOnInBandWindow) {
  core::OverheadGovernor gov(test_config());
  gov.observe(window_pct(8.0));
  gov.observe(window_pct(8.0));
  ASSERT_EQ(gov.level(), 1);
  // calm, in-band, calm: the interruption resets the calm run, so no relax.
  gov.observe(window_pct(0.5));
  gov.observe(window_pct(2.0));
  gov.observe(window_pct(0.5));
  EXPECT_EQ(gov.level(), 1);
  gov.observe(window_pct(0.5));
  EXPECT_EQ(gov.level(), 0);
}

TEST(Governor, TinyWindowsAreNotEvaluated) {
  core::OverheadGovernor gov(test_config());
  core::OverheadGovernor::Window w;
  w.wall_us = 50.0;  // below min_window_us
  w.self_us = 40.0;  // 80% overhead — must still be ignored
  w.records = 4;
  const auto d = gov.observe(w);
  EXPECT_FALSE(d.evaluated);
  EXPECT_EQ(gov.level(), 0);
  EXPECT_EQ(gov.decisions(), 0u);
}

TEST(Governor, OverheadBasisPointsTrackLastWindow) {
  core::OverheadGovernor gov(test_config());
  gov.observe(window_pct(3.14));
  EXPECT_EQ(gov.last_overhead_bp(), 314u);
  EXPECT_NEAR(gov.last_overhead_pct(), 3.14, 1e-9);
}

// --- Mastermind plumbing -----------------------------------------------------

TEST(GovernorMonitor, CountersRegisteredOnAttach) {
  Rig rig;
  const auto& names0 = rig.tau->registry().counters().names();
  EXPECT_EQ(std::count_if(names0.begin(), names0.end(),
                          [](const std::string& n) {
                            return n.rfind("GOVERNOR_", 0) == 0;
                          }),
            0);
  core::OverheadGovernor gov(test_config());
  rig.mm->attach_governor(&gov);
  const auto& names = rig.tau->registry().counters().names();
  for (const char* want :
       {"GOVERNOR_LEVEL", "GOVERNOR_DECISIONS", "GOVERNOR_THROTTLES",
        "GOVERNOR_UNTHROTTLES", "GOVERNOR_OVERHEAD_BP"})
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
}

TEST(GovernorMonitor, SamplingThinsRecordsAndReportsRealizedFraction) {
  Rig rig;
  // Drive the governor to a level with monitor_stride > 1 before attaching,
  // so the stride applies from the first monitored call. The decision
  // window is longer than the run, so no window closes (and re-strides)
  // while the calls are recorded, however long they take.
  const std::size_t calls = 64;
  core::GovernorConfig cfg = test_config();
  cfg.window_records = calls + 1;
  core::OverheadGovernor gov(cfg);
  while (gov.settings().monitor_stride < 4) gov.observe(window_pct(50.0));
  const std::uint32_t stride = gov.settings().monitor_stride;
  rig.mm->attach_governor(&gov);
  EXPECT_EQ(rig.mm->monitor_stride(), stride);

  const core::MethodHandle h = rig.mm->register_method("k::f()", {"Q"});
  for (std::size_t i = 0; i < calls; ++i) {
    const double params[1] = {static_cast<double>(i + 1)};
    rig.mm->start(h, core::ParamSpan(params, 1));
    rig.mm->stop(h);
  }
  const core::Record* rec = rig.mm->record("k::f()");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), calls / stride);
  EXPECT_NEAR(rig.mm->realized_fraction("k::f()"), 1.0 / stride, 1e-12);
  // The sampler is a deterministic phase test, so the kept rows are evenly
  // strided: Q values 1, 1+stride, 1+2*stride, ...
  for (std::size_t i = 0; i < rec->count(); ++i)
    EXPECT_DOUBLE_EQ(rec->param_at(i, "Q"),
                     static_cast<double>(1 + i * stride));
}

TEST(GovernorMonitor, UnattachedMastermindRecordsEveryCall) {
  Rig rig;
  const core::MethodHandle h = rig.mm->register_method("k::f()", {});
  for (int i = 0; i < 16; ++i) {
    rig.mm->start(h, {});
    rig.mm->stop(h);
  }
  EXPECT_EQ(rig.mm->record("k::f()")->count(), 16u);
  EXPECT_DOUBLE_EQ(rig.mm->realized_fraction("k::f()"), 1.0);
}

/// Runs one governor window (telemetry off) with a cost source that
/// reports `cost_us` of self-cost accrued after attach, and returns the
/// governor's history. The window spans at least min_window_us of sleep,
/// so it is always evaluated; `wall_us` receives an upper bound of the
/// window's wall time.
std::vector<core::OverheadGovernor::Decision> cost_source_window(
    double cost_us, core::OverheadGovernor& gov, double& wall_us) {
  Rig rig;
  double cost = 0.0;
  rig.mm->add_cost_source("probe", [&cost] { return cost; });
  const auto t0 = std::chrono::steady_clock::now();
  rig.mm->attach_governor(&gov);
  cost = cost_us;
  std::this_thread::sleep_for(std::chrono::duration<double, std::micro>(
      gov.config().min_window_us));
  const core::MethodHandle h = rig.mm->register_method("k::f()", {});
  for (std::uint64_t i = 0; i < gov.config().window_records; ++i) {
    rig.mm->start(h, {});
    rig.mm->stop(h);
  }
  wall_us = std::chrono::duration<double, std::micro>(
                std::chrono::steady_clock::now() - t0)
                .count();
  return gov.history();
}

TEST(GovernorMonitor, CostSourcesFeedSelfTotal) {
  // External probes (cache-sim pricing, trace export) report cumulative
  // self-cost; the governor window must count it as measurement overhead.
  // A long window keeps the Mastermind's own bracket cost far below the
  // band, so only the source can push the window over budget.
  core::GovernorConfig cfg = test_config();
  cfg.min_window_us = 50'000.0;

  core::OverheadGovernor loaded(cfg);
  const double cost_us = 1e9;  // far beyond any window's wall time
  double wall_us = 0.0;
  const auto hist = cost_source_window(cost_us, loaded, wall_us);
  ASSERT_EQ(hist.size(), 1u);
  EXPECT_TRUE(hist[0].changed);
  EXPECT_EQ(hist[0].level, 1);
  EXPECT_EQ(loaded.throttles(), 1u);
  EXPECT_GE(hist[0].overhead_pct, 100.0 * cost_us / wall_us);

  core::OverheadGovernor idle(cfg);
  const auto calm = cost_source_window(0.0, idle, wall_us);
  ASSERT_EQ(calm.size(), 1u);
  EXPECT_EQ(calm[0].level, 0);
  EXPECT_EQ(idle.level(), 0);
  EXPECT_LT(calm[0].overhead_pct, cfg.budget_pct + cfg.band_pct);

  Rig rig;
  EXPECT_DOUBLE_EQ(rig.mm->realized_fraction("nope"), 1.0);
}

TEST(GovernorMonitor, TelemetryCarriesGovernorLevelAndBackend) {
  Rig rig;
  core::OverheadGovernor gov(test_config());
  rig.mm->attach_governor(&gov);
  rig.mm->set_telemetry_hwc("sim");
  std::ostringstream sink;
  rig.mm->start_telemetry(sink, 1);
  const core::MethodHandle h = rig.mm->register_method("k::f()", {});
  rig.mm->start(h, {});
  rig.mm->stop(h);
  rig.mm->stop_telemetry();
  const std::string out = sink.str();
  EXPECT_NE(out.find("\"governor_level\":0"), std::string::npos) << out;
  EXPECT_NE(out.find("\"hwc\":\"sim\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"overhead_pct\":"), std::string::npos) << out;
}

// --- threaded rank (TSan-covered via check_tier1.sh filters) -----------------

struct PoolGuard {
  explicit PoolGuard(int lanes) { ccaperf::set_rank_pool_threads(lanes); }
  ~PoolGuard() { ccaperf::set_rank_pool_threads(1); }
};

TEST(ThreadedGovernor, SampledMonitoringUnderWorkerLanes) {
  PoolGuard pool(3);
  Rig rig;
  core::GovernorConfig cfg = test_config();
  core::OverheadGovernor gov(cfg);
  while (gov.settings().monitor_stride < 4) gov.observe(window_pct(50.0));
  rig.mm->attach_governor(&gov);
  const core::MethodHandle h = rig.mm->register_method("k::f()", {"Q"});
  const std::size_t n = 256;
  ccaperf::rank_pool().parallel_for(n, [&](std::size_t i, int) {
    const double params[1] = {static_cast<double>(i)};
    rig.mm->start(h, core::ParamSpan(params, 1));
    rig.mm->stop(h);
  });
  const core::Record* rec = rig.mm->record("k::f()");
  ASSERT_NE(rec, nullptr);
  // Lane-0 calls are sampled; worker-lane rows always record (their merge
  // path has no governor). Either way, seen >= recorded and the realized
  // fraction stays in (0, 1].
  EXPECT_GT(rec->count(), 0u);
  const double frac = rig.mm->realized_fraction("k::f()");
  EXPECT_GT(frac, 0.0);
  EXPECT_LE(frac, 1.0);
}

}  // namespace
