// Held-out prediction regression (tier-1, DESIGN.md §13): calibrate the
// fig01 pattern tree on a small (ranks, threads) grid of a tiny
// case-study run, then predict a configuration outside the grid — 16
// ranks x 4 lanes — and require the prediction to land within a generous
// fixed ceiling of the measured marginal step time. The bench
// (bench_ablation_prediction) tightens this to the gated accuracy
// numbers; this test guards the machinery, not the tuning.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/prediction_harness.hpp"
#include "support/error.hpp"
#include "support/table.hpp"

namespace {

components::AppConfig tiny_config() {
  components::AppConfig cfg;
  cfg.mesh.domain = amr::Box{0, 0, 47, 23};
  cfg.mesh.max_levels = 3;
  cfg.mesh.ncomp = euler::kNcomp;
  cfg.mesh.level0_patch_size = 12;
  cfg.mesh.cluster = amr::ClusterParams{0.75, 4, 0};
  cfg.mesh.geom = amr::Geometry{0.0, 0.0, 2.0 / 48.0, 1.0 / 24.0};
  cfg.driver = components::DriverConfig{4, 0.4, 0};
  cfg.flux_impl = "GodunovFlux";
  return cfg;
}

TEST(PredictionHoldout, SixteenRanksFourLanesWithinCeiling) {
  const components::AppConfig cfg = tiny_config();
  core::Fig01TrainSpec spec;
  spec.ranks = {2, 4, 8};
  spec.threads = {1, 2};
  spec.capture_ranks = 2;
  spec.steps_lo = 2;
  spec.steps_hi = 6;
  constexpr int kReps = 2;

  // Held-out point: more ranks and more lanes than any training point.
  // Measured in the same interleaved round-robin as the training grid so
  // host-load drift cannot separate the two (measure_fig01_points).
  const int ranks = 16, threads = 4;
  std::vector<core::Fig01MeasureRequest> requests;
  for (int r : spec.ranks)
    for (int t : spec.threads)
      requests.push_back(core::Fig01MeasureRequest{cfg, r, t});
  requests.push_back(core::Fig01MeasureRequest{cfg, ranks, threads});
  std::vector<double> busy;
  const std::vector<double> walls = core::measure_fig01_points(
      requests, spec.steps_lo, spec.steps_hi, kReps, &busy);
  const std::vector<double> train_walls(walls.begin(), walls.end() - 1);
  // Every point spends CPU on its extra steps, whatever the host.
  ASSERT_EQ(busy.size(), requests.size());
  for (double b : busy) EXPECT_GT(b, 0.0);

  const core::Fig01Calibration cal =
      core::calibrate_fig01_measured(cfg, spec, train_walls);
  ASSERT_EQ(cal.train.size(), 6u);
  for (const core::Fig01Point& pt : cal.train) EXPECT_GT(pt.step_us, 0.0);
  // The calibration must at least describe its own training grid (the
  // final re-fit is overdetermined, so this is not an interpolation
  // tautology).
  EXPECT_LT(cal.refit.max_rel_err, 0.35) << cal.pattern.tree.describe();

  const double predicted_step_us =
      core::predict_fig01_step_us(cal.pattern, cfg, ranks, threads);
  const double measured_step_us = walls.back();
  ASSERT_GT(measured_step_us, 0.0);

  const double rel_err =
      std::abs(predicted_step_us - measured_step_us) / measured_step_us;
  // Generous fixed ceiling: the CI machine is noisy and the run is tiny;
  // the point of the gate is catching composition bugs (2x-off regime),
  // not holding the bench's tuned accuracy.
  EXPECT_LT(rel_err, 0.5) << "predicted " << predicted_step_us
                          << " us vs measured " << measured_step_us << " us\n"
                          << cal.pattern.tree.describe();
}

// A point whose extra steps do not add wall time has no marginal step to
// report: the holdout must not compare a prediction with a floor value.
TEST(PredictionHoldout, MarginalStepRaisesUnlessHiWallExceedsLo) {
  EXPECT_EQ(core::marginal_step_us(0, 100.0, 350.0, 4), 62.5);
  EXPECT_EQ(core::marginal_step_us(0, 0.1, 0.4, 3), (0.4 - 0.1) / 3.0);
  for (const double hi : {99.5, 100.0}) {
    try {
      core::marginal_step_us(6, 100.0, hi, 4);
      ADD_FAILURE() << "no error for hi = " << hi;
    } catch (const ccaperf::Error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("point 6"), std::string::npos) << what;
      EXPECT_NE(what.find(ccaperf::fmt_double(hi, 6)), std::string::npos)
          << what;
      EXPECT_NE(what.find("100 us"), std::string::npos) << what;
    }
  }
}

}  // namespace
