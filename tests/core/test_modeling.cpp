// Regression machinery: linear solver, exact coefficient recovery for
// every model family, noisy-data family selection, binning, and the
// paper's Eq. 1/2 functional forms.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/modeling.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace {

using core::Sample;

TEST(LinearSolve, Solves3x3) {
  // x = (1, -2, 3) for a well-conditioned system.
  std::vector<double> a{4, 1, 0, 1, 3, -1, 0, -1, 2};
  std::vector<double> b{4 * 1 + 1 * -2, 1 - 6 - 3, 2 + 6};
  const auto x = core::solve_linear_system(a, b, 3, "test");
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], -2.0, 1e-12);
  EXPECT_NEAR(x[2], 3.0, 1e-12);
}

TEST(LinearSolve, PivotingHandlesZeroDiagonal) {
  std::vector<double> a{0, 1, 1, 0};
  std::vector<double> b{2, 3};
  const auto x = core::solve_linear_system(a, b, 2, "test");
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinearSolve, SingularThrows) {
  std::vector<double> a{1, 2, 2, 4};
  std::vector<double> b{1, 2};
  try {
    core::solve_linear_system(a, b, 2, "the caller");
    FAIL() << "singular system solved";
  } catch (const ccaperf::Error& e) {
    EXPECT_NE(std::string(e.what()).find("in the caller (pivot column 1 of 2)"),
              std::string::npos)
        << e.what();
  }
}

std::vector<Sample> sample_fn(double (*f)(double), double q0, double q1, int n) {
  std::vector<Sample> s;
  for (int k = 0; k < n; ++k) {
    const double q = q0 + (q1 - q0) * k / (n - 1);
    s.push_back(Sample{q, f(q)});
  }
  return s;
}

TEST(PolyFit, RecoversExactLine) {
  auto pts = sample_fn([](double q) { return -963.0 + 0.315 * q; }, 100, 150000, 40);
  auto model = core::fit_polynomial(pts, 1);
  const auto& c = model->coefficients();
  EXPECT_NEAR(c[0], -963.0, 1e-6);
  EXPECT_NEAR(c[1], 0.315, 1e-10);
  EXPECT_NEAR(model->r2, 1.0, 1e-12);
}

TEST(PolyFit, RecoversQuartic) {
  // The paper's sigma_EFM is quartic in Q with tiny high-order terms.
  auto f = [](double q) {
    return 66.7 - 0.015 * q + 9.24e-7 * q * q - 1.12e-11 * q * q * q +
           3.85e-17 * q * q * q * q;
  };
  std::vector<Sample> pts;
  for (int k = 1; k <= 60; ++k) pts.push_back(Sample{k * 2500.0, f(k * 2500.0)});
  auto model = core::fit_polynomial(pts, 4);
  EXPECT_NEAR(model->r2, 1.0, 1e-9);
  for (const Sample& s : pts)
    EXPECT_NEAR(model->predict(s.q), s.t, 1e-6 * std::abs(s.t) + 1e-9);
}

TEST(PowerLawFit, RecoversPaperStatesModel) {
  // T = exp(1.19 log(Q) - 3.68), the paper's Eq. 1 for States.
  auto pts = sample_fn(
      [](double q) { return std::exp(1.19 * std::log(q) - 3.68); }, 500, 150000, 50);
  auto model = core::fit_power_law(pts);
  EXPECT_NEAR(model->exponent(), 1.19, 1e-10);
  EXPECT_NEAR(model->log_coeff(), -3.68, 1e-9);
  EXPECT_NE(model->formula().find("log(Q)"), std::string::npos);
}

TEST(PowerLawFit, SkipsNonPositivePoints) {
  // Points with q <= 0 or t <= 0 have no logarithm; they are dropped before
  // the log-log line fit, so the exact-data coefficients must not move.
  auto pts = sample_fn(
      [](double q) { return std::exp(1.19 * std::log(q) - 3.68); }, 500, 150000, 50);
  for (const Sample& bad : {Sample{0.0, 5.0}, Sample{-300.0, 2.0}, Sample{800.0, 0.0},
                            Sample{1200.0, -4.0}, Sample{-1.0, -1.0}})
    pts.push_back(bad);
  auto model = core::fit_power_law(pts);
  EXPECT_NEAR(model->exponent(), 1.19, 1e-10);
  EXPECT_NEAR(model->log_coeff(), -3.68, 1e-9);

  // One positive point among the non-positive ones is too few for a line.
  EXPECT_THROW(core::fit_power_law({{0.0, 1.0}, {5.0, -2.0}, {7.0, 3.0}}),
               ccaperf::Error);
}

TEST(ExpFit, RecoversExponential) {
  auto pts = sample_fn([](double q) { return std::exp(0.5 + 2e-5 * q); }, 0, 100000, 30);
  auto model = core::fit_exponential(pts);
  for (const Sample& s : pts) EXPECT_NEAR(model->predict(s.q), s.t, 1e-9 * s.t);
}

TEST(ExpFit, SkipsNonPositivePoints) {
  // The semi-log fit needs t > 0 only: q <= 0 with t > 0 is a valid point,
  // while every t <= 0 point is dropped whatever its q.
  const auto f = [](double q) { return std::exp(0.5 + 2e-5 * q); };
  auto clean = sample_fn(f, 0, 100000, 30);
  clean.push_back(Sample{-20000.0, f(-20000.0)});
  auto pts = clean;
  for (const Sample& bad : {Sample{3000.0, 0.0}, Sample{50000.0, -7.0},
                            Sample{-500.0, -1.0}, Sample{0.0, 0.0}})
    pts.push_back(bad);
  auto model = core::fit_exponential(pts);
  EXPECT_NEAR(model->a(), 0.5, 1e-9);
  EXPECT_NEAR(model->b(), 2e-5, 1e-13);
  for (const Sample& s : clean) EXPECT_NEAR(model->predict(s.q), s.t, 1e-9 * s.t);

  EXPECT_THROW(core::fit_exponential({{1.0, 0.0}, {2.0, 3.0}, {3.0, -1.0}}),
               ccaperf::Error);
}

TEST(FitBest, PicksLinearForLinearData) {
  ccaperf::Rng rng(3);
  std::vector<Sample> pts;
  for (int k = 1; k <= 50; ++k) {
    const double q = k * 3000.0;
    pts.push_back(Sample{q, -963.0 + 0.315 * q + rng.normal(0.0, 20.0)});
  }
  auto model = core::fit_best(pts, 2);
  EXPECT_GT(model->r2, 0.999);
  EXPECT_NEAR(model->predict(100000.0), -963.0 + 31500.0, 300.0);
}

TEST(FitBest, PicksPowerLawForPowerLawData) {
  ccaperf::Rng rng(4);
  std::vector<Sample> pts;
  for (int k = 1; k <= 60; ++k) {
    const double q = 200.0 * std::pow(1.12, k);
    const double t = std::exp(1.19 * std::log(q) - 3.68);
    pts.push_back(Sample{q, t * std::exp(rng.normal(0.0, 0.02))});
  }
  auto model = core::fit_best(pts, 2);
  EXPECT_EQ(model->family(), "power-law");
}

TEST(FitBest, RejectsTooFewPoints) {
  EXPECT_THROW(core::fit_best({{1, 1}, {2, 2}}, 2), ccaperf::Error);
}

TEST(Binning, GroupsByQ) {
  std::vector<Sample> pts{{10, 1.0}, {10, 3.0}, {20, 4.0}, {10, 2.0}};
  const auto bins = core::bin_by_q(pts);
  ASSERT_EQ(bins.size(), 2u);
  EXPECT_DOUBLE_EQ(bins[0].q, 10.0);
  EXPECT_DOUBLE_EQ(bins[0].mean, 2.0);
  EXPECT_EQ(bins[0].count, 3u);
  EXPECT_NEAR(bins[0].stddev, std::sqrt(2.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(bins[1].q, 20.0);
}

TEST(MeanSigma, BuildsBothModels) {
  // Synthetic dual-mode data a la States: at each Q, samples alternate
  // between a fast and a slow mode; mean is linear, sigma grows with Q.
  ccaperf::Rng rng(5);
  std::vector<Sample> pts;
  for (int k = 1; k <= 30; ++k) {
    const double q = k * 5000.0;
    for (int rep = 0; rep < 10; ++rep) {
      const double mode = (rep % 2 == 0) ? 0.8 : 1.2;  // +-20% split
      pts.push_back(Sample{q, 0.01 * q * mode});
    }
  }
  const auto ms = core::build_mean_sigma_models(pts);
  ASSERT_NE(ms.mean, nullptr);
  ASSERT_NE(ms.sigma, nullptr);
  EXPECT_EQ(ms.bins.size(), 30u);
  EXPECT_NEAR(ms.mean->predict(100000.0), 1000.0, 20.0);
  // sigma = 0.2 * mean: grows linearly.
  EXPECT_GT(ms.sigma->predict(150000.0), ms.sigma->predict(10000.0));
}

TEST(Formulas, RenderPaperStyle) {
  core::PolynomialModel line({-963.0, 0.315});
  EXPECT_EQ(line.formula(), "-963 + 0.315 Q");
  core::PowerLawModel pl(1.19, -3.68);
  EXPECT_EQ(pl.formula(), "exp(1.19 log(Q) - 3.68)");
  core::ExponentialModel ex(1.29, 1e-5);
  EXPECT_NE(ex.formula().find("exp(1.29 + 1e-05 Q)"), std::string::npos);
}

}  // namespace
