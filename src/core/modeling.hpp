#pragma once
// Performance-model construction (paper §5, Eqs. 1-2).
//
// From a Record's (Q, time) samples:
//  1. bin by Q and compute per-bin mean and standard deviation ("for
//     performance modeling purposes, we consider an average. However, we
//     also include a standard deviation in our analysis to track the
//     variability introduced by the cache");
//  2. fit candidate functional forms by least squares — polynomials
//     (normal equations, Gaussian elimination with partial pivoting),
//     power laws T = exp(a ln Q + b) (linear in log-log), and exponentials
//     sigma = exp(a + b Q) (linear in semi-log) — the forms of Eq. 1-2;
//  3. select the best candidate by adjusted R^2.

#include <memory>
#include <string>
#include <vector>

#include "support/stats.hpp"

namespace core {

/// One (parameter, time) observation.
struct Sample {
  double q = 0.0;
  double t = 0.0;
};

/// Per-Q aggregate of repeated observations.
struct Bin {
  double q = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;
};

/// Groups samples by (exact) Q value, ascending.
std::vector<Bin> bin_by_q(const std::vector<Sample>& samples);

/// A fitted performance model T(Q).
class PerfModel {
 public:
  virtual ~PerfModel() = default;
  virtual double predict(double q) const = 0;
  /// Human-readable formula in the paper's style, e.g.
  /// "exp(1.19 log(Q) - 3.68)" or "-963 + 0.315 Q".
  virtual std::string formula() const = 0;
  virtual std::string family() const = 0;

  double r2 = 0.0;           ///< coefficient of determination on the fit data
  double adjusted_r2 = 0.0;  ///< penalized by parameter count
};

/// Polynomial sum_k c_k Q^k (degree = coefficients.size()-1).
class PolynomialModel final : public PerfModel {
 public:
  explicit PolynomialModel(std::vector<double> coeffs) : coeffs_(std::move(coeffs)) {}
  double predict(double q) const override;
  std::string formula() const override;
  std::string family() const override { return "polynomial"; }
  const std::vector<double>& coefficients() const { return coeffs_; }

 private:
  std::vector<double> coeffs_;
};

/// T = exp(a ln Q + b) = e^b Q^a  (the paper's States model form).
class PowerLawModel final : public PerfModel {
 public:
  PowerLawModel(double a, double b) : a_(a), b_(b) {}
  double predict(double q) const override;
  std::string formula() const override;
  std::string family() const override { return "power-law"; }
  double exponent() const { return a_; }
  double log_coeff() const { return b_; }

 private:
  double a_, b_;
};

/// T = exp(a + b Q)  (the paper's sigma_States model form).
class ExponentialModel final : public PerfModel {
 public:
  ExponentialModel(double a, double b) : a_(a), b_(b) {}
  double predict(double q) const override;
  std::string formula() const override;
  std::string family() const override { return "exponential"; }
  double a() const { return a_; }
  double b() const { return b_; }

 private:
  double a_, b_;
};

/// Dense linear solve (Gaussian elimination, partial pivoting). Exposed
/// for tests; A is row-major n x n, overwritten. Throws on singularity,
/// naming `caller` (the fit that built the system) and the pivot column.
std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b, std::size_t n,
                                        const char* caller);

/// Least-squares polynomial of `degree` through (q, t) points.
std::unique_ptr<PolynomialModel> fit_polynomial(const std::vector<Sample>& pts,
                                                int degree);
/// Power-law fit (requires q > 0, t > 0; such points only are used).
std::unique_ptr<PowerLawModel> fit_power_law(const std::vector<Sample>& pts);
/// Exponential fit (requires t > 0).
std::unique_ptr<ExponentialModel> fit_exponential(const std::vector<Sample>& pts);

/// Fits linear, quadratic, power-law and exponential candidates and
/// returns the one with the best adjusted R^2. `max_poly_degree` extends
/// the polynomial family (the paper's sigma_EFM uses a quartic).
std::unique_ptr<PerfModel> fit_best(const std::vector<Sample>& pts,
                                    int max_poly_degree = 2);

/// Computes and stores r2/adjusted_r2 on `model` for the given points.
void score_model(PerfModel& model, const std::vector<Sample>& pts, int nparams);

/// Convenience: mean-vs-Q and stddev-vs-Q models from raw samples, as the
/// paper builds for States/GodunovFlux/EFMFlux (Figs. 6-8).
struct MeanSigmaModels {
  std::vector<Bin> bins;
  std::unique_ptr<PerfModel> mean;
  std::unique_ptr<PerfModel> sigma;
};
MeanSigmaModels build_mean_sigma_models(const std::vector<Sample>& samples,
                                        int max_poly_degree = 4);

}  // namespace core
