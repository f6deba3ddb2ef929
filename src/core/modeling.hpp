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

// ---------------------------------------------------------------------------
// Streaming fits (§5, online). The batch fitters above re-scan every stored
// sample; the streaming accumulators below maintain the least-squares
// sufficient statistics (running sums of Q^k, Q^k T, |Q|, T^2 — and their
// log/semi-log images for the Eq. 1-2 power-law/exponential forms) so each
// new invocation updates the fit in O(1) time and O(degree) space. fit()
// solves the same scaled normal equations as the batch path, so streaming
// coefficients match a batch re-fit up to floating-point noise (the
// property test pins 1e-9 relative).
// ---------------------------------------------------------------------------

/// Online least-squares polynomial of fixed degree.
class StreamingPolyFit {
 public:
  explicit StreamingPolyFit(int degree);
  void add(double q, double t);
  std::size_t count() const { return n_; }
  int degree() const { return degree_; }
  /// Same normal equations + mean-|Q| scaling as fit_polynomial; r2 and
  /// adjusted_r2 are computed from the sufficient statistics (clamped to
  /// [0, 1] against rounding).
  std::unique_ptr<PolynomialModel> fit() const;

  /// Residual sum of squares of the current least-squares fit, from the
  /// same sufficient statistics (matches a batch re-fit's SS_res to 1e-9
  /// relative — the property test pins it). O(degree^2), no sample re-scan.
  double residual_sum() const;
  /// residual_sum() / n: the per-sample residual variance a PatternModel
  /// leaf uses to weight uncertain fits (predict_interval).
  double mean_sq_residual() const;

 private:
  std::unique_ptr<PolynomialModel> fit_with_residual(double* ss_res_out) const;

  int degree_;
  std::size_t n_ = 0;
  std::vector<double> sum_pow_;    ///< sum q^k, k = 0..2d
  std::vector<double> sum_pow_t_;  ///< sum q^k t, k = 0..d
  double sum_abs_q_ = 0.0;
  double sum_t2_ = 0.0;
};

/// Online power law T = exp(a ln Q + b): a line fit in log-log space.
/// Points with q <= 0 or t <= 0 are skipped, as in fit_power_law. r2 is
/// scored in log space (the batch fitter scores in the original space,
/// which a streaming accumulator cannot reconstruct) — coefficients are
/// identical, the goodness-of-fit convention differs.
class StreamingPowerLawFit {
 public:
  StreamingPowerLawFit() : line_(1) {}
  void add(double q, double t);
  std::size_t count() const { return line_.count(); }
  std::unique_ptr<PowerLawModel> fit() const;

  /// Residual sum of squares in the fit's own (log-log) space, so leaves
  /// can weight fit confidence; matches a batch line fit through the same
  /// (ln Q, ln T) points to 1e-9 relative.
  double log_residual_sum() const { return line_.residual_sum(); }
  double mean_sq_log_residual() const { return line_.mean_sq_residual(); }

 private:
  StreamingPolyFit line_;
};

/// Online exponential T = exp(a + b Q): a line fit in semi-log space.
/// Points with t <= 0 are skipped; r2 scored in log space (see above).
class StreamingExpFit {
 public:
  StreamingExpFit() : line_(1) {}
  void add(double q, double t);
  std::size_t count() const { return line_.count(); }
  std::unique_ptr<ExponentialModel> fit() const;

  /// Residual sum of squares in semi-log space (see StreamingPowerLawFit).
  double log_residual_sum() const { return line_.residual_sum(); }
  double mean_sq_log_residual() const { return line_.mean_sq_residual(); }

 private:
  StreamingPolyFit line_;
};

/// The fit_best candidate family as one O(1)-per-sample accumulator:
/// polynomials of degree 1..max_poly_degree plus (when every sample is
/// positive, mirroring fit_best) power-law and exponential. best() picks
/// by adjusted R^2 among candidates with enough points.
class StreamingFitSet {
 public:
  explicit StreamingFitSet(int max_poly_degree = 2);
  void add(double q, double t);
  std::size_t count() const { return n_; }
  std::unique_ptr<PerfModel> best() const;

 private:
  std::vector<StreamingPolyFit> polys_;
  StreamingPowerLawFit power_;
  StreamingExpFit exp_;
  std::size_t n_ = 0;
  bool all_positive_ = true;
};

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
