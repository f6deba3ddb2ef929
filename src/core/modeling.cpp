#include "core/modeling.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include "support/error.hpp"

namespace core {

std::vector<Bin> bin_by_q(const std::vector<Sample>& samples) {
  std::map<double, ccaperf::RunningStats> groups;
  for (const Sample& s : samples) groups[s.q].add(s.t);
  std::vector<Bin> bins;
  bins.reserve(groups.size());
  for (const auto& [q, stats] : groups)
    bins.push_back(Bin{q, stats.mean(), stats.stddev(), stats.count()});
  return bins;
}

// ---------------------------------------------------------------------------
// Models
// ---------------------------------------------------------------------------

double PolynomialModel::predict(double q) const {
  double v = 0.0;
  for (std::size_t k = coeffs_.size(); k-- > 0;) v = v * q + coeffs_[k];
  return v;
}

namespace {
std::string fmt_coeff(double c) {
  std::ostringstream os;
  os.precision(4);
  os << c;
  return os.str();
}
}  // namespace

std::string PolynomialModel::formula() const {
  std::ostringstream os;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    const double c = coeffs_[k];
    if (k == 0) {
      os << fmt_coeff(c);
    } else {
      os << (c < 0 ? " - " : " + ") << fmt_coeff(std::abs(c)) << " Q";
      if (k > 1) os << "^" << k;
    }
  }
  return os.str();
}

double PowerLawModel::predict(double q) const {
  return q > 0.0 ? std::exp(a_ * std::log(q) + b_) : 0.0;
}

std::string PowerLawModel::formula() const {
  std::ostringstream os;
  os.precision(4);
  os << "exp(" << a_ << " log(Q) " << (b_ < 0 ? "- " : "+ ") << std::abs(b_) << ")";
  return os.str();
}

double ExponentialModel::predict(double q) const { return std::exp(a_ + b_ * q); }

std::string ExponentialModel::formula() const {
  std::ostringstream os;
  os.precision(4);
  os << "exp(" << a_ << (b_ < 0 ? " - " : " + ") << std::abs(b_) << " Q)";
  return os.str();
}

// ---------------------------------------------------------------------------
// Fitting
// ---------------------------------------------------------------------------

std::vector<double> solve_linear_system(std::vector<double> a,
                                        std::vector<double> b, std::size_t n,
                                        const char* caller) {
  CCAPERF_REQUIRE(a.size() == n * n && b.size() == n,
                  "solve_linear_system: shape mismatch");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r)
      if (std::abs(a[r * n + col]) > std::abs(a[pivot * n + col])) pivot = r;
    CCAPERF_REQUIRE(std::abs(a[pivot * n + col]) > 1e-300,
                    std::string("solve_linear_system: singular matrix in ") +
                        caller + " (pivot column " + std::to_string(col) +
                        " of " + std::to_string(n) + ")");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a[col * n + c], a[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    // Eliminate below.
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a[r * n + col] / a[col * n + col];
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r * n + c] -= f * a[col * n + c];
      b[r] -= f * b[col];
    }
  }
  // Back substitution.
  std::vector<double> x(n, 0.0);
  for (std::size_t r = n; r-- > 0;) {
    double v = b[r];
    for (std::size_t c = r + 1; c < n; ++c) v -= a[r * n + c] * x[c];
    x[r] = v / a[r * n + r];
  }
  return x;
}

std::unique_ptr<PolynomialModel> fit_polynomial(const std::vector<Sample>& pts,
                                                int degree) {
  CCAPERF_REQUIRE(degree >= 0, "fit_polynomial: degree >= 0");
  const auto n = static_cast<std::size_t>(degree) + 1;
  CCAPERF_REQUIRE(pts.size() >= n, "fit_polynomial: not enough points");

  // Normal equations: (X^T X) c = X^T y. Powers are scaled by mean |q| to
  // keep the system conditioned for Q ~ 1e5 and degree 4.
  double scale = 0.0;
  for (const Sample& s : pts) scale += std::abs(s.q);
  scale = std::max(scale / static_cast<double>(pts.size()), 1e-30);

  std::vector<double> xtx(n * n, 0.0), xty(n, 0.0);
  for (const Sample& s : pts) {
    std::vector<double> pow_q(n, 1.0);
    for (std::size_t k = 1; k < n; ++k) pow_q[k] = pow_q[k - 1] * (s.q / scale);
    for (std::size_t r = 0; r < n; ++r) {
      xty[r] += pow_q[r] * s.t;
      for (std::size_t c = 0; c < n; ++c) xtx[r * n + c] += pow_q[r] * pow_q[c];
    }
  }
  std::vector<double> scaled =
      solve_linear_system(std::move(xtx), std::move(xty), n, "fit_polynomial");
  // Undo scaling: c_k = scaled_k / scale^k.
  std::vector<double> coeffs(n);
  double div = 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    coeffs[k] = scaled[k] / div;
    div *= scale;
  }
  auto model = std::make_unique<PolynomialModel>(std::move(coeffs));
  score_model(*model, pts, static_cast<int>(n));
  return model;
}

std::unique_ptr<PowerLawModel> fit_power_law(const std::vector<Sample>& pts) {
  std::vector<Sample> logs;
  for (const Sample& s : pts)
    if (s.q > 0.0 && s.t > 0.0) logs.push_back(Sample{std::log(s.q), std::log(s.t)});
  CCAPERF_REQUIRE(logs.size() >= 2, "fit_power_law: need >= 2 positive points");
  auto line = fit_polynomial(logs, 1);
  const auto& c = line->coefficients();
  auto model = std::make_unique<PowerLawModel>(c[1], c[0]);
  score_model(*model, pts, 2);
  return model;
}

std::unique_ptr<ExponentialModel> fit_exponential(const std::vector<Sample>& pts) {
  std::vector<Sample> logs;
  for (const Sample& s : pts)
    if (s.t > 0.0) logs.push_back(Sample{s.q, std::log(s.t)});
  CCAPERF_REQUIRE(logs.size() >= 2, "fit_exponential: need >= 2 positive points");
  auto line = fit_polynomial(logs, 1);
  const auto& c = line->coefficients();
  auto model = std::make_unique<ExponentialModel>(c[0], c[1]);
  score_model(*model, pts, 2);
  return model;
}

void score_model(PerfModel& model, const std::vector<Sample>& pts, int nparams) {
  ccaperf::RunningStats tstats;
  for (const Sample& s : pts) tstats.add(s.t);
  double ss_res = 0.0;
  for (const Sample& s : pts) {
    const double e = s.t - model.predict(s.q);
    ss_res += e * e;
  }
  const double ss_tot =
      tstats.variance() * static_cast<double>(pts.size());
  model.r2 = ss_tot > 0.0 ? 1.0 - ss_res / ss_tot : (ss_res == 0.0 ? 1.0 : 0.0);
  const auto n = static_cast<double>(pts.size());
  const double p = static_cast<double>(nparams);
  model.adjusted_r2 =
      n - p - 1.0 > 0.0 ? 1.0 - (1.0 - model.r2) * (n - 1.0) / (n - p - 1.0)
                        : model.r2;
}

std::unique_ptr<PerfModel> fit_best(const std::vector<Sample>& pts,
                                    int max_poly_degree) {
  CCAPERF_REQUIRE(pts.size() >= 3, "fit_best: need >= 3 points");
  std::vector<std::unique_ptr<PerfModel>> candidates;
  for (int d = 1; d <= max_poly_degree; ++d) {
    if (pts.size() < static_cast<std::size_t>(d) + 2) break;
    candidates.push_back(fit_polynomial(pts, d));
  }
  bool all_positive = true;
  for (const Sample& s : pts) all_positive &= (s.q > 0.0 && s.t > 0.0);
  if (all_positive) {
    candidates.push_back(fit_power_law(pts));
    candidates.push_back(fit_exponential(pts));
  }
  CCAPERF_REQUIRE(!candidates.empty(), "fit_best: no candidate fits");
  auto best = std::max_element(candidates.begin(), candidates.end(),
                               [](const auto& a, const auto& b) {
                                 return a->adjusted_r2 < b->adjusted_r2;
                               });
  return std::move(*best);
}

MeanSigmaModels build_mean_sigma_models(const std::vector<Sample>& samples,
                                        int max_poly_degree) {
  MeanSigmaModels out;
  out.bins = bin_by_q(samples);
  std::vector<Sample> means, sigmas;
  for (const Bin& b : out.bins) {
    means.push_back(Sample{b.q, b.mean});
    if (b.count >= 2) sigmas.push_back(Sample{b.q, b.stddev});
  }
  out.mean = fit_best(means, std::min(max_poly_degree, 2));
  if (sigmas.size() >= 3)
    out.sigma = fit_best(sigmas, max_poly_degree);
  return out;
}

}  // namespace core
