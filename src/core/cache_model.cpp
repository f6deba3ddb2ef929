#include "core/cache_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace core {

WorkCounts CacheAwareModel::interpolate(double q) const {
  CCAPERF_REQUIRE(!table_.empty(), "CacheAwareModel: empty work table");
  if (q <= table_.front().q) return table_.front();
  if (q >= table_.back().q) return table_.back();
  auto hi = std::lower_bound(table_.begin(), table_.end(), q,
                             [](const WorkCounts& w, double v) { return w.q < v; });
  const WorkCounts& b = *hi;
  const WorkCounts& a = *(hi - 1);
  const double f = (q - a.q) / (b.q - a.q);
  WorkCounts w;
  w.q = q;
  w.flops = a.flops + f * (b.flops - a.flops);
  w.accesses = a.accesses + f * (b.accesses - a.accesses);
  w.misses = a.misses + f * (b.misses - a.misses);
  return w;
}

double CacheAwareModel::predict(double q) const {
  const WorkCounts w = interpolate(q);
  return c_flop_ * w.flops + c_mem_ * w.accesses + c_miss_ * w.misses;
}

std::string CacheAwareModel::formula() const {
  std::ostringstream os;
  os.precision(4);
  os << c_flop_ << "*FLOPS(Q) + " << c_mem_ << "*ACC(Q) + " << c_miss_
     << "*MISS(Q;cache)";
  return os.str();
}

std::unique_ptr<CacheAwareModel> fit_cache_aware(
    const std::vector<Sample>& timings, const std::vector<WorkCounts>& counts) {
  CCAPERF_REQUIRE(timings.size() >= 3, "fit_cache_aware: need >= 3 samples");
  CCAPERF_REQUIRE(!counts.empty(), "fit_cache_aware: empty work table");

  std::vector<WorkCounts> table = counts;
  std::sort(table.begin(), table.end(),
            [](const WorkCounts& a, const WorkCounts& b) { return a.q < b.q; });

  // Interim model (coefficients unused) to reuse the interpolation.
  CacheAwareModel probe(0, 0, 0, table);

  // Normal equations for t ~ X c with X rows (flops, accesses, misses).
  // Columns are scaled to unit mean magnitude for conditioning.
  double s0 = 0, s1 = 0, s2 = 0;
  std::vector<std::array<double, 3>> rows;
  rows.reserve(timings.size());
  for (const Sample& s : timings) {
    const WorkCounts w = probe.interpolate(s.q);
    rows.push_back({w.flops, w.accesses, w.misses});
    s0 += std::abs(w.flops);
    s1 += std::abs(w.accesses);
    s2 += std::abs(w.misses);
  }
  const double n = static_cast<double>(timings.size());
  const std::array<double, 3> scale{std::max(s0 / n, 1e-30),
                                    std::max(s1 / n, 1e-30),
                                    std::max(s2 / n, 1e-30)};
  std::vector<double> xtx(9, 0.0), xty(3, 0.0);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    std::array<double, 3> x;
    for (int c = 0; c < 3; ++c) x[static_cast<std::size_t>(c)] =
        rows[k][static_cast<std::size_t>(c)] / scale[static_cast<std::size_t>(c)];
    for (int r = 0; r < 3; ++r) {
      xty[static_cast<std::size_t>(r)] += x[static_cast<std::size_t>(r)] * timings[k].t;
      for (int c = 0; c < 3; ++c)
        xtx[static_cast<std::size_t>(r * 3 + c)] +=
            x[static_cast<std::size_t>(r)] * x[static_cast<std::size_t>(c)];
    }
  }
  // Ridge term: the three work dimensions can be nearly collinear (flops
  // and accesses both ~linear in Q); a tiny diagonal keeps the solve
  // stable without visibly biasing resolvable coefficients.
  for (int r = 0; r < 3; ++r) xtx[static_cast<std::size_t>(r * 3 + r)] += 1e-9 * n;

  const auto c_scaled = solve_linear_system(std::move(xtx), std::move(xty), 3,
                                             "fit_cache_aware");
  auto model = std::make_unique<CacheAwareModel>(
      c_scaled[0] / scale[0], c_scaled[1] / scale[1], c_scaled[2] / scale[2],
      std::move(table));
  score_model(*model, timings, 3);
  return model;
}

std::unique_ptr<CacheAwareModel> retarget(const CacheAwareModel& calibrated,
                                          std::vector<WorkCounts> new_table) {
  std::sort(new_table.begin(), new_table.end(),
            [](const WorkCounts& a, const WorkCounts& b) { return a.q < b.q; });
  return std::make_unique<CacheAwareModel>(calibrated.c_flop(), calibrated.c_mem(),
                                           calibrated.c_miss(),
                                           std::move(new_table));
}

std::unique_ptr<CacheAwareModel> retarget(const CacheAwareModel& calibrated,
                                          const WorkCounter& counter,
                                          const hwc::CacheSim& geometry) {
  CCAPERF_REQUIRE(counter != nullptr, "retarget: null work counter");
  std::vector<WorkCounts> table;
  table.reserve(calibrated.table().size());
  for (const WorkCounts& w : calibrated.table())
    table.push_back(counter(w.q, geometry));
  return retarget(calibrated, std::move(table));
}

}  // namespace core
