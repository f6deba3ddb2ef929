#pragma once
// Cache-parameterized performance models — the paper's stated future work
// (§6): "Any significant change, such as halving of the cache size, will
// have a large effect on the coefficients in the models... Ideally, the
// coefficients should be parameterized by processor speed and a cache
// model. We will address this in future work, where the cache information
// collected during these tests will be employed."
//
// CacheAwareModel does exactly that. Instead of fitting T(Q) directly, it
// decomposes the cost into architecture-neutral work counts obtained from
// the hwc substrate —
//     T(Q) ~ c_flop * FLOPS(Q) + c_mem * ACCESSES(Q) + c_miss * MISSES(Q; cache)
// — and calibrates the three machine coefficients by least squares against
// measured timings. FLOPS/ACCESSES depend only on the algorithm; MISSES
// comes from replaying the kernel through a CacheSim with the *target*
// machine's geometry. Re-predicting for a different cache is then just
// re-simulating MISSES — no re-measurement needed.

#include <functional>
#include <memory>
#include <vector>

#include "core/modeling.hpp"
#include "hwc/cache_sim.hpp"

namespace core {

/// Architecture-neutral work counts of one kernel invocation at size Q.
struct WorkCounts {
  double q = 0.0;
  double flops = 0.0;
  double accesses = 0.0;  ///< loads + stores issued
  double misses = 0.0;    ///< misses at the modeled cache level
};

/// Produces the work counts for a given Q under a given cache geometry
/// (typically: run the kernel with an hwc::CacheProbe).
using WorkCounter = std::function<WorkCounts(double q, const hwc::CacheSim& geometry)>;

/// T(Q) = c_flop*FLOPS + c_mem*ACCESSES + c_miss*MISSES, with coefficients
/// calibrated on one machine and MISSES re-simulated per cache geometry.
class CacheAwareModel final : public PerfModel {
 public:
  CacheAwareModel(double c_flop, double c_mem, double c_miss,
                  std::vector<WorkCounts> table)
      : c_flop_(c_flop), c_mem_(c_mem), c_miss_(c_miss), table_(std::move(table)) {}

  /// Predicts from the work-count table (piecewise-linear in Q between
  /// tabulated points; clamped at the ends).
  double predict(double q) const override;
  std::string formula() const override;
  std::string family() const override { return "cache-aware"; }

  double c_flop() const { return c_flop_; }
  double c_mem() const { return c_mem_; }
  double c_miss() const { return c_miss_; }
  const std::vector<WorkCounts>& table() const { return table_; }

  /// Work counts at Q, piecewise-linear between tabulated points.
  WorkCounts interpolate(double q) const;

 private:
  double c_flop_, c_mem_, c_miss_;
  std::vector<WorkCounts> table_;  // sorted by q
};

/// Calibrates the machine coefficients against measured (Q, time) samples:
/// least squares over the three work dimensions (non-negative solution is
/// not enforced; near-zero/negative coefficients indicate a dimension the
/// timings cannot resolve). `counts` must cover the sampled Q values
/// (nearest tabulated point is used).
std::unique_ptr<CacheAwareModel> fit_cache_aware(
    const std::vector<Sample>& timings, const std::vector<WorkCounts>& counts);

/// Transfers a calibrated model to a different cache: same coefficients,
/// re-simulated miss table.
std::unique_ptr<CacheAwareModel> retarget(const CacheAwareModel& calibrated,
                                          std::vector<WorkCounts> new_table);

/// Convenience overload: rebuilds the miss table by running `counter` (a
/// traced-kernel replay, typically through hwc::CacheProbe's batched run
/// API) at every tabulated Q of the calibrated model under `geometry`.
std::unique_ptr<CacheAwareModel> retarget(const CacheAwareModel& calibrated,
                                          const WorkCounter& counter,
                                          const hwc::CacheSim& geometry);

}  // namespace core
