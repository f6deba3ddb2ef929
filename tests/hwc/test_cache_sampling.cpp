// Sampled CacheSim mode (DESIGN.md §11): batch-level sampling of
// access_run with counter rescaling. Exact mode (stride 1) must be
// bit-identical to a simulator that never heard of sampling; sampled
// counters must land within a stride-dependent tolerance of exact.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "hwc/cache_sim.hpp"

namespace {

using hwc::CacheCounters;
using hwc::CacheSim;

/// Sweep-shaped workload: `reps` passes over `rows` rows of `count`
/// stride-`stride_bytes` elements, one access_run batch per row — the same
/// batch granularity the euler kernels emit.
void run_workload(CacheSim& sim, std::uintptr_t base, int rows, int reps,
                  std::size_t count, std::ptrdiff_t stride_bytes) {
  for (int r = 0; r < reps; ++r)
    for (int j = 0; j < rows; ++j)
      sim.access_run(base + static_cast<std::uintptr_t>(j) * 8192, stride_bytes,
                     count, 8, (j + r) % 3 == 0);
}

TEST(CacheSampling, ExactModeIsBitIdenticalToUnsampled) {
  hwc::XeonHierarchy plain, exact;
  exact.l1.set_sample_stride(1);
  run_workload(plain.l1, 1 << 20, 48, 3, 256, 8);
  run_workload(exact.l1, 1 << 20, 48, 3, 256, 8);
  for (auto get : {&CacheCounters::accesses, &CacheCounters::hits,
                   &CacheCounters::misses, &CacheCounters::evictions,
                   &CacheCounters::writebacks}) {
    EXPECT_EQ(plain.l1.counters().*get, exact.l1.counters().*get);
    EXPECT_EQ(plain.l2.counters().*get, exact.l2.counters().*get);
    // At stride 1 the scaled view is the raw view.
    EXPECT_EQ(exact.l1.counters().*get, exact.l1.scaled_counters().*get);
  }
}

TEST(CacheSampling, ScaledCountersTrackExactAcrossStrides) {
  // 64-batch windows over a 16384-batch homogeneous stream: 256 windows,
  // so every stride gets several sampled windows.
  constexpr unsigned kBurstLog2 = 6;
  hwc::XeonHierarchy exact;
  run_workload(exact.l1, 1 << 20, 64, 256, 256, 8);
  const auto ref = exact.l1.counters();
  ASSERT_GT(ref.misses, 0u);

  for (std::uint32_t stride : {4u, 16u, 64u}) {
    hwc::XeonHierarchy mem;
    mem.l1.set_sample_stride(stride, /*seed=*/stride, kBurstLog2);
    run_workload(mem.l1, 1 << 20, 64, 256, 256, 8);
    const auto s = mem.l1.scaled_counters();
    // Uniform batches + realized-fraction rescale: access volume is exact
    // up to rounding.
    const double acc_err =
        std::abs(static_cast<double>(s.accesses) -
                 static_cast<double>(ref.accesses)) /
        static_cast<double>(ref.accesses);
    const double miss_err = std::abs(static_cast<double>(s.misses) -
                                     static_cast<double>(ref.misses)) /
                            static_cast<double>(ref.misses);
    EXPECT_LE(acc_err, 0.001) << "stride " << stride;
    EXPECT_LE(miss_err, 0.10) << "stride " << stride;
    // The L2 sees only sampled traffic; its scaled view carries the
    // gating L1's realized factor.
    const double f = mem.l1.sample_factor();
    EXPECT_GE(f, 1.0);
    EXPECT_EQ(mem.l2.scaled_counters().accesses,
              static_cast<std::uint64_t>(
                  static_cast<double>(mem.l2.counters().accesses) * f + 0.5));
  }
}

TEST(CacheSampling, SeedShiftsPhaseDeterministically) {
  auto counters_for_seed = [](std::uint64_t seed) {
    hwc::XeonHierarchy mem;
    mem.l1.set_sample_stride(16, seed, /*burst_log2=*/6);
    run_workload(mem.l1, 1 << 20, 64, 256, 256, 8);
    return mem.l1.counters();
  };
  const auto a1 = counters_for_seed(3), a2 = counters_for_seed(3);
  EXPECT_EQ(a1.accesses, a2.accesses);
  EXPECT_EQ(a1.misses, a2.misses);
  // A different phase samples the same volume of a uniform-batch stream.
  const auto b = counters_for_seed(7);
  EXPECT_EQ(a1.accesses, b.accesses);
}

}  // namespace
