// Property tests for the batched tracing fast path: CacheSim::access_run
// must be *bit-identical* — in every counter at every hierarchy level, and
// in all subsequent behaviour — to calling the scalar `access` once per
// element, for arbitrary strides, element sizes and cache geometries.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hwc/cache_sim.hpp"
#include "support/rng.hpp"

namespace {

using hwc::CacheCounters;
using hwc::CacheSim;

void expect_equal_counters(const CacheCounters& a, const CacheCounters& b,
                           const char* what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

/// Two two-level hierarchies with identical geometry: one driven by
/// access_run, one by the equivalent scalar loop.
struct Pair {
  Pair(std::size_t l1_bytes, std::size_t line, std::size_t l1_ways,
       std::size_t l2_bytes, std::size_t l2_ways)
      : batched_l1(l1_bytes, line, l1_ways), batched_l2(l2_bytes, line, l2_ways),
        scalar_l1(l1_bytes, line, l1_ways), scalar_l2(l2_bytes, line, l2_ways) {
    batched_l1.set_lower(&batched_l2);
    scalar_l1.set_lower(&scalar_l2);
  }

  void run(std::uintptr_t addr, std::ptrdiff_t stride, std::size_t count,
           std::size_t elem, bool is_write) {
    const std::uint64_t m_batched =
        batched_l1.access_run(addr, stride, count, elem, is_write);
    std::uint64_t m_scalar = 0;
    for (std::size_t k = 0; k < count; ++k)
      m_scalar += scalar_l1.access(
          addr + static_cast<std::uintptr_t>(static_cast<std::ptrdiff_t>(k) * stride),
          elem, is_write);
    EXPECT_EQ(m_batched, m_scalar) << "returned miss count diverged";
  }

  void check(const char* what) {
    expect_equal_counters(batched_l1.counters(), scalar_l1.counters(), what);
    expect_equal_counters(batched_l2.counters(), scalar_l2.counters(), what);
  }

  CacheSim batched_l1, batched_l2;
  CacheSim scalar_l1, scalar_l2;
};

TEST(AccessRun, SequentialSweepMatchesScalar) {
  Pair p(8 * 1024, 64, 4, 512 * 1024, 8);
  p.run(0x10000, sizeof(double), 100000, sizeof(double), false);
  p.run(0x10000, sizeof(double), 100000, sizeof(double), true);
  p.check("sequential sweep");
}

TEST(AccessRun, StridedSweepMatchesScalar) {
  Pair p(8 * 1024, 64, 4, 512 * 1024, 8);
  // Row-stride access: every element a new line (the paper's Y-sweep mode).
  p.run(0x10000, 600 * 8, 5000, sizeof(double), false);
  p.run(0x10008, 600 * 8, 5000, sizeof(double), true);
  p.check("strided sweep");
}

TEST(AccessRun, ZeroAndNegativeStrides) {
  Pair p(4 * 1024, 32, 2, 64 * 1024, 4);
  p.run(0x5000, 0, 1000, 4, false);       // hammer one element
  p.run(0x9000, -8, 2000, 8, true);       // backwards sweep
  p.run(0x5001, -24, 500, 16, false);     // misaligned, straddling, backwards
  p.check("zero/negative strides");
}

TEST(AccessRun, StraddlingElementsMatchScalar) {
  Pair p(4 * 1024, 64, 4, 64 * 1024, 8);
  // elem > line: every element touches several lines.
  p.run(0x7003, 96, 3000, 160, true);
  // misaligned doubles crossing line boundaries at irregular points.
  p.run(0x703d, 8, 5000, 8, false);
  p.check("straddling elements");
}

TEST(AccessRun, FlushPreservesEquivalence) {
  Pair p(8 * 1024, 64, 4, 128 * 1024, 8);
  p.run(0x10000, 8, 20000, 8, true);
  p.batched_l1.flush();
  p.scalar_l1.flush();
  // Post-flush behaviour must match: same misses, evictions, writebacks.
  p.run(0x10000, 8, 20000, 8, false);
  p.run(0x10000, 640, 2000, 8, true);
  p.check("after flush");
}

TEST(AccessRun, RandomizedScheduleMatchesScalar) {
  // Random geometries and a random mixed schedule of runs, scalar accesses
  // and flushes: the strongest form of the equivalence property.
  ccaperf::Rng rng(20260805);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t line = std::size_t{16} << rng.uniform_int(0, 2);   // 16..64
    const std::size_t ways = static_cast<std::size_t>(rng.uniform_int(1, 4));
    const std::size_t sets = std::size_t{1} << rng.uniform_int(2, 5);    // 4..32
    const std::size_t l1 = line * ways * sets;
    Pair p(l1, line, ways, l1 * 16, ways * 2);
    for (int op = 0; op < 200; ++op) {
      const auto addr = static_cast<std::uintptr_t>(
          0x1000 + rng.uniform_int(0, 1 << 16));
      const auto stride = static_cast<std::ptrdiff_t>(rng.uniform_int(-128, 128));
      const auto count = static_cast<std::size_t>(rng.uniform_int(0, 400));
      const auto elem = static_cast<std::size_t>(rng.uniform_int(1, 32));
      const bool is_write = rng.uniform_int(0, 1) == 1;
      p.run(addr, stride, count, elem, is_write);
      if (rng.uniform_int(0, 9) == 0) {
        p.batched_l1.flush();
        p.scalar_l1.flush();
      }
      if (rng.uniform_int(0, 9) == 0) {
        p.batched_l2.flush();
        p.scalar_l2.flush();
      }
    }
    p.check("randomized schedule");
  }
}

TEST(AccessRun, EmptyAndDegenerateRuns) {
  Pair p(4 * 1024, 64, 2, 64 * 1024, 4);
  p.run(0x4000, 8, 0, 8, false);   // count == 0
  p.run(0x4000, 8, 10, 0, true);   // elem_bytes == 0: no accesses at all
  p.run(0x4000, 8, 1, 8, true);    // single element
  p.check("degenerate runs");
  EXPECT_EQ(p.batched_l1.counters().accesses, 1u);
}

}  // namespace
