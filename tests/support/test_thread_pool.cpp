// Property suite for ccaperf::ThreadPool (DESIGN.md §9): every index runs
// exactly once regardless of lane count, stealing and nested helping,
// exceptions surface on the caller, idle lanes help the nested calls of
// busy ones without ever holding two top-level items, calls nested deeper
// run inline, the region-end hook fires at top level only, and regions
// that follow each other closely or after long gaps all run clean.

#include "support/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "support/error.hpp"

namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (int lanes : {1, 2, 3, 4, 7}) {
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                          std::size_t{17}, std::size_t{1000}}) {
      ccaperf::ThreadPool pool(lanes);
      std::vector<std::atomic<int>> hits(n);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(n, [&](std::size_t i, int lane) {
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, pool.size());
        hits[i].fetch_add(1, std::memory_order_relaxed);
      });
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "lanes=" << lanes << " n=" << n
                                     << " i=" << i;
    }
  }
}

TEST(ThreadPool, SumConservationUnderIrregularLoad) {
  ccaperf::ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  std::atomic<long> sum{0};
  pool.parallel_for(kN, [&](std::size_t i, int) {
    // Skewed costs provoke stealing: early indices are ~100x heavier.
    volatile double x = 1.0;
    const int spins = i < 50 ? 20000 : 200;
    for (int k = 0; k < spins; ++k) x = x * 1.0000001;
    sum.fetch_add(static_cast<long>(i) + 1, std::memory_order_relaxed);
  });
  EXPECT_EQ(sum.load(), static_cast<long>(kN * (kN + 1) / 2));
}

TEST(ThreadPool, StealsHappenWhenOneLaneIsSlow) {
  ccaperf::ThreadPool pool(4);
  // One long-running front chunk (owned by lane 0) plus many cheap tasks:
  // with only 4 lanes the other lanes drain their own ranges and must
  // steal the remainder of lane 0's.
  std::atomic<int> ran{0};
  pool.parallel_for(400, [&](std::size_t i, int) {
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), 400);
  EXPECT_GT(pool.steals(), 0u);
}

TEST(ThreadPool, FirstExceptionPropagatesAndPoolSurvives) {
  ccaperf::ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.parallel_for(100,
                        [&](std::size_t i, int) {
                          if (i == 42) throw std::runtime_error("task 42");
                          ran.fetch_add(1, std::memory_order_relaxed);
                        }),
      std::runtime_error);
  EXPECT_LT(ran.load(), 100);  // abort abandons some tasks
  // The pool is reusable after a failed region.
  std::atomic<int> again{0};
  pool.parallel_for(64, [&](std::size_t, int) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), 64);
}

TEST(ThreadPool, BackToBackRegionsRunEveryIndexOnce) {
  // Workers spin for the next region before they park. Most regions here
  // follow the last one at once or after a short busy gap, so they start
  // while the workers still spin; every 500th gap sleeps far longer than
  // the spin, so the workers park and the region must wake them. One
  // region in the middle throws, and the pool must run the next one clean.
  ccaperf::ThreadPool pool(3);
  constexpr int kRegions = 3000;
  constexpr int kThrowAt = kRegions / 2 + 4;  // a 17-index region
  const std::size_t sizes[] = {1, 2, 3, 7, 17};
  std::vector<std::atomic<int>> hits(17);
  const std::uint64_t before = pool.regions();
  for (int r = 0; r < kRegions; ++r) {
    const std::size_t n = sizes[r % 5];
    for (auto& h : hits) h.store(0);
    if (r == kThrowAt) {
      EXPECT_THROW(pool.parallel_for(n,
                                     [&](std::size_t i, int) {
                                       hits[i].fetch_add(1);
                                       if (i + 1 == n)
                                         throw std::runtime_error("last");
                                     }),
                   std::runtime_error);
      for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_LE(hits[i].load(), i < n ? 1 : 0) << "region " << r;
      continue;
    }
    pool.parallel_for(n, [&](std::size_t i, int) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), i < n ? 1 : 0)
          << "region " << r << " n=" << n << " i=" << i;
    if (r % 500 == 250) {
      std::this_thread::sleep_for(std::chrono::microseconds(400));
    } else if (r % 2 == 1) {
      volatile double x = 1.0;
      for (int k = 0; k < 200; ++k) x = x * 1.0000001;
    }
  }
  EXPECT_EQ(pool.regions() - before, static_cast<std::uint64_t>(kRegions));
}

TEST(ThreadPool, ExceptionPropagatesFromInlinePool) {
  ccaperf::ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(
                   4, [&](std::size_t i, int) {
                     if (i == 2) throw std::logic_error("inline");
                   }),
               std::logic_error);
}

TEST(ThreadPool, NestedIndicesRunExactlyOnce) {
  for (int lanes : {1, 2, 3, 8}) {
    for (std::size_t outer : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
      constexpr std::size_t kInner = 37;
      ccaperf::ThreadPool pool(lanes);
      std::vector<std::atomic<int>> hits(outer * kInner);
      for (auto& h : hits) h.store(0);
      pool.parallel_for(outer, [&](std::size_t o, int) {
        pool.parallel_for(kInner, [&](std::size_t i, int lane) {
          ASSERT_GE(lane, 0);
          ASSERT_LT(lane, pool.size());
          EXPECT_EQ(ccaperf::ThreadPool::current_lane(), lane);
          hits[o * kInner + i].fetch_add(1, std::memory_order_relaxed);
        });
      });
      for (std::size_t k = 0; k < hits.size(); ++k)
        ASSERT_EQ(hits[k].load(), 1) << "lanes=" << lanes << " outer=" << outer
                                     << " k=" << k;
    }
  }
}

TEST(ThreadPool, IdleLanesHelpTheRowsOfAOneJobRegion) {
  // One outer job, as many nested rows as lanes, and every row blocks
  // until all lanes hold one: a lane inside a row cannot take a second,
  // so this completes only if every lane runs a row of the one job. A
  // pool that ran the rows inline would hang here (ctest's timeout).
  for (int lanes : {2, 3, 8}) {
    ccaperf::ThreadPool pool(lanes);
    const unsigned all = (1u << lanes) - 1;
    std::atomic<unsigned> seen{0};
    pool.parallel_for(1, [&](std::size_t, int) {
      pool.parallel_for(static_cast<std::size_t>(lanes),
                        [&](std::size_t, int lane) {
        unsigned m = seen.fetch_or(1u << lane) | (1u << lane);
        seen.notify_all();
        while (m != all) {
          seen.wait(m);
          m = seen.load();
        }
      });
    });
    EXPECT_EQ(seen.load(), all) << "lanes=" << lanes;
  }
}

TEST(ThreadPool, NestedExceptionIsRethrownOnTheOwnerLane) {
  ccaperf::ThreadPool pool(3);
  std::atomic<int> caught_by_owner{0};
  EXPECT_THROW(
      pool.parallel_for(4,
                        [&](std::size_t o, int lane) {
                          try {
                            pool.parallel_for(64, [&](std::size_t i, int) {
                              if (o == 2 && i % 16 == 5)
                                throw std::runtime_error("row");
                            });
                          } catch (const std::runtime_error&) {
                            if (ccaperf::ThreadPool::current_lane() == lane)
                              caught_by_owner.fetch_add(1);
                            throw;
                          }
                        }),
      std::runtime_error);
  EXPECT_EQ(caught_by_owner.load(), 1);
  // Both levels are reusable after the failure.
  std::atomic<int> again{0};
  pool.parallel_for(4, [&](std::size_t, int) {
    pool.parallel_for(64, [&](std::size_t, int) {
      again.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(again.load(), 4 * 64);
}

TEST(ThreadPool, NestedInsideNestedRunsInline) {
  ccaperf::ThreadPool pool(4);
  std::atomic<long> total{0};
  pool.parallel_for(3, [&](std::size_t, int) {
    pool.parallel_for(8, [&](std::size_t, int mid_lane) {
      const std::thread::id self = std::this_thread::get_id();
      pool.parallel_for(5, [&](std::size_t, int inner_lane) {
        EXPECT_EQ(inner_lane, mid_lane);
        EXPECT_EQ(std::this_thread::get_id(), self);
        total.fetch_add(1, std::memory_order_relaxed);
      });
    });
  });
  EXPECT_EQ(total.load(), 3 * 8 * 5);
}

TEST(ThreadPool, NoLaneRunsTwoTopLevelItemsAtOnce) {
  for (int lanes : {2, 3, 8}) {
    ccaperf::ThreadPool pool(lanes);
    std::vector<std::atomic<int>> inside(static_cast<std::size_t>(lanes));
    for (auto& a : inside) a.store(0);
    std::atomic<int> overlaps{0};
    pool.parallel_for(24, [&](std::size_t o, int lane) {
      std::atomic<int>& mine = inside[static_cast<std::size_t>(lane)];
      if (mine.fetch_add(1) != 0) overlaps.fetch_add(1);
      // Uneven nested work keeps some lanes helping while others still
      // hold top-level items.
      pool.parallel_for(8 + o % 5, [&](std::size_t, int) {
        volatile double x = 1.0;
        for (int k = 0; k < 2000; ++k) x = x * 1.0000001;
      });
      mine.fetch_sub(1);
    });
    EXPECT_EQ(overlaps.load(), 0) << "lanes=" << lanes;
  }
}

TEST(ThreadPool, CurrentLaneIsZeroOutsideRegions) {
  EXPECT_EQ(ccaperf::ThreadPool::current_lane(), 0);
  ccaperf::ThreadPool pool(3);
  std::atomic<bool> saw_worker_lane{false};
  pool.parallel_for(64, [&](std::size_t i, int lane) {
    EXPECT_EQ(ccaperf::ThreadPool::current_lane(), lane);
    if (lane > 0) saw_worker_lane.store(true, std::memory_order_relaxed);
    // Index 0 lands on the caller's front chunk: park it until a worker
    // lane has run something, so worker participation is guaranteed even
    // on a single-core host (workers own the tail ranges and must drain
    // them for the region to finish).
    if (i == 0)
      while (!saw_worker_lane.load(std::memory_order_relaxed))
        std::this_thread::yield();
  });
  EXPECT_EQ(ccaperf::ThreadPool::current_lane(), 0);
  EXPECT_TRUE(saw_worker_lane.load());
}

TEST(ThreadPool, RegionEndHookFiresOncePerTopLevelRegion) {
  ccaperf::ThreadPool pool(3);
  int fired = 0;
  pool.set_region_end_hook([&] { ++fired; });
  pool.parallel_for(10, [&](std::size_t, int) {
    pool.parallel_for(3, [&](std::size_t, int) {  // nested: no hook
      pool.parallel_for(2, [](std::size_t, int) {});
    });
  });
  EXPECT_EQ(fired, 1);
  pool.parallel_for(0, [](std::size_t, int) {});  // empty region still ends
  EXPECT_EQ(fired, 2);
  pool.set_region_end_hook(nullptr);
  pool.parallel_for(4, [](std::size_t, int) {});
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(pool.regions(), 3u);
}

TEST(ThreadPool, RegionEndHookFiresEvenOnException) {
  ccaperf::ThreadPool pool(2);
  int fired = 0;
  pool.set_region_end_hook([&] { ++fired; });
  EXPECT_THROW(pool.parallel_for(
                   32, [](std::size_t i, int) {
                     if (i == 5) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  EXPECT_EQ(fired, 1);
}

TEST(ThreadPool, ConfiguredThreadsReadsEnvEachCall) {
  unsetenv("CCAPERF_THREADS");
  EXPECT_EQ(ccaperf::configured_threads(), 1);
  setenv("CCAPERF_THREADS", "6", 1);
  EXPECT_EQ(ccaperf::configured_threads(), 6);
  setenv("CCAPERF_THREADS", "0", 1);
  EXPECT_EQ(ccaperf::configured_threads(), 1);  // clamped
  for (const char* bad : {"abc", "3 lanes", "2.5"}) {
    setenv("CCAPERF_THREADS", bad, 1);
    try {
      ccaperf::configured_threads();
      ADD_FAILURE() << "CCAPERF_THREADS=" << bad << " was accepted";
    } catch (const ccaperf::Error& e) {
      EXPECT_NE(std::string(e.what()).find("CCAPERF_THREADS"),
                std::string::npos)
          << e.what();
    }
  }
  unsetenv("CCAPERF_THREADS");
}

TEST(ThreadPool, SetRankPoolThreadsRebuildsThePool) {
  ccaperf::set_rank_pool_threads(1);
  EXPECT_EQ(ccaperf::rank_pool().size(), 1);
  ccaperf::set_rank_pool_threads(3);
  EXPECT_EQ(ccaperf::rank_pool().size(), 3);
  std::atomic<int> ran{0};
  ccaperf::rank_pool().parallel_for(
      50, [&](std::size_t, int) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 50);
  ccaperf::set_rank_pool_threads(1);
}

}  // namespace
