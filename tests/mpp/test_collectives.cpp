// Collective semantics: barrier, allreduce and dup compared against a
// locally computed reference, across a sweep of communicator sizes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "mpp/runtime.hpp"

namespace {

using mpp::Comm;
using mpp::Runtime;

class CollectivesAtSize : public ::testing::TestWithParam<int> {};

TEST_P(CollectivesAtSize, BarrierCompletes) {
  Runtime::run(GetParam(), [](Comm& world) {
    for (int i = 0; i < 5; ++i) world.barrier();
  });
}

TEST_P(CollectivesAtSize, AllreduceSum) {
  Runtime::run(GetParam(), [](Comm& world) {
    const int n = world.size();
    std::vector<long> in(3), out(3);
    for (int i = 0; i < 3; ++i) in[static_cast<std::size_t>(i)] = world.rank() + i;
    world.allreduce<long>(in, out);
    const long ranksum = static_cast<long>(n) * (n - 1) / 2;
    for (int i = 0; i < 3; ++i)
      EXPECT_EQ(out[static_cast<std::size_t>(i)], ranksum + static_cast<long>(n) * i);
    // In place: the input buffer doubles as the output, as in
    // Hierarchy::merge_flags.
    world.allreduce<long>(in, in);
    EXPECT_EQ(in, out);
  });
}

TEST_P(CollectivesAtSize, AllreduceMinMax) {
  Runtime::run(GetParam(), [](Comm& world) {
    const double mine = 1.0 + world.rank();
    EXPECT_DOUBLE_EQ((world.allreduce_value<mpp::MinOp<double>>(mine)), 1.0);
    EXPECT_DOUBLE_EQ((world.allreduce_value<mpp::MaxOp<double>>(mine)),
                     static_cast<double>(world.size()));
  });
}

TEST_P(CollectivesAtSize, BackToBackCollectivesDoNotCrosstalk) {
  Runtime::run(GetParam(), [](Comm& world) {
    for (int iter = 0; iter < 50; ++iter) {
      const double x = world.rank() + iter * 10.0;
      const double sum = world.allreduce_value<>(x);
      const int n = world.size();
      EXPECT_DOUBLE_EQ(sum, n * (n - 1) / 2.0 + iter * 10.0 * n);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectivesAtSize, ::testing::Values(1, 2, 3, 5, 8));

// --- Collectives at scale --------------------------------------------------
//
// Every collective runs over the per-rank hop relays (DESIGN.md §10). At 64
// (power of two) and 129 (odd, non-power-of-two) ranks these cases pin
// exactly ceil(log2 n) relay hops per rank for the dissemination barrier —
// the O(log n) witness — and the hop totals of the binomial trees.

int ceil_log2(int n) {
  int r = 0;
  while ((1 << r) < n) ++r;
  return r;
}

/// Counts the barrier's hops plus its enclosing hook brackets, so a test
/// can assert both "O(log n) hops happened" and "the outer accounting the
/// TAU adapter sees is still one bracket per collective call".
struct HopCounter : mpp::CommHooks {
  void on_begin(const char* name) override {
    if (std::strcmp(name, "MPI_Barrier()") == 0) ++barrier_begins;
  }
  void on_end(const char*, std::size_t) override {}
  void on_collective_hop(const mpp::HopEvent& e) override {
    if (std::strcmp(e.op, "MPI_Barrier()") == 0) ++barrier_hops;
  }
  int barrier_begins = 0;
  int barrier_hops = 0;
};

class TreeCollectivesAtScale : public ::testing::TestWithParam<int> {};

TEST_P(TreeCollectivesAtScale, BarrierCompletesRepeatedly) {
  Runtime::run(GetParam(), [](Comm& world) {
    for (int i = 0; i < 4; ++i) world.barrier();
  });
}

TEST_P(TreeCollectivesAtScale, HopAccountingIsLogarithmicPerRank) {
  const int n = GetParam();
  const int rounds = ceil_log2(n);
  Runtime::run(n, [&](Comm& world) {
    HopCounter hc;
    mpp::HooksInstaller install(&hc);
    world.barrier();
    // One hop per algorithm round per rank, ceil(log2 n) rounds.
    EXPECT_EQ(hc.barrier_hops, rounds);
    // The outer bracket the TAU timers hang off is unchanged: exactly one
    // begin per collective call, hop events strictly inside it.
    EXPECT_EQ(hc.barrier_begins, 1);
  });
}

TEST_P(TreeCollectivesAtScale, HopTotalsMatchTheAlgorithms) {
  // Summed over ranks: allreduce (binomial reduce + bcast) makes 2(n - 1)
  // hops and dup (a binomial bcast of the context id) n - 1.
  struct OpHops : mpp::CommHooks {
    void on_begin(const char*) override {}
    void on_end(const char*, std::size_t) override {}
    void on_collective_hop(const mpp::HopEvent& e) override { ++hops[e.op]; }
    std::map<std::string, int> hops;
  };
  const int n = GetParam();
  std::mutex mu;
  std::map<std::string, int> total;
  Runtime::run(n, [&](Comm& world) {
    OpHops oh;
    {
      mpp::HooksInstaller install(&oh);
      EXPECT_EQ((world.allreduce_value<mpp::MaxOp<long>>(world.rank())), n - 1);
      (void)world.dup();
    }
    std::scoped_lock lock(mu);
    for (const auto& [op, k] : oh.hops) total[op] += k;
  });
  EXPECT_EQ(total["MPI_Allreduce()"], 2 * (n - 1));
  EXPECT_EQ(total["MPI_Comm_dup()"], n - 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TreeCollectivesAtScale,
                         ::testing::Values(64, 129));

// --- Deterministic reductions ----------------------------------------------
//
// Reductions combine in a fixed binomial-tree order, not in arrival order,
// so a floating-point sum whose value depends on that order is
// bit-identical across runs and ranks, and equals the tree computed
// locally.

/// Rank r's contribution: large terms that cancel plus small ones they
/// absorb, so every combine order can give a different double.
double order_sensitive(int r) {
  constexpr double kValues[] = {1e16, 1.0, -1e16, 3.0, 1e16, -1.0, 2.5, -1e16};
  return kValues[r % 8];
}

/// The binomial tree rooted at rank 0: at level k, rank r (a multiple of
/// 2^(k+1)) absorbs r + 2^k as acc = acc + child.
double binomial_tree_sum(int n) {
  std::vector<double> acc(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) acc[static_cast<std::size_t>(r)] = order_sensitive(r);
  for (int mask = 1; mask < n; mask <<= 1)
    for (int r = 0; r + mask < n; r += 2 * mask)
      acc[static_cast<std::size_t>(r)] += acc[static_cast<std::size_t>(r + mask)];
  return acc[0];
}

class DeterministicReductions : public ::testing::TestWithParam<int> {};

TEST_P(DeterministicReductions, SumIsBitIdenticalAndFollowsTheTree) {
  const int n = GetParam();
  const auto allreduce_ref = std::bit_cast<std::uint64_t>(binomial_tree_sum(n));
  for (int run = 0; run < 20; ++run) {
    std::vector<std::uint64_t> all(static_cast<std::size_t>(n));
    Runtime::run(n, [&](Comm& world) {
      const double mine = order_sensitive(world.rank());
      all[static_cast<std::size_t>(world.rank())] =
          std::bit_cast<std::uint64_t>(world.allreduce_value<>(mine));
    });
    for (int r = 0; r < n; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], allreduce_ref)
          << "allreduce run " << run << " rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeterministicReductions, ::testing::Values(3, 5, 8));

TEST(Collectives, MixedP2PAndCollectives) {
  Runtime::run(3, [](Comm& world) {
    // Interleave a nonblocking exchange ring with allreduces.
    for (int iter = 0; iter < 10; ++iter) {
      const int next = (world.rank() + 1) % world.size();
      const int prev = (world.rank() + world.size() - 1) % world.size();
      int out = world.rank() + iter, in = -1;
      mpp::Request rr = world.irecv_bytes(&in, sizeof in, prev, iter);
      mpp::Request sr = world.isend_bytes(&out, sizeof out, next, iter);
      const double total = world.allreduce_value<>(1.0);
      EXPECT_DOUBLE_EQ(total, 3.0);
      rr.wait();
      sr.wait();
      EXPECT_EQ(in, prev + iter);
    }
  });
}

}  // namespace
