// Collective semantics: every collective compared against a locally
// computed reference, across a sweep of communicator sizes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <numeric>
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

TEST_P(CollectivesAtSize, BcastFromEveryRoot) {
  Runtime::run(GetParam(), [](Comm& world) {
    for (int root = 0; root < world.size(); ++root) {
      std::vector<double> data(4, -1.0);
      if (world.rank() == root)
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] = root * 10.0 + static_cast<double>(i);
      world.bcast<double>(data, root);
      for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_DOUBLE_EQ(data[i], root * 10.0 + static_cast<double>(i));
    }
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

TEST_P(CollectivesAtSize, ReduceToEveryRoot) {
  Runtime::run(GetParam(), [](Comm& world) {
    for (int root = 0; root < world.size(); ++root) {
      std::vector<int> in{world.rank()}, out{-1};
      world.reduce<int>(in, out, root);
      if (world.rank() == root)
        EXPECT_EQ(out[0], world.size() * (world.size() - 1) / 2);
      else
        EXPECT_EQ(out[0], -1);
    }
  });
}

TEST_P(CollectivesAtSize, AllgatherAssemblesRankChunks) {
  Runtime::run(GetParam(), [](Comm& world) {
    const std::vector<int> mine{world.rank() * 2, world.rank() * 2 + 1};
    std::vector<int> all(static_cast<std::size_t>(world.size()) * 2);
    world.allgather<int>(mine, all);
    for (std::size_t i = 0; i < all.size(); ++i)
      EXPECT_EQ(all[i], static_cast<int>(i));
  });
}

TEST_P(CollectivesAtSize, GatherToRoot) {
  Runtime::run(GetParam(), [](Comm& world) {
    const std::vector<int> mine{world.rank() + 100};
    std::vector<int> all(static_cast<std::size_t>(world.size()));
    world.gather<int>(mine, all, 0);
    if (world.rank() == 0) {
      for (int r = 0; r < world.size(); ++r)
        EXPECT_EQ(all[static_cast<std::size_t>(r)], r + 100);
    }
  });
}

TEST_P(CollectivesAtSize, AllgathervVariableChunks) {
  Runtime::run(GetParam(), [](Comm& world) {
    // Rank r contributes r+1 elements, value = r.
    const auto n = static_cast<std::size_t>(world.size());
    std::vector<std::size_t> counts(n);
    std::size_t total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      counts[r] = r + 1;
      total += r + 1;
    }
    std::vector<int> mine(static_cast<std::size_t>(world.rank()) + 1, world.rank());
    std::vector<int> all(total, -1);
    world.allgatherv<int>(mine, all, counts);
    std::size_t pos = 0;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t k = 0; k < counts[r]; ++k)
        EXPECT_EQ(all[pos++], static_cast<int>(r));
  });
}

TEST_P(CollectivesAtSize, AlltoallTransposesChunks) {
  Runtime::run(GetParam(), [](Comm& world) {
    const auto n = static_cast<std::size_t>(world.size());
    std::vector<int> out(n), in(n);
    // in[d] = value I address to rank d.
    for (std::size_t d = 0; d < n; ++d)
      in[d] = world.rank() * 1000 + static_cast<int>(d);
    world.alltoall<int>(in, out);
    // out[s] = what rank s addressed to me.
    for (std::size_t s = 0; s < n; ++s)
      EXPECT_EQ(out[s], static_cast<int>(s) * 1000 + world.rank());
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
// results against a locally computed reference, exactly ceil(log2 n) relay
// hops per rank for the dissemination barrier and the Bruck allgathers —
// the O(log n) witness — and the hop totals of the other algorithms.

int ceil_log2(int n) {
  int r = 0;
  while ((1 << r) < n) ++r;
  return r;
}

/// Counts tree hops per outer MPI name plus the enclosing hook brackets, so
/// a test can assert both "O(log n) hops happened" and "the outer accounting
/// the TAU adapter sees is still one bracket per collective call".
struct HopCounter : mpp::CommHooks {
  void on_begin(const char* name) override {
    if (std::strcmp(name, "MPI_Barrier()") == 0) ++barrier_begins;
    if (std::strcmp(name, "MPI_Allgather()") == 0) ++allgather_begins;
    if (std::strcmp(name, "MPI_Allgatherv()") == 0) ++allgatherv_begins;
  }
  void on_end(const char*, std::size_t) override {}
  void on_collective_hop(const mpp::HopEvent& e) override {
    if (std::strcmp(e.op, "MPI_Barrier()") == 0) ++barrier_hops;
    if (std::strcmp(e.op, "MPI_Allgather()") == 0) ++allgather_hops;
    if (std::strcmp(e.op, "MPI_Allgatherv()") == 0) ++allgatherv_hops;
    hop_bytes += e.bytes;
  }
  int barrier_begins = 0, allgather_begins = 0, allgatherv_begins = 0;
  int barrier_hops = 0, allgather_hops = 0, allgatherv_hops = 0;
  std::size_t hop_bytes = 0;
};

class TreeCollectivesAtScale : public ::testing::TestWithParam<int> {};

TEST_P(TreeCollectivesAtScale, BarrierCompletesRepeatedly) {
  Runtime::run(GetParam(), [](Comm& world) {
    for (int i = 0; i < 4; ++i) world.barrier();
  });
}

TEST_P(TreeCollectivesAtScale, AllgatherMatchesReference) {
  Runtime::run(GetParam(), [](Comm& world) {
    const auto n = static_cast<std::size_t>(world.size());
    std::vector<int> mine(3);
    for (int k = 0; k < 3; ++k)
      mine[static_cast<std::size_t>(k)] = world.rank() * 3 + k;
    std::vector<int> tree(n * 3, -1);
    world.allgather<int>(mine, tree);
    for (std::size_t i = 0; i < tree.size(); ++i)
      EXPECT_EQ(tree[i], static_cast<int>(i));
  });
}

TEST_P(TreeCollectivesAtScale, AllgathervMatchesReference) {
  Runtime::run(GetParam(), [](Comm& world) {
    // Variable chunks including empty ones: rank r contributes r % 4
    // elements of value r (zero-size contributions must round-trip).
    const auto n = static_cast<std::size_t>(world.size());
    std::vector<std::size_t> counts(n);
    std::size_t total = 0;
    for (std::size_t r = 0; r < n; ++r) {
      counts[r] = r % 4;
      total += counts[r];
    }
    std::vector<int> mine(static_cast<std::size_t>(world.rank() % 4),
                          world.rank());
    std::vector<int> tree(total, -1);
    world.allgatherv<int>(mine, tree, counts);
    std::size_t pos = 0;
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t k = 0; k < counts[r]; ++k)
        EXPECT_EQ(tree[pos++], static_cast<int>(r));
  });
}

TEST_P(TreeCollectivesAtScale, HopAccountingIsLogarithmicPerRank) {
  const int n = GetParam();
  const int rounds = ceil_log2(n);
  Runtime::run(n, [&](Comm& world) {
    HopCounter hc;
    mpp::HooksInstaller install(&hc);
    world.barrier();
    std::vector<int> mine{world.rank()};
    std::vector<int> all(static_cast<std::size_t>(n));
    world.allgather<int>(mine, all);
    const std::vector<std::size_t> counts(static_cast<std::size_t>(n), 1);
    world.allgatherv<int>(mine, all, counts);
    // One hop per algorithm round per rank, ceil(log2 n) rounds.
    EXPECT_EQ(hc.barrier_hops, rounds);
    EXPECT_EQ(hc.allgather_hops, rounds);
    EXPECT_EQ(hc.allgatherv_hops, rounds);
    // The outer brackets the TAU timers hang off are unchanged: exactly one
    // begin per collective call, hop events strictly inside them.
    EXPECT_EQ(hc.barrier_begins, 1);
    EXPECT_EQ(hc.allgather_begins, 1);
    EXPECT_EQ(hc.allgatherv_begins, 1);
  });
}

TEST_P(TreeCollectivesAtScale, RootedAndPersonalizedMatchReference) {
  Runtime::run(GetParam(), [](Comm& world) {
    const int n = world.size();
    const int last = n - 1;
    std::vector<long> data{-1, -1};
    if (world.rank() == last) data = {7, 11};
    world.bcast<long>(data, last);
    EXPECT_EQ(data, (std::vector<long>{7, 11}));

    const std::vector<long> mine{world.rank(), 1};
    std::vector<long> sum{-1, -1};
    world.reduce<long>(mine, sum, last);
    if (world.rank() == last) {
      EXPECT_EQ(sum, (std::vector<long>{static_cast<long>(n) * (n - 1) / 2, n}));
    }
    EXPECT_EQ((world.allreduce_value<mpp::MaxOp<long>>(world.rank())), last);

    std::vector<long> gathered(static_cast<std::size_t>(n), -1);
    world.gather<long>(std::span<const long>(mine).first(1), gathered, last);
    if (world.rank() == last) {
      for (int r = 0; r < n; ++r) EXPECT_EQ(gathered[static_cast<std::size_t>(r)], r);
    }

    std::vector<long> out(static_cast<std::size_t>(n), -1), in(out.size());
    for (int d = 0; d < n; ++d)
      in[static_cast<std::size_t>(d)] = world.rank() * 1000L + d;
    world.alltoall<long>(in, out);
    for (int s = 0; s < n; ++s)
      EXPECT_EQ(out[static_cast<std::size_t>(s)], s * 1000L + world.rank());
  });
}

TEST_P(TreeCollectivesAtScale, HopTotalsMatchTheAlgorithms) {
  // Summed over ranks: a binomial bcast, reduce or gather makes n - 1 hops,
  // allreduce (reduce + bcast) 2(n - 1) and alltoall n(n - 1).
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
      std::vector<int> one{world.rank()}, sum{0};
      std::vector<int> all(static_cast<std::size_t>(n)), swapped(all.size());
      world.bcast<int>(one, 1);
      world.reduce<int>(one, sum, 2);
      (void)world.allreduce_value<>(1.0);
      world.gather<int>(one, all, 3);
      world.alltoall<int>(all, swapped);
    }
    std::scoped_lock lock(mu);
    for (const auto& [op, k] : oh.hops) total[op] += k;
  });
  EXPECT_EQ(total["MPI_Bcast()"], n - 1);
  EXPECT_EQ(total["MPI_Reduce()"], n - 1);
  EXPECT_EQ(total["MPI_Allreduce()"], 2 * (n - 1));
  EXPECT_EQ(total["MPI_Gather()"], n - 1);
  EXPECT_EQ(total["MPI_Alltoall()"], n * (n - 1));
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

/// The binomial tree rooted at `root`: at level k, relative rank rel (a
/// multiple of 2^(k+1)) absorbs rel + 2^k as acc = acc + child.
double binomial_tree_sum(int n, int root) {
  std::vector<double> acc(static_cast<std::size_t>(n));
  for (int rel = 0; rel < n; ++rel)
    acc[static_cast<std::size_t>(rel)] = order_sensitive((rel + root) % n);
  for (int mask = 1; mask < n; mask <<= 1)
    for (int rel = 0; rel + mask < n; rel += 2 * mask)
      acc[static_cast<std::size_t>(rel)] += acc[static_cast<std::size_t>(rel + mask)];
  return acc[0];
}

class DeterministicReductions : public ::testing::TestWithParam<int> {};

TEST_P(DeterministicReductions, SumIsBitIdenticalAndFollowsTheTree) {
  const int n = GetParam();
  const int root = n - 1;
  const auto allreduce_ref = std::bit_cast<std::uint64_t>(binomial_tree_sum(n, 0));
  const auto reduce_ref = std::bit_cast<std::uint64_t>(binomial_tree_sum(n, root));
  for (int run = 0; run < 20; ++run) {
    std::vector<std::uint64_t> all(static_cast<std::size_t>(n)), at_root(1);
    Runtime::run(n, [&](Comm& world) {
      const double mine = order_sensitive(world.rank());
      all[static_cast<std::size_t>(world.rank())] =
          std::bit_cast<std::uint64_t>(world.allreduce_value<>(mine));
      std::vector<double> in{mine}, out{0.0};
      world.reduce<double>(in, out, root);
      if (world.rank() == root) at_root[0] = std::bit_cast<std::uint64_t>(out[0]);
    });
    for (int r = 0; r < n; ++r)
      EXPECT_EQ(all[static_cast<std::size_t>(r)], allreduce_ref)
          << "allreduce run " << run << " rank " << r;
    EXPECT_EQ(at_root[0], reduce_ref) << "reduce run " << run;
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
