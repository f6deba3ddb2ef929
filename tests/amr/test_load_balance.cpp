#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <tuple>

#include "amr/load_balance.hpp"
#include "support/rng.hpp"

namespace {

using amr::Box;
using amr::PatchInfo;

std::vector<PatchInfo> uniform_patches(int n, int edge) {
  std::vector<PatchInfo> ps;
  for (int k = 0; k < n; ++k)
    ps.push_back(PatchInfo{k, Box{0, k * edge, edge - 1, (k + 1) * edge - 1}, -1});
  return ps;
}

TEST(LoadBalance, KnapsackBalancesUniformLoad) {
  auto ps = uniform_patches(9, 8);
  const double imbalance = amr::balance_owners(ps, 3);
  EXPECT_DOUBLE_EQ(imbalance, 1.0);  // 9 equal patches over 3 ranks
  std::vector<int> count(3, 0);
  for (const auto& p : ps) {
    ASSERT_GE(p.owner, 0);
    ASSERT_LT(p.owner, 3);
    ++count[static_cast<std::size_t>(p.owner)];
  }
  EXPECT_EQ(count, (std::vector<int>{3, 3, 3}));
}

TEST(LoadBalance, KnapsackBalancesSkewedSizes) {
  ccaperf::Rng rng(9);
  std::vector<PatchInfo> skewed;
  for (int k = 0; k < 20; ++k) {
    const int w = static_cast<int>(rng.uniform_int(2, 40));
    const int h = static_cast<int>(rng.uniform_int(2, 40));
    skewed.push_back(PatchInfo{k, Box{0, 0, w - 1, h - 1}, -1});
  }
  const double knap = amr::balance_owners(skewed, 4);
  EXPECT_LT(knap, 1.3);
  // The returned ratio is the max/mean of the loads the owners imply.
  std::vector<long> load(4, 0);
  for (const auto& p : skewed)
    load[static_cast<std::size_t>(p.owner)] += p.box.num_pts();
  const long total = std::accumulate(load.begin(), load.end(), 0L);
  const long peak = *std::max_element(load.begin(), load.end());
  EXPECT_DOUBLE_EQ(knap, static_cast<double>(peak) /
                             (static_cast<double>(total) / 4.0));
}

TEST(LoadBalance, SingleRankGetsEverything) {
  auto ps = uniform_patches(5, 4);
  const double imbalance = amr::balance_owners(ps, 1);
  EXPECT_DOUBLE_EQ(imbalance, 1.0);
  for (const auto& p : ps) EXPECT_EQ(p.owner, 0);
}

TEST(LoadBalance, MoreRanksThanPatches) {
  auto ps = uniform_patches(2, 4);
  amr::balance_owners(ps, 5);
  EXPECT_NE(ps[0].owner, ps[1].owner);
}

TEST(LoadBalance, EmptyPatchListIsFine) {
  std::vector<PatchInfo> none;
  EXPECT_DOUBLE_EQ(amr::balance_owners(none, 3), 1.0);
}

TEST(LoadBalance, DeterministicAcrossCalls) {
  auto a = uniform_patches(11, 6), b = uniform_patches(11, 6);
  amr::balance_owners(a, 3);
  amr::balance_owners(b, 3);
  for (std::size_t k = 0; k < a.size(); ++k) EXPECT_EQ(a[k].owner, b[k].owner);
}

std::vector<PatchInfo> random_patches(int n, std::uint64_t seed) {
  ccaperf::Rng rng(seed);
  std::vector<PatchInfo> ps;
  for (int k = 0; k < n; ++k) {
    const int w = static_cast<int>(rng.uniform_int(2, 48));
    const int h = static_cast<int>(rng.uniform_int(2, 48));
    ps.push_back(PatchInfo{k, Box{0, 0, w - 1, h - 1}, -1});
  }
  return ps;
}

TEST(LoadBalance, HeapPlacementMatchesLinearScanReference) {
  // The min-heap LPT placement (O(log ranks) per patch) must reproduce the
  // old linear min_element probe exactly, including its tie-break: lowest
  // rank among equally loaded ranks.
  for (const auto& [npatch, nranks, seed] :
       {std::tuple{1, 1, 11ull}, {20, 4, 12ull}, {57, 7, 13ull},
        {200, 37, 14ull}, {96, 96, 15ull}, {31, 64, 16ull}}) {
    auto ps = random_patches(npatch, seed);
    auto ref = ps;
    amr::balance_owners(ps, nranks);

    // Reference: stable sort by descending weight, then scan for the
    // least-loaded rank (the pre-heap implementation).
    std::vector<long> weight(ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k)
      weight[k] = ref[k].box.num_pts();
    std::vector<std::size_t> order(ref.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return weight[a] > weight[b];
    });
    std::vector<long> load(static_cast<std::size_t>(nranks), 0);
    for (std::size_t k : order) {
      const auto it = std::min_element(load.begin(), load.end());
      const int r = static_cast<int>(it - load.begin());
      ref[k].owner = r;
      load[static_cast<std::size_t>(r)] += weight[k];
    }
    for (std::size_t k = 0; k < ps.size(); ++k)
      EXPECT_EQ(ps[k].owner, ref[k].owner)
          << "npatch=" << npatch << " nranks=" << nranks << " patch=" << k;
  }
}

}  // namespace
