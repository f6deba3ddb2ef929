// split_for_balance: cutting a new fine level's boxes so LPT can balance
// them. Properties on random disjoint box lists at 2-16 ranks (exact
// cell-by-cell cover, width floor, determinism, identity at one rank,
// makespan never raised), plus known-answer layouts.

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "amr/load_balance.hpp"
#include "support/rng.hpp"

namespace {

using amr::Box;

/// Up to `n` disjoint random boxes in a 96x96 region; sides 1-40, so some
/// inputs are already narrower than the width floor.
std::vector<Box> random_disjoint_boxes(int n, std::uint64_t seed) {
  ccaperf::Rng rng(seed);
  std::vector<Box> boxes;
  for (int tries = 0; tries < 50 * n && static_cast<int>(boxes.size()) < n;
       ++tries) {
    const int w = static_cast<int>(rng.uniform_int(1, 40));
    const int h = static_cast<int>(rng.uniform_int(1, 40));
    const int i = static_cast<int>(rng.uniform_int(0, 96 - w));
    const int j = static_cast<int>(rng.uniform_int(0, 96 - h));
    const Box b{i, j, i + w - 1, j + h - 1};
    bool overlaps = false;
    for (const Box& o : boxes) overlaps = overlaps || o.intersects(b);
    if (!overlaps) boxes.push_back(b);
  }
  return boxes;
}

std::set<std::pair<int, int>> cells_of(const std::vector<Box>& boxes) {
  std::set<std::pair<int, int>> cells;
  for (const Box& b : boxes)
    for (int j = b.lo().j; j <= b.hi().j; ++j)
      for (int i = b.lo().i; i <= b.hi().i; ++i) cells.emplace(i, j);
  return cells;
}

struct Case {
  std::vector<Box> boxes;
  int nranks;
  int min_width;
};

std::vector<Case> random_cases() {
  std::vector<Case> cases;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const int n = 1 + static_cast<int>(seed % 9);
    const int nranks = 2 + static_cast<int>(seed % 15);       // 2..16
    const int min_width = 1 + static_cast<int>(seed % 4) * 3;  // 1,4,7,10
    cases.push_back({random_disjoint_boxes(n, seed), nranks, min_width});
  }
  return cases;
}

TEST(SplitForBalance, CoversExactlyTheInputCellsWithDisjointPieces) {
  for (const Case& c : random_cases()) {
    const auto out = amr::split_for_balance(c.boxes, c.nranks, c.min_width);
    long sum = 0;
    for (const Box& b : out) {
      EXPECT_FALSE(b.empty());
      sum += b.num_pts();
    }
    const auto cells = cells_of(out);
    // Equal sums and equal cell sets: no cell is covered twice.
    EXPECT_EQ(static_cast<long>(cells.size()), sum);
    EXPECT_EQ(cells, cells_of(c.boxes)) << "nranks=" << c.nranks;
  }
}

TEST(SplitForBalance, NoCutBelowMinWidth) {
  for (const Case& c : random_cases()) {
    for (const Box& piece : amr::split_for_balance(c.boxes, c.nranks, c.min_width)) {
      const Box* parent = nullptr;
      for (const Box& b : c.boxes)
        if (b.contains(piece)) parent = &b;
      ASSERT_NE(parent, nullptr) << piece << " straddles input boxes";
      if (piece.width() < parent->width()) {
        EXPECT_GE(piece.width(), c.min_width) << piece << " from " << *parent;
      }
      if (piece.height() < parent->height()) {
        EXPECT_GE(piece.height(), c.min_width) << piece << " from " << *parent;
      }
    }
  }
}

TEST(SplitForBalance, SameOutputOnEveryCall) {
  for (const Case& c : random_cases())
    EXPECT_EQ(amr::split_for_balance(c.boxes, c.nranks, c.min_width),
              amr::split_for_balance(c.boxes, c.nranks, c.min_width));
}

TEST(SplitForBalance, IdentityAtOneRank) {
  for (const Case& c : random_cases())
    EXPECT_EQ(amr::split_for_balance(c.boxes, 1, c.min_width), c.boxes);
}

TEST(SplitForBalance, NeverRaisesTheMakespan) {
  int lowered = 0;
  for (const Case& c : random_cases()) {
    const long before = amr::lpt_makespan(c.boxes, c.nranks);
    const long after = amr::lpt_makespan(
        amr::split_for_balance(c.boxes, c.nranks, c.min_width), c.nranks);
    EXPECT_LE(after, before) << "nranks=" << c.nranks;
    lowered += after < before ? 1 : 0;
  }
  EXPECT_GT(lowered, 0);  // the random cases do exercise the cutting
}

TEST(SplitForBalance, WholeLevelOnThreeRanksBecomesThreeSlabs) {
  // One box over the whole 96x48 level: the share is 1536 cells, so the
  // box is cut across its longer side into three 32-wide slabs. Bisecting
  // a slab further cannot lower the 1536 makespan.
  const std::vector<Box> whole{Box{0, 0, 95, 47}};
  EXPECT_EQ(amr::split_for_balance(whole, 3, 8),
            (std::vector<Box>{Box{0, 0, 31, 47}, Box{32, 0, 63, 47},
                              Box{64, 0, 95, 47}}));
}

TEST(SplitForBalance, WidthFloorLeavesNarrowBoxesWhole) {
  // 15 cells across cannot make two slabs of at least 8.
  const std::vector<Box> narrow{Box{0, 0, 14, 14}, Box{20, 0, 20, 0}};
  EXPECT_EQ(amr::split_for_balance(narrow, 4, 8), narrow);
}

TEST(SplitForBalance, SlabsThatPlaceWorseAreDropped) {
  // The 33x21 box is over the 3-rank share (2015 / 3 -> 672 cells) and
  // would be cut into 16x21 + 17x21, but LPT places those pieces with a
  // makespan of 707 against the whole boxes' 693, and bisecting further
  // does not help: the input comes back unchanged.
  std::vector<Box> boxes;
  int x = 0;
  for (const auto& [w, h] : {std::pair{16, 40}, {11, 4}, {15, 14}, {33, 21},
                             {35, 4}, {18, 16}}) {
    boxes.push_back(Box{x, 0, x + w - 1, h - 1});
    x += w + 1;
  }
  EXPECT_EQ(amr::lpt_makespan(boxes, 3), 693);
  EXPECT_EQ(amr::split_for_balance(boxes, 3, 5), boxes);
}

TEST(SplitForBalance, EmptyInput) {
  EXPECT_TRUE(amr::split_for_balance({}, 3, 8).empty());
}

}  // namespace
