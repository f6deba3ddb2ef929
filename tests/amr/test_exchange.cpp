// Distributed region copier: ghost exchange correctness must be
// independent of how patches are distributed over ranks (the SCMD
// replicated-plan property), and the wait_some-driven message engine must
// deliver every intersection.

#include <gtest/gtest.h>

#include "amr/exchange.hpp"
#include "mpp/runtime.hpp"

namespace {

using amr::Box;
using amr::Level;
using amr::PatchData;
using amr::PatchInfo;

constexpr int kGhost = 2;
constexpr int kComp = 3;

double field(int i, int j, int c) { return 1000.0 * c + 31.0 * j + i; }

/// Builds a 2x2 patch level over [0,15]^2 with the given owner list and
/// fills interiors with `field`.
Level make_level(const std::vector<int>& owners, int my_rank) {
  Level lvl(0, Box{0, 0, 15, 15}, 1);
  const Box boxes[4] = {{0, 0, 7, 7}, {8, 0, 15, 7}, {0, 8, 7, 15}, {8, 8, 15, 15}};
  for (int k = 0; k < 4; ++k)
    lvl.patches().push_back(PatchInfo{k, boxes[k], owners[static_cast<std::size_t>(k)]});
  for (const PatchInfo& p : lvl.patches()) {
    if (p.owner != my_rank) continue;
    PatchData<double> data(p.box, kGhost, kComp, -999.0);
    for (int c = 0; c < kComp; ++c)
      for (int j = p.box.lo().j; j <= p.box.hi().j; ++j)
        for (int i = p.box.lo().i; i <= p.box.hi().i; ++i)
          data(i, j, c) = field(i, j, c);
    lvl.local_data().emplace(p.id, std::move(data));
  }
  return lvl;
}

/// Every local ghost cell covered by a neighbor's interior must hold the
/// global field value.
void check_ghosts(const Level& lvl, int my_rank) {
  for (const PatchInfo& p : lvl.patches()) {
    if (p.owner != my_rank) continue;
    const PatchData<double>& data = lvl.data(p.id);
    for (int c = 0; c < kComp; ++c) {
      for (int j = p.box.lo().j - kGhost; j <= p.box.hi().j + kGhost; ++j) {
        for (int i = p.box.lo().i - kGhost; i <= p.box.hi().i + kGhost; ++i) {
          if (p.box.contains(amr::IntVect{i, j})) continue;
          bool covered = false;
          for (const PatchInfo& q : lvl.patches())
            if (q.id != p.id && q.box.contains(amr::IntVect{i, j})) covered = true;
          if (covered) {
            EXPECT_DOUBLE_EQ(data(i, j, c), field(i, j, c))
                << "ghost (" << i << "," << j << "," << c << ") of patch " << p.id;
          }
        }
      }
    }
  }
}

TEST(Exchange, SerialGhostFill) {
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    Level lvl = make_level({0, 0, 0, 0}, world.rank());
    const auto stats = amr::exchange_ghosts(world, lvl, kGhost, 0);
    check_ghosts(lvl, world.rank());
    EXPECT_EQ(stats.messages_sent, 0u);  // everything local
    EXPECT_GT(stats.local_copies, 0u);
  });
}

TEST(Exchange, ParallelGhostFillMatchesSerial) {
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    Level lvl = make_level({0, 1, 2, 0}, world.rank());
    amr::exchange_ghosts(world, lvl, kGhost, 0);
    check_ghosts(lvl, world.rank());
  });
}

TEST(Exchange, EveryDistributionGivesSameResult) {
  // Property: sweep several owner assignments; ghosts always correct.
  const std::vector<std::vector<int>> assignments = {
      {0, 0, 1, 1}, {1, 0, 1, 0}, {2, 2, 2, 2}, {0, 1, 2, 1}};
  mpp::Runtime::run(3, [&](mpp::Comm& world) {
    int tag = 0;
    for (const auto& owners : assignments) {
      Level lvl = make_level(owners, world.rank());
      amr::exchange_ghosts(world, lvl, kGhost, tag);
      tag += 64;
      check_ghosts(lvl, world.rank());
      world.barrier();
    }
  });
}

TEST(Exchange, StatsAreConsistentAcrossRanks) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    Level lvl = make_level({0, 1, 1, 0}, world.rank());
    const auto stats = amr::exchange_ghosts(world, lvl, kGhost, 0);
    const double sent = world.allreduce_value<>(static_cast<double>(stats.bytes_sent));
    const double received =
        world.allreduce_value<>(static_cast<double>(stats.bytes_received));
    EXPECT_DOUBLE_EQ(sent, received);
    EXPECT_GT(sent, 0.0);
  });
}

TEST(Exchange, InteriorMigration) {
  // The rebalance pattern: same boxes, new owners, full-interior copy.
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    Level src = make_level({0, 0, 1, 1}, world.rank());
    Level dst = make_level({1, 1, 0, 0}, -1);  // no data allocated yet
    for (const PatchInfo& p : dst.patches()) {
      if (p.owner != world.rank()) continue;
      dst.local_data().emplace(p.id,
                               PatchData<double>(p.box, kGhost, kComp, -1.0));
    }
    auto src_fn = [&src](int id) -> const PatchData<double>* {
      return src.has_data(id) ? &src.data(id) : nullptr;
    };
    auto dst_fn = [&dst](int id) -> PatchData<double>* {
      return dst.has_data(id) ? &dst.data(id) : nullptr;
    };
    amr::exchange_copy(world, src.patches(), src_fn, dst.patches(), dst_fn,
                       [](const PatchInfo& p) { return p.box; },
                       /*skip_same_id=*/false, 0);
    for (const PatchInfo& p : dst.patches()) {
      if (p.owner != world.rank()) continue;
      const PatchData<double>& data = dst.data(p.id);
      for (int j = p.box.lo().j; j <= p.box.hi().j; ++j)
        for (int i = p.box.lo().i; i <= p.box.hi().i; ++i)
          EXPECT_DOUBLE_EQ(data(i, j, 1), field(i, j, 1));
    }
  });
}

TEST(Exchange, ManyPatchesStress) {
  // 8x8 patch grid over 3 ranks: the full waitsome machinery with dozens
  // of in-flight messages.
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    Level lvl(0, Box{0, 0, 63, 63}, 1);
    int id = 0;
    for (int ty = 0; ty < 8; ++ty)
      for (int tx = 0; tx < 8; ++tx)
        lvl.patches().push_back(PatchInfo{
            id++, Box{tx * 8, ty * 8, tx * 8 + 7, ty * 8 + 7}, (tx + ty) % 3});
    for (const PatchInfo& p : lvl.patches()) {
      if (p.owner != world.rank()) continue;
      PatchData<double> data(p.box, kGhost, kComp, -1.0);
      for (int c = 0; c < kComp; ++c)
        for (int j = p.box.lo().j; j <= p.box.hi().j; ++j)
          for (int i = p.box.lo().i; i <= p.box.hi().i; ++i)
            data(i, j, c) = field(i, j, c);
      lvl.local_data().emplace(p.id, std::move(data));
    }
    const auto stats = amr::exchange_ghosts(world, lvl, kGhost, 0);
    // Coalescing bounds the message count by the neighbor-rank count while
    // the dozens of overlapping patch pairs ride along as segments.
    EXPECT_LE(stats.messages_received, 2u);  // nranks - 1
    EXPECT_GT(stats.segments_received, 10u);
    // Globally every off-rank segment sent is received exactly once.
    const double seg_sent =
        world.allreduce_value<>(static_cast<double>(stats.segments_sent));
    const double seg_recv =
        world.allreduce_value<>(static_cast<double>(stats.segments_received));
    EXPECT_DOUBLE_EQ(seg_sent, seg_recv);
    for (const PatchInfo& p : lvl.patches()) {
      if (p.owner != world.rank()) continue;
      const PatchData<double>& data = lvl.data(p.id);
      // Spot-check a ghost row against the field.
      const int j = p.box.lo().j - 1;
      if (j >= 0) {
        for (int i = p.box.lo().i; i <= p.box.hi().i; ++i)
          EXPECT_DOUBLE_EQ(data(i, j, 2), field(i, j, 2));
      }
    }
  });
}

}  // namespace
