// GridHierarchy: level-0 tiling, ghost fills (exchange + prolongation +
// BC), conservative restriction and regridding with proper nesting —
// each checked on 1 and 3 ranks.

#include <gtest/gtest.h>

#include <cmath>

#include "amr/hierarchy.hpp"
#include "mpp/runtime.hpp"

namespace {

using amr::BcSpec;
using amr::Box;
using amr::Hierarchy;
using amr::HierarchyConfig;
using amr::IntVect;

HierarchyConfig small_config() {
  HierarchyConfig cfg;
  cfg.domain = Box{0, 0, 31, 31};
  cfg.max_levels = 3;
  cfg.ratio = 2;
  cfg.nghost = 2;
  cfg.ncomp = 2;
  cfg.level0_patch_size = 8;
  cfg.cluster = amr::ClusterParams{0.7, 4, 0};
  cfg.flag_buffer = 1;
  cfg.geom = amr::Geometry{0.0, 0.0, 1.0 / 32.0, 1.0 / 32.0};
  return cfg;
}

void fill_linear(Hierarchy& h, double a, double b) {
  for (int l = 0; l < h.num_levels(); ++l) {
    const double dx = h.dx(l), dy = h.dy(l);
    for (auto& [id, data] : h.level(l).local_data()) {
      const Box g = data.grown_box();
      for (int c = 0; c < data.ncomp(); ++c)
        for (int j = g.lo().j; j <= g.hi().j; ++j)
          for (int i = g.lo().i; i <= g.hi().i; ++i)
            data(i, j, c) = (c + 1) * (a * (i + 0.5) * dx + b * (j + 0.5) * dy);
    }
  }
}

TEST(Hierarchy, Level0TilesDomainExactly) {
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    ASSERT_EQ(h.num_levels(), 1);
    const auto& lvl = h.level(0);
    EXPECT_EQ(lvl.total_cells(), 32L * 32L);
    // Patches are disjoint and cover the domain.
    const auto rest = amr::box_subtract_all(h.config().domain, lvl.boxes());
    EXPECT_TRUE(rest.empty());
    for (std::size_t i = 0; i < lvl.patches().size(); ++i)
      for (std::size_t j = i + 1; j < lvl.patches().size(); ++j)
        EXPECT_FALSE(lvl.patches()[i].box.intersects(lvl.patches()[j].box));
    // Every patch is owned by a valid rank; local data allocated.
    for (const auto& p : lvl.patches()) {
      EXPECT_GE(p.owner, 0);
      EXPECT_LT(p.owner, world.size());
      if (p.owner == world.rank()) {
        EXPECT_TRUE(lvl.has_data(p.id));
      }
    }
  });
}

TEST(Hierarchy, MetadataIdenticalOnAllRanks) {
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    // Hash the metadata and compare via allreduce min==max.
    double hash = 0;
    for (const auto& p : h.level(0).patches())
      hash += p.id * 1.0 + p.box.lo().i * 3.0 + p.box.hi().j * 7.0 + p.owner * 13.0;
    const double lo = world.allreduce_value<mpp::MinOp<double>>(hash);
    const double hi = world.allreduce_value<mpp::MaxOp<double>>(hash);
    EXPECT_DOUBLE_EQ(lo, hi);
  });
}

TEST(Hierarchy, GhostExchangeReproducesLinearField) {
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    fill_linear(h, 2.0, -1.0);
    // Clobber ghosts, then refill via exchange.
    for (auto& [id, data] : h.level(0).local_data()) {
      const Box inner = h.level(0).patch(id).box;
      const Box g = data.grown_box();
      for (int c = 0; c < data.ncomp(); ++c)
        for (int j = g.lo().j; j <= g.hi().j; ++j)
          for (int i = g.lo().i; i <= g.hi().i; ++i)
            if (!inner.contains(IntVect{i, j})) data(i, j, c) = -7777.0;
    }
    h.exchange_and_bc(0, BcSpec{});
    const double dx = h.dx(0), dy = h.dy(0);
    const Box dom = h.domain_at(0);
    for (auto& [id, data] : h.level(0).local_data()) {
      const Box g = data.grown_box();
      for (int j = g.lo().j; j <= g.hi().j; ++j)
        for (int i = g.lo().i; i <= g.hi().i; ++i) {
          if (!dom.contains(IntVect{i, j})) continue;  // BC cells differ
          EXPECT_NEAR(data(i, j, 1),
                      2.0 * (2.0 * (i + 0.5) * dx - 1.0 * (j + 0.5) * dy), 1e-12);
        }
    }
  });
}

amr::Hierarchy::FlagFn flag_center_blob() {
  return [](const Hierarchy& h, int l, const amr::PatchInfo& p,
            amr::FlagField& flags) {
    (void)h;
    // Flag a blob around the domain center at this level's resolution.
    const Box dom = h.domain_at(l);
    const int cx = (dom.lo().i + dom.hi().i) / 2;
    const int cy = (dom.lo().j + dom.hi().j) / 2;
    const Box blob = Box{cx - 4, cy - 4, cx + 4, cy + 4} & p.box;
    for (int j = blob.lo().j; j <= blob.hi().j; ++j)
      for (int i = blob.lo().i; i <= blob.hi().i; ++i) flags.set({i, j});
  };
}

TEST(Hierarchy, RegridCreatesNestedLevels) {
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    fill_linear(h, 1.0, 1.0);
    h.regrid(flag_center_blob());
    ASSERT_EQ(h.num_levels(), 3);
    for (int l = 1; l < h.num_levels(); ++l) {
      const auto& fine = h.level(l);
      const auto& coarse = h.level(l - 1);
      EXPECT_GT(fine.patches().size(), 0u);
      // Proper nesting: each fine box, coarsened and grown by 1, lies in
      // the coarse union (clipped to the domain).
      for (const auto& fp : fine.patches()) {
        const Box need = fp.box.coarsened(2).grown(1) & h.domain_at(l - 1);
        EXPECT_TRUE(amr::box_subtract_all(need, coarse.boxes()).empty())
            << "fine box " << fp.box.to_string() << " violates nesting";
      }
      // Refined boxes must cover the flagged blob at this level.
      const Box dom = h.domain_at(l);
      const int cx = (dom.lo().i + dom.hi().i) / 2;
      const int cy = (dom.lo().j + dom.hi().j) / 2;
      EXPECT_TRUE(
          amr::box_subtract_all(Box{cx - 2, cy - 2, cx + 2, cy + 2}, fine.boxes())
              .empty());
    }
  });
}

TEST(Hierarchy, RegridFillsNewPatchesFromCoarse) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    // Constant field: prolongation must reproduce it exactly.
    for (auto& [id, data] : h.level(0).local_data()) data.fill(42.0);
    h.regrid(flag_center_blob());
    ASSERT_GE(h.num_levels(), 2);
    for (int l = 1; l < h.num_levels(); ++l)
      for (auto& [id, data] : h.level(l).local_data()) {
        const Box box = h.level(l).patch(id).box;
        for (int j = box.lo().j; j <= box.hi().j; ++j)
          for (int i = box.lo().i; i <= box.hi().i; ++i)
            EXPECT_DOUBLE_EQ(data(i, j, 0), 42.0);
      }
  });
}

TEST(Hierarchy, ProlongGhostsLinearFieldWithinSlopeError) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    fill_linear(h, 1.0, 0.5);
    h.regrid(flag_center_blob());
    ASSERT_GE(h.num_levels(), 2);
    fill_linear(h, 1.0, 0.5);  // exact data everywhere, all levels

    // Clobber fine ghosts, prolong, verify against the analytic field.
    auto& fine = h.level(1);
    for (auto& [id, data] : fine.local_data()) {
      const Box inner = fine.patch(id).box;
      const Box g = data.grown_box();
      for (int j = g.lo().j; j <= g.hi().j; ++j)
        for (int i = g.lo().i; i <= g.hi().i; ++i)
          if (!inner.contains(IntVect{i, j})) data(i, j, 0) = -1e9;
    }
    h.prolong(1, /*ghosts_only=*/true);
    const double dx = h.dx(1), dy = h.dy(1);
    const Box dom = h.domain_at(1);
    // Linear reproduction is exact where the limited slopes see both
    // neighbors; at halo edges the slope degrades to piecewise-constant,
    // bounded by one coarse-cell variation.
    const double tol = 1.0 * h.dx(0) + 0.5 * h.dy(0);
    for (auto& [id, data] : fine.local_data()) {
      const Box inner = fine.patch(id).box;
      const Box g = data.grown_box();
      for (int j = g.lo().j; j <= g.hi().j; ++j)
        for (int i = g.lo().i; i <= g.hi().i; ++i) {
          if (inner.contains(IntVect{i, j}) || !dom.contains(IntVect{i, j}))
            continue;
          const double exact = 1.0 * (i + 0.5) * dx + 0.5 * (j + 0.5) * dy;
          EXPECT_NEAR(data(i, j, 0), exact, tol)
              << "ghost (" << i << "," << j << ")";
        }
    }
  });
}

TEST(Hierarchy, RestrictionConservesLinearField) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    fill_linear(h, 3.0, 2.0);
    h.regrid(flag_center_blob());
    ASSERT_GE(h.num_levels(), 2);
    fill_linear(h, 3.0, 2.0);

    h.restrict_level(1);
    // Under fine patches, coarse values = average of the 4 children =
    // linear field at the coarse center (exact for linear data).
    const double dx0 = h.dx(0), dy0 = h.dy(0);
    for (auto& [id, data] : h.level(0).local_data()) {
      const Box box = h.level(0).patch(id).box;
      for (const auto& fp : h.level(1).patches()) {
        const Box under = box & fp.box.coarsened(2);
        for (int j = under.lo().j; j <= under.hi().j; ++j)
          for (int i = under.lo().i; i <= under.hi().i; ++i) {
            const double exact = 3.0 * (i + 0.5) * dx0 + 2.0 * (j + 0.5) * dy0;
            EXPECT_NEAR(data(i, j, 0), exact, 1e-12);
          }
      }
    }
  });
}

TEST(Hierarchy, RegridWithNoFlagsDropsFineLevels) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    h.init_level0();
    h.regrid(flag_center_blob());
    ASSERT_GE(h.num_levels(), 2);
    // Now nothing is flagged. Levels collapse one per pass: the first
    // regrid keeps a level-1 footprint covering the old level 2 (the
    // keep-deeper-levels-covered rule), the second drops it too.
    const auto no_flags =
        [](const Hierarchy&, int, const amr::PatchInfo&, amr::FlagField&) {};
    h.regrid(no_flags);
    EXPECT_EQ(h.num_levels(), 2);
    h.regrid(no_flags);
    EXPECT_EQ(h.num_levels(), 1);
  });
}

TEST(Hierarchy, RepeatedRegridWithGradientFlaggerStaysTight) {
  // Regression: the estimator reads one ghost layer. A level installed by
  // the previous regrid iteration used to expose uninitialized ghosts to
  // the flagger, which then saw huge jumps along every patch seam and
  // spuriously refined the seams. With ghosts refilled before flagging,
  // repeated regrids around a single sharp feature must stay confined to
  // the feature.
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    auto cfg = small_config();
    cfg.ncomp = 1;
    Hierarchy h(world, cfg);
    h.init_level0();

    // Field: jump across the column i = 16 (level-0 index space).
    auto fill_feature = [&h]() {
      for (int l = 0; l < h.num_levels(); ++l) {
        const int jump_i = 16 << l;
        for (auto& [id, data] : h.level(l).local_data()) {
          const Box g = data.grown_box();
          for (int j = g.lo().j; j <= g.hi().j; ++j)
            for (int i = g.lo().i; i <= g.hi().i; ++i)
              data(i, j, 0) = i < jump_i ? 1.0 : 3.0;
        }
      }
    };
    const auto gradient_flagger = [](const Hierarchy& hh, int l,
                                     const amr::PatchInfo& p,
                                     amr::FlagField& flags) {
      const amr::PatchData<double>& u = hh.level(l).data(p.id);
      for (int j = p.box.lo().j; j <= p.box.hi().j; ++j)
        for (int i = p.box.lo().i; i <= p.box.hi().i; ++i) {
          const double d = std::max(std::abs(u(i + 1, j, 0) - u(i, j, 0)),
                                    std::abs(u(i, j, 0) - u(i - 1, j, 0)));
          if (d / u(i, j, 0) > 0.1) flags.set({i, j});
        }
    };

    fill_feature();
    h.regrid(gradient_flagger);
    fill_feature();
    ASSERT_GE(h.num_levels(), 2);
    const long cells_first = h.level(1).total_cells();

    // Second pass flags on the *new* level 1 (migrated data + ghosts).
    h.regrid(gradient_flagger);
    fill_feature();
    ASSERT_GE(h.num_levels(), 2);
    const long cells_second = h.level(1).total_cells();

    // Confined to a band around the jump: no seam blow-up.
    EXPECT_LE(cells_second, 2 * cells_first);
    for (const auto& p : h.level(1).patches()) {
      EXPECT_GE(p.box.hi().i, 32 - 2 * 2 * (cfg.flag_buffer + 4));
      EXPECT_LE(p.box.lo().i, 32 + 2 * 2 * (cfg.flag_buffer + 4));
    }
  });
}

TEST(Hierarchy, DxHalvesPerLevel) {
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    Hierarchy h(world, small_config());
    EXPECT_DOUBLE_EQ(h.dx(1), h.dx(0) / 2.0);
    EXPECT_DOUBLE_EQ(h.dy(2), h.dy(0) / 4.0);
    EXPECT_EQ(h.domain_at(1), (Box{0, 0, 63, 63}));
    EXPECT_NEAR(h.xc(0, 0), 0.5 / 32.0, 1e-15);
  });
}

TEST(Hierarchy, RejectsBadConfig) {
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    auto cfg = small_config();
    cfg.domain = Box{};
    EXPECT_THROW(Hierarchy(world, cfg), ccaperf::Error);
    cfg = small_config();
    cfg.ratio = 1;
    EXPECT_THROW(Hierarchy(world, cfg), ccaperf::Error);
  });
}

}  // namespace
