// Coalesced ghost exchange: one packed message per (neighbor rank,
// direction) per round — O(neighbor ranks), not O(overlapping patch
// pairs) — and the packed segments must reproduce exactly the field an
// uncoalesced per-pair exchange would deliver. Checked end-to-end on a
// 3-level regridded hierarchy by comparing against the serial run, where
// every transfer is a direct local copy.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "amr/hierarchy.hpp"
#include "mpp/runtime.hpp"

namespace {

using amr::BcSpec;
using amr::Box;
using amr::Hierarchy;
using amr::HierarchyConfig;
using amr::IntVect;

HierarchyConfig config() {
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

amr::Hierarchy::FlagFn flag_center_blob() {
  return [](const Hierarchy& h, int l, const amr::PatchInfo& p,
            amr::FlagField& flags) {
    const Box dom = h.domain_at(l);
    const int cx = (dom.lo().i + dom.hi().i) / 2;
    const int cy = (dom.lo().j + dom.hi().j) / 2;
    const Box blob = Box{cx - 4, cy - 4, cx + 4, cy + 4} & p.box;
    for (int j = blob.lo().j; j <= blob.hi().j; ++j)
      for (int i = blob.lo().i; i <= blob.hi().i; ++i) flags.set({i, j});
  };
}

/// Non-trivial analytic field so every packed segment carries distinct data.
double field(const Hierarchy& h, int l, int i, int j, int c) {
  const double x = (i + 0.5) * h.dx(l), y = (j + 0.5) * h.dy(l);
  return std::sin(3.0 * x) * std::cos(2.0 * y) + 10.0 * c + 0.25 * x * y;
}

void fill_all(Hierarchy& h) {
  for (int l = 0; l < h.num_levels(); ++l)
    for (auto& [id, data] : h.level(l).local_data()) {
      const Box g = data.grown_box();
      for (int c = 0; c < data.ncomp(); ++c)
        for (int j = g.lo().j; j <= g.hi().j; ++j)
          for (int i = g.lo().i; i <= g.hi().i; ++i)
            data(i, j, c) = field(h, l, i, j, c);
    }
}

void clobber_ghosts(Hierarchy& h) {
  for (int l = 0; l < h.num_levels(); ++l)
    for (auto& [id, data] : h.level(l).local_data()) {
      const Box inner = h.level(l).patch(id).box;
      const Box g = data.grown_box();
      for (int c = 0; c < data.ncomp(); ++c)
        for (int j = g.lo().j; j <= g.hi().j; ++j)
          for (int i = g.lo().i; i <= g.hi().i; ++i)
            if (!inner.contains(IntVect{i, j})) data(i, j, c) = -4444.0;
    }
}

/// One rank's view of the filled hierarchy, keyed by (level, i, j, c) so
/// runs with different rank counts, and so different patch layouts, can be
/// compared cell by cell.
using CellKey = std::tuple<int, int, int, int>;
struct Ghost {
  CellKey key;
  double value = 0.0;
  /// Diagonal to its patch: outside the patch's i-range and j-range.
  bool corner = false;
};
struct Cells {
  std::map<CellKey, double> interior;  ///< owned interiors
  std::vector<Ghost> ghosts;           ///< in-domain ghosts
};

Cells collect_cells(const Hierarchy& h) {
  Cells out;
  for (int l = 0; l < h.num_levels(); ++l) {
    const Box dom = h.domain_at(l);
    for (const auto& [id, data] : h.level(l).local_data()) {
      const Box inner = h.level(l).patch(id).box;
      const Box g = data.grown_box();
      for (int c = 0; c < data.ncomp(); ++c)
        for (int j = g.lo().j; j <= g.hi().j; ++j)
          for (int i = g.lo().i; i <= g.hi().i; ++i) {
            const CellKey key{l, i, j, c};
            if (inner.contains(IntVect{i, j}))
              EXPECT_TRUE(out.interior.emplace(key, data(i, j, c)).second);
            else if (dom.contains(IntVect{i, j}))
              out.ghosts.push_back(Ghost{
                  key, data(i, j, c),
                  (i < inner.lo().i || i > inner.hi().i) &&
                      (j < inner.lo().j || j > inner.hi().j)});
          }
    }
  }
  return out;
}

/// Builds the 3-level regridded hierarchy, refills analytically, clobbers
/// ghosts, refills them through the (coalesced) exchange, and returns this
/// rank's cells plus the per-level exchange stats.
Cells run_scenario(mpp::Comm& world, std::vector<amr::ExchangeStats>* stats) {
  Hierarchy h(world, config());
  h.init_level0();
  fill_all(h);
  h.regrid(flag_center_blob());
  EXPECT_EQ(h.num_levels(), 3);
  fill_all(h);
  clobber_ghosts(h);
  for (int l = 0; l < h.num_levels(); ++l) {
    const auto s = h.fill_ghosts(l, BcSpec{});
    if (stats) stats->push_back(s);
  }
  return collect_cells(h);
}

/// Runs the scenario on `nranks` ranks and merges the per-rank cells: the
/// interiors into one map (patches are disjoint, so no key repeats), the
/// ghosts into one list.
Cells run_merged(int nranks) {
  std::vector<Cells> per_rank(static_cast<std::size_t>(nranks));
  mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
    per_rank[static_cast<std::size_t>(world.rank())] =
        run_scenario(world, nullptr);
  });
  Cells all;
  for (Cells& part : per_rank) {
    for (const auto& cell : part.interior)
      EXPECT_TRUE(all.interior.insert(cell).second) << "overlapping patches";
    all.ghosts.insert(all.ghosts.end(), part.ghosts.begin(), part.ghosts.end());
  }
  return all;
}

TEST(CoalescedExchange, MessageCountBoundedByNeighborRanks) {
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    std::vector<amr::ExchangeStats> stats;
    run_scenario(world, &stats);
    const auto peers = static_cast<std::size_t>(world.size() - 1);
    for (const auto& s : stats) {
      EXPECT_LE(s.messages_sent, peers);
      EXPECT_LE(s.messages_received, peers);
      // Coalescing carries the many patch-pair transfers as segments.
      EXPECT_GE(s.segments_sent, s.messages_sent);
      EXPECT_GE(s.segments_received, s.messages_received);
    }
    // Level 0 (16 patches over 3 ranks) genuinely has off-rank neighbors.
    EXPECT_GT(stats.front().segments_sent + stats.front().local_copies, 16u);
  });
}

TEST(CoalescedExchange, GhostValuesMatchSerialRun) {
  // The serial run exchanges purely by local copies (no messages at all);
  // distributed runs must land on the same field through the packed
  // message path, for every rank count. The layout differs between rank
  // counts (fine boxes are cut for balance), so cells are compared by
  // (level, i, j, c), not by patch, all exactly:
  //  * interiors equal the serial run's;
  //  * every ghost cell inside a sibling's interior equals that sibling;
  //  * every other ghost cell beside its patch (coarse-fine, prolonged
  //    from the gathered coarse halo) equals the serial run's ghost at
  //    that key. Cutting a box keeps the union of boxes and so these keys;
  //    along the patch's face the coarse parent's neighbors lie in the
  //    patch's halo, and across it the halo ends where the serial one
  //    does, so the interpolation slopes agree;
  //  * no ghost cell keeps the clobber value.
  // Coarse-fine ghosts diagonal to their patch are compared only against
  // the clobber value: a halo-edge coarse cell gets no slope, so the value
  // depends on where the patch ends, and the flux stencil never reads them.
  Cells serial;
  mpp::Runtime::run(1, [&](mpp::Comm& world) {
    std::vector<amr::ExchangeStats> stats;
    serial = run_scenario(world, &stats);
    for (const auto& s : stats) EXPECT_EQ(s.messages_sent, 0u);
  });
  ASSERT_FALSE(serial.interior.empty());
  std::map<CellKey, double> serial_cf;
  for (const Ghost& g : serial.ghosts) {
    if (g.corner || serial.interior.count(g.key) != 0) continue;
    const auto [it, fresh] = serial_cf.emplace(g.key, g.value);
    EXPECT_TRUE(fresh || it->second == g.value)
        << "serial coarse-fine ghost differs between patches";
  }
  ASSERT_FALSE(serial_cf.empty());
  for (int nranks : {2, 3, 4}) {
    const Cells distributed = run_merged(nranks);
    EXPECT_TRUE(distributed.interior == serial.interior)
        << "interiors diverged at " << nranks << " ranks";
    long sibling = 0, sibling_bad = 0, cf = 0, cf_bad = 0, clobbered = 0;
    for (const Ghost& g : distributed.ghosts) {
      if (g.value == -4444.0) ++clobbered;
      const auto in = distributed.interior.find(g.key);
      if (in != distributed.interior.end()) {
        ++sibling;
        if (g.value != in->second) ++sibling_bad;
      } else if (!g.corner) {
        ++cf;
        const auto ref = serial_cf.find(g.key);
        if (ref == serial_cf.end() || g.value != ref->second) ++cf_bad;
      }
    }
    EXPECT_GT(sibling, 0) << nranks << " ranks";
    EXPECT_GT(cf, 0) << nranks << " ranks";
    EXPECT_EQ(sibling_bad, 0) << "sibling ghosts diverged at " << nranks
                              << " ranks";
    EXPECT_EQ(cf_bad, 0) << "coarse-fine ghosts diverged at " << nranks
                         << " ranks";
    EXPECT_EQ(clobbered, 0) << "ghosts left unfilled at " << nranks
                            << " ranks";
  }
}

}  // namespace
