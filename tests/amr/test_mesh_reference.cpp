// The AMR mesh loops against frozen per-cell references: prolongation's
// limited-slope interpolation (ghost fill and full fill), restriction's
// conservative average and FlagField::clip_to. The library walks rows and
// columns with hoisted index terms; every result must match the per-cell
// forms below bit for bit. Hierarchies are seeded and run on one rank at
// 1 and 3 pool lanes, with ratios 2 and 3, fine patches flush with the
// domain edge (so their halos are cut by the domain), fine patches one
// coarse cell across and, with one ghost layer, ghost strips one cell wide.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "amr/hierarchy.hpp"
#include "mpp/runtime.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using amr::Box;
using amr::FlagField;
using amr::Hierarchy;
using amr::HierarchyConfig;
using amr::IntVect;
using amr::PatchData;
using Field = std::map<int, PatchData<double>>;

// ---------------------------------------------------------------------------
// Frozen references: the per-cell loops the library used before it hoisted
// the index arithmetic out of them. Do not optimise these.
// ---------------------------------------------------------------------------

double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

void reference_interpolate(const PatchData<double>& coarse_halo,
                           PatchData<double>& fine, const Box& target, int ratio) {
  const Box h = coarse_halo.interior();
  const int ncomp = fine.ncomp();
  for (int c = 0; c < ncomp; ++c) {
    for (int j = target.lo().j; j <= target.hi().j; ++j) {
      const int J = amr::floor_div(j, ratio);
      for (int i = target.lo().i; i <= target.hi().i; ++i) {
        const int I = amr::floor_div(i, ratio);
        if (!h.contains(IntVect{I, J})) continue;
        const double center = coarse_halo(I, J, c);
        double sx = 0.0, sy = 0.0;
        if (h.contains(IntVect{I - 1, J}) && h.contains(IntVect{I + 1, J}))
          sx = minmod(coarse_halo(I + 1, J, c) - center,
                      center - coarse_halo(I - 1, J, c));
        if (h.contains(IntVect{I, J - 1}) && h.contains(IntVect{I, J + 1}))
          sy = minmod(coarse_halo(I, J + 1, c) - center,
                      center - coarse_halo(I, J - 1, c));
        const double fx =
            (static_cast<double>(i - I * ratio) + 0.5) / ratio - 0.5;
        const double fy =
            (static_cast<double>(j - J * ratio) + 0.5) / ratio - 0.5;
        fine(i, j, c) = center + sx * fx + sy * fy;
      }
    }
  }
}

PatchData<double> reference_average(const PatchData<double>& src,
                                    const Box& fine_box, int r) {
  const Box cbox = fine_box.coarsened(r);
  PatchData<double> avg(cbox, 0, src.ncomp(), 0.0);
  const double inv = 1.0 / (r * r);
  for (int c = 0; c < src.ncomp(); ++c)
    for (int J = cbox.lo().j; J <= cbox.hi().j; ++J)
      for (int I = cbox.lo().i; I <= cbox.hi().i; ++I) {
        double sum = 0.0;
        for (int jj = 0; jj < r; ++jj)
          for (int ii = 0; ii < r; ++ii) sum += src(I * r + ii, J * r + jj, c);
        avg(I, J, c) = sum * inv;
      }
  return avg;
}

void reference_clip(FlagField& flags, const std::vector<Box>& keep) {
  const Box region = flags.region();
  for (int j = region.lo().j; j <= region.hi().j; ++j)
    for (int i = region.lo().i; i <= region.hi().i; ++i) {
      const std::size_t k =
          static_cast<std::size_t>(j - region.lo().j) *
              static_cast<std::size_t>(region.width()) +
          static_cast<std::size_t>(i - region.lo().i);
      if (!flags.raw()[k]) continue;
      bool inside = false;
      for (const Box& b : keep) {
        if (b.contains(IntVect{i, j})) {
          inside = true;
          break;
        }
      }
      if (!inside) flags.raw()[k] = 0;
    }
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::uint64_t bits(double v) {
  std::uint64_t u;
  std::memcpy(&u, &v, sizeof u);
  return u;
}

/// Counts cells whose bits differ and reports the first one.
void expect_bit_identical(const PatchData<double>& want,
                          const PatchData<double>& got, const std::string& what) {
  ASSERT_EQ(want.grown_box(), got.grown_box()) << what;
  ASSERT_EQ(want.ncomp(), got.ncomp()) << what;
  const Box g = want.grown_box();
  long diffs = 0;
  std::ostringstream first;
  first.precision(17);
  for (int c = 0; c < want.ncomp(); ++c)
    for (int j = g.lo().j; j <= g.hi().j; ++j)
      for (int i = g.lo().i; i <= g.hi().i; ++i) {
        if (bits(want(i, j, c)) == bits(got(i, j, c))) continue;
        if (diffs++ == 0)
          first << " first at (" << i << "," << j << "," << c << "): want "
                << want(i, j, c) << " got " << got(i, j, c);
      }
  EXPECT_EQ(diffs, 0) << what << first.str();
}

/// Seeded values spread over eight decades, so a change in summation
/// order or a skipped guard shows up as different bits.
void fill_random(Hierarchy& h, ccaperf::Rng& rng) {
  for (int l = 0; l < h.num_levels(); ++l)
    for (auto& [id, data] : h.level(l).local_data())
      for (double& v : data.raw())
        v = rng.uniform(-1.0, 1.0) *
            std::pow(10.0, static_cast<double>(rng.uniform_int(-4, 4)));
}

/// The coarse donor halo prolong gathers for fine patch `f` (one rank:
/// every coarse patch is local).
PatchData<double> reference_halo(const Hierarchy& h, int fine_l, const Box& fbox) {
  const amr::Level& coarse = h.level(fine_l - 1);
  const Box hbox = fbox.grown(h.config().nghost).coarsened(h.config().ratio) &
                   coarse.domain();
  PatchData<double> halo(hbox, 0, h.config().ncomp, 0.0);
  for (const amr::PatchInfo& p : coarse.patches())
    halo.copy_from(coarse.data(p.id), hbox & p.box);
  return halo;
}

struct Case {
  int ratio;
  int nghost;
  int lanes;
  std::uint64_t seed;
};

std::string describe(const Case& k) {
  std::ostringstream os;
  os << "ratio " << k.ratio << " nghost " << k.nghost << " lanes " << k.lanes
     << " seed " << k.seed;
  return os.str();
}

HierarchyConfig config_for(const Case& k) {
  HierarchyConfig cfg;
  cfg.domain = Box{0, 0, 29, 21};
  cfg.max_levels = 3;
  cfg.ratio = k.ratio;
  cfg.nghost = k.nghost;
  cfg.ncomp = 3;
  cfg.level0_patch_size = 8;
  // Unbuffered flags and 1-cell clusters keep a lone flagged column a
  // patch one coarse cell across.
  cfg.cluster = amr::ClusterParams{0.9, 1, 0};
  cfg.flag_buffer = 0;
  return cfg;
}

/// Flags, in each level's own index space: a strip on the domain's left
/// edge, a block in its upper-right corner, a lone column mid-domain and
/// a few seeded cells.
Hierarchy::FlagFn flagger(std::uint64_t seed) {
  auto rng = std::make_shared<ccaperf::Rng>(seed);
  return [rng](const Hierarchy& h, int l, const amr::PatchInfo& p,
               FlagField& flags) {
    const Box dom = h.domain_at(l);
    const int w = dom.width(), ht = dom.height();
    const Box marks[] = {
        Box{dom.lo().i, dom.lo().j + ht / 4, dom.lo().i + 1, dom.lo().j + ht / 2},
        Box{dom.hi().i - 2, dom.hi().j - 2, dom.hi().i, dom.hi().j},
        Box{dom.lo().i + w / 2, dom.lo().j + 2, dom.lo().i + w / 2, dom.lo().j + ht / 3},
    };
    for (const Box& m : marks) {
      const Box b = m & p.box;
      for (int j = b.lo().j; j <= b.hi().j; ++j)
        for (int i = b.lo().i; i <= b.hi().i; ++i) flags.set({i, j});
    }
    for (int n = 0; n < 2; ++n)
      flags.set({static_cast<int>(rng->uniform_int(p.box.lo().i, p.box.hi().i)),
                 static_cast<int>(rng->uniform_int(p.box.lo().j, p.box.hi().j))});
  };
}

struct PoolGuard {
  explicit PoolGuard(int lanes) { ccaperf::set_rank_pool_threads(lanes); }
  ~PoolGuard() { ccaperf::set_rank_pool_threads(1); }
};

/// Builds the case's 3-level hierarchy and checks that it holds the
/// geometry this file is about.
void build(Hierarchy& h, const Case& k) {
  h.init_level0();
  ccaperf::Rng rng(k.seed);
  fill_random(h, rng);
  h.regrid(flagger(k.seed));
  ASSERT_EQ(h.num_levels(), 3) << describe(k);
  bool flush = false, one_across = false, halo_cut = false;
  for (int l = 1; l < 3; ++l) {
    const Box dom = h.domain_at(l);
    for (const amr::PatchInfo& f : h.level(l).patches()) {
      flush |= f.box.lo().i == dom.lo().i || f.box.hi().i == dom.hi().i ||
               f.box.lo().j == dom.lo().j || f.box.hi().j == dom.hi().j;
      one_across |= f.box.width() == k.ratio || f.box.height() == k.ratio;
      halo_cut |= !h.domain_at(l - 1).contains(
          f.box.grown(k.nghost).coarsened(k.ratio));
    }
  }
  EXPECT_TRUE(flush) << describe(k);
  EXPECT_TRUE(one_across) << describe(k);
  EXPECT_TRUE(halo_cut) << describe(k);
}

const Case kCases[] = {
    {2, 2, 1, 11}, {2, 2, 3, 12}, {3, 2, 1, 13}, {3, 2, 3, 14},
    {2, 1, 1, 15}, {3, 1, 3, 16},
};

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

TEST(MeshReference, ProlongMatchesPerCellInterpolation) {
  for (const Case& k : kCases) {
    for (const bool ghosts_only : {true, false}) {
      mpp::Runtime::run(1, [&](mpp::Comm& world) {
        PoolGuard pool(k.lanes);
        Hierarchy h(world, config_for(k));
        build(h, k);
        ccaperf::Rng rng(k.seed * 7 + 1);
        for (int l = 1; l < h.num_levels(); ++l) {
          fill_random(h, rng);
          amr::Level& fine = h.level(l);
          const Box fdom = h.domain_at(l);
          Field want = fine.local_data();
          for (const amr::PatchInfo& f : fine.patches()) {
            const PatchData<double> halo = reference_halo(h, l, f.box);
            if (ghosts_only) {
              const Box ghosts = f.box.grown(k.nghost) & fdom;
              for (const Box& piece : amr::box_subtract(ghosts, f.box))
                reference_interpolate(halo, want.at(f.id), piece, k.ratio);
            } else {
              reference_interpolate(halo, want.at(f.id), f.box, k.ratio);
            }
          }
          h.prolong(l, ghosts_only);
          for (const amr::PatchInfo& f : fine.patches())
            expect_bit_identical(want.at(f.id), fine.data(f.id),
                                 describe(k) + " level " + std::to_string(l) +
                                     (ghosts_only ? " ghosts" : " full") +
                                     " patch " + f.box.to_string());
        }
      });
    }
  }
}

TEST(MeshReference, RestrictMatchesPerCellAverage) {
  for (const Case& k : kCases) {
    mpp::Runtime::run(1, [&](mpp::Comm& world) {
      PoolGuard pool(k.lanes);
      Hierarchy h(world, config_for(k));
      build(h, k);
      ccaperf::Rng rng(k.seed * 7 + 2);
      fill_random(h, rng);
      for (int l = h.num_levels() - 1; l >= 1; --l) {
        const amr::Level& fine = h.level(l);
        amr::Level& coarse = h.level(l - 1);
        Field want = coarse.local_data();
        for (const amr::PatchInfo& f : fine.patches()) {
          const PatchData<double> avg =
              reference_average(fine.data(f.id), f.box, k.ratio);
          for (const amr::PatchInfo& p : coarse.patches())
            want.at(p.id).copy_from(avg, avg.interior() & p.box);
        }
        h.restrict_level(l);
        for (const amr::PatchInfo& p : coarse.patches())
          expect_bit_identical(want.at(p.id), coarse.data(p.id),
                               describe(k) + " level " + std::to_string(l - 1) +
                                   " patch " + p.box.to_string());
      }
    });
  }
}

TEST(MeshReference, ClipToMatchesPerFlagScan) {
  ccaperf::Rng rng(27);
  for (int trial = 0; trial < 200; ++trial) {
    const int ilo = static_cast<int>(rng.uniform_int(-5, 5));
    const int jlo = static_cast<int>(rng.uniform_int(-5, 5));
    const Box region{ilo, jlo, ilo + static_cast<int>(rng.uniform_int(0, 40)),
                     jlo + static_cast<int>(rng.uniform_int(0, 30))};
    FlagField want(region);
    const double density = rng.uniform();
    for (char& f : want.raw()) f = rng.uniform() < density ? 1 : 0;
    // Boxes inside, straddling and outside the region, overlapping each
    // other, 1 cell wide, and sometimes none at all.
    std::vector<Box> keep;
    const int nkeep = static_cast<int>(rng.uniform_int(0, 6));
    for (int n = 0; n < nkeep; ++n) {
      const int i0 = static_cast<int>(rng.uniform_int(ilo - 10, region.hi().i + 5));
      const int j0 = static_cast<int>(rng.uniform_int(jlo - 10, region.hi().j + 5));
      keep.push_back(Box{i0, j0, i0 + static_cast<int>(rng.uniform_int(0, 20)),
                         j0 + static_cast<int>(rng.uniform_int(0, 15))});
    }
    FlagField got = want;
    reference_clip(want, keep);
    got.clip_to(keep);
    ASSERT_TRUE(std::equal(want.raw().begin(), want.raw().end(), got.raw().begin()))
        << "trial " << trial << " region " << region.to_string();
  }
}

}  // namespace
