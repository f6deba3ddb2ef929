// Differential test of the States kernel against a frozen copy of the
// per-face reconstruction it replaced. The old kernel converted all four
// stencil cells of every face to primitives; the current one converts
// each sweep line once into a strip and reconstructs every face from it.
// At every ISA level the host runs, the faces must equal the reference
// bit for bit, and so must a traced call's faces and exact-mode cache
// counters (a traced call runs the scalar level whatever level is
// active) — both directions, lines shorter than a vector group, lines
// ending in every tail length, nonzero patch origins, and the _mt split
// over pool lanes.
//
// This file is compiled with -ffp-contract=off, like the euler library,
// so the reference rounds exactly as the code it was copied from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "euler/kernels.hpp"
#include "euler/simd.hpp"
#include "hwc/cache_sim.hpp"
#include "support/thread_pool.hpp"

namespace {

using amr::Box;
using amr::PatchData;
using euler::Array2;
using euler::Dir;
using euler::GasModel;
using euler::kNcomp;
using euler::Prim;
using euler::simd::Isa;

// --- frozen reference: the per-face reconstruction ---------------------------

double ref_minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

template <class Probe>
void ref_load_prim_stencil(const PatchData<double>& U, int i0, int j0, Dir dir,
                           const GasModel& gas, Probe& probe,
                           double w[4][kNcomp]) {
  const int di = dir == Dir::x ? 1 : 0;
  const int dj = dir == Dir::x ? 0 : 1;
  const int im2 = i0 - 2 * di;
  const int jm2 = j0 - 2 * dj;
  const std::ptrdiff_t stride = (dir == Dir::x ? 1 : U.row_stride()) *
                                static_cast<std::ptrdiff_t>(sizeof(double));
  for (int c = 0; c < kNcomp; ++c)
    probe.load_run(&U(im2, jm2, c), stride, 4, sizeof(double));
  for (int k = 0; k < 4; ++k) {
    double q[kNcomp];
    for (int c = 0; c < kNcomp; ++c) q[c] = U(im2 + k * di, jm2 + k * dj, c);
    const Prim p = euler::cons_to_prim(q, gas);
    probe.flops(18);
    w[k][0] = p.rho;
    w[k][1] = dir == Dir::x ? p.u : p.v;
    w[k][2] = dir == Dir::x ? p.v : p.u;
    w[k][3] = p.p;
    w[k][4] = p.phi;
  }
}

template <class Probe>
void ref_reconstruct_one_face(const PatchData<double>& U, Dir dir,
                              const GasModel& gas, Array2& left, Array2& right,
                              Probe& probe, int fi, int fj, int i0, int j0) {
  double w[4][kNcomp];
  const std::ptrdiff_t face_comp =
      Array2::comp_stride() * static_cast<std::ptrdiff_t>(sizeof(double));
  ref_load_prim_stencil(U, i0, j0, dir, gas, probe, w);
  for (int c = 0; c < kNcomp; ++c) {
    const double sl = ref_minmod(w[1][c] - w[0][c], w[2][c] - w[1][c]);
    const double sr = ref_minmod(w[2][c] - w[1][c], w[3][c] - w[2][c]);
    left(fi, fj, c) = w[1][c] + 0.5 * sl;
    right(fi, fj, c) = w[2][c] - 0.5 * sr;
  }
  probe.store_run(left.addr(fi, fj, 0), face_comp, kNcomp, sizeof(double));
  probe.store_run(right.addr(fi, fj, 0), face_comp, kNcomp, sizeof(double));
  probe.flops(8 * kNcomp);
}

template <class Probe>
std::uint64_t ref_compute_states(const PatchData<double>& U,
                                 const Box& interior, Dir dir,
                                 const GasModel& gas, Array2& left,
                                 Array2& right, Probe& probe) {
  std::uint64_t faces = 0;
  if (dir == Dir::x) {
    for (int fj = 0; fj < left.ny(); ++fj)
      for (int fi = 0; fi < left.nx(); ++fi, ++faces)
        ref_reconstruct_one_face(U, dir, gas, left, right, probe, fi, fj,
                                 interior.lo().i + fi, interior.lo().j + fj);
  } else {
    for (int fi = 0; fi < left.nx(); ++fi)
      for (int fj = 0; fj < left.ny(); ++fj, ++faces)
        ref_reconstruct_one_face(U, dir, gas, left, right, probe, fi, fj,
                                 interior.lo().i + fi, interior.lo().j + fj);
  }
  return faces;
}

// --- inputs ------------------------------------------------------------------

/// ISA levels this binary can actually run on this host, scalar first.
std::vector<Isa> available_isas() {
  std::vector<Isa> v{Isa::scalar};
  if (euler::simd::set_isa(Isa::avx2) == Isa::avx2) v.push_back(Isa::avx2);
  if (euler::simd::set_isa(Isa::avx512) == Isa::avx512) v.push_back(Isa::avx512);
  euler::simd::set_isa(Isa::scalar);
  return v;
}

struct IsaGuard {
  Isa saved = euler::simd::active();
  ~IsaGuard() { euler::simd::set_isa(saved); }
};

/// Wavy two-gas data: every cell distinct, pressure and density bounded
/// away from zero, phi strictly inside (0, 1) so gamma_of blends both
/// gases, and slopes of both signs so minmod takes every branch.
PatchData<double> wavy_patch(const Box& interior, const GasModel& gas) {
  PatchData<double> p(interior, 2, kNcomp);
  const Box g = p.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const double x = 0.41 * i, y = 0.29 * j;
      const Prim w{1.0 + 0.35 * std::sin(x + 0.6 * y),
                   0.5 * std::cos(0.8 * x) - 0.2 * std::sin(y),
                   0.3 * std::sin(x - 1.3 * y),
                   1.0 + 0.45 * std::cos(0.3 * x * y + 1.0),
                   0.5 + 0.45 * std::sin(0.13 * (i + 3 * j))};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) p(i, j, c) = U[c];
    }
  return p;
}

/// Interiors whose widths and heights run 1 .. 2*8+3, so face lines run
/// 2 .. 20 in both directions: shorter than one AVX2 or AVX-512 group,
/// exact multiples, and every tail length of both widths. (A line of one
/// face would need an empty interior, which has no lines.)
std::vector<Box> line_length_boxes() {
  std::vector<Box> boxes;
  for (int w = 1; w <= 19; ++w) {
    const int h = 20 - w;
    const int i0 = (w % 3) - 1, j0 = 2 - (w % 4);
    boxes.push_back(Box{i0, j0, i0 + w - 1, j0 + h - 1});
  }
  // One patch whose working set overflows the simulated 8 kB L1, so
  // probe calls out of face order show in the miss counts, and two whose
  // lines are too long for the on-stack strip.
  boxes.push_back(Box{0, 0, 47, 39});
  boxes.push_back(Box{-3, 0, 896, 1});
  boxes.push_back(Box{0, 5, 1, 904});
  return boxes;
}

bool bit_equal(const std::vector<double>& a, const Array2& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.raw().data(), a.size() * sizeof(double)) == 0;
}

bool finite(const Array2& a) {
  for (double v : a.raw())
    if (!std::isfinite(v)) return false;
  return true;
}

struct Traced {
  hwc::CacheCounters l1, l2;
  hwc::ProbeCounts probe;
};

void expect_same_counters(const Traced& ref, const Traced& got,
                          const char* what) {
  EXPECT_EQ(ref.probe.loads, got.probe.loads) << what;
  EXPECT_EQ(ref.probe.stores, got.probe.stores) << what;
  EXPECT_EQ(ref.probe.flops, got.probe.flops) << what;
  for (const auto& [r, g] :
       {std::pair{ref.l1, got.l1}, std::pair{ref.l2, got.l2}}) {
    EXPECT_EQ(r.accesses, g.accesses) << what;
    EXPECT_EQ(r.hits, g.hits) << what;
    EXPECT_EQ(r.misses, g.misses) << what;
    EXPECT_EQ(r.evictions, g.evictions) << what;
    EXPECT_EQ(r.writebacks, g.writebacks) << what;
  }
}

// --- tests -------------------------------------------------------------------

TEST(StatesReference, FacesAndTracedCountersMatchPerFaceReference) {
  IsaGuard guard;
  const GasModel gas;
  const auto isas = available_isas();
  for (const Box& interior : line_length_boxes()) {
    const auto u = wavy_patch(interior, gas);
    for (Dir dir : {Dir::x, Dir::y}) {
      int nx = 0, ny = 0;
      euler::face_dims(interior, dir, nx, ny);
      // One pair of face arrays for every run: the simulated caches map
      // sets from virtual addresses, so counters compare only when the
      // buffers are the same.
      Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp);

      Traced ref;
      {
        hwc::XeonHierarchy mem;
        hwc::CacheProbe probe(&mem.l1);
        EXPECT_EQ(ref_compute_states(u, interior, dir, gas, l, r, probe),
                  static_cast<std::uint64_t>(nx) * ny);
        ref = {mem.l1.counters(), mem.l2.counters(), probe.counts()};
      }
      ASSERT_TRUE(finite(l) && finite(r));
      const std::vector<double> ref_l = l.raw(), ref_r = r.raw();

      for (Isa isa : isas) {
        euler::simd::set_isa(isa);
        const char* name = euler::simd::isa_name(isa);
        std::fill(l.raw().begin(), l.raw().end(), 0.0);
        std::fill(r.raw().begin(), r.raw().end(), 0.0);
        hwc::NullProbe null_probe;
        const auto counts =
            euler::compute_states(u, interior, dir, gas, l, r, null_probe);
        EXPECT_EQ(counts.faces, static_cast<std::uint64_t>(nx) * ny) << name;
        EXPECT_TRUE(bit_equal(ref_l, l) && bit_equal(ref_r, r))
            << "raw faces differ under " << name << " at " << nx << "x" << ny;

        // Traced under the same active level: the dispatch must keep it
        // on the scalar kernel's faces and probe sequence.
        hwc::XeonHierarchy mem;
        hwc::CacheProbe probe(&mem.l1);
        euler::compute_states(u, interior, dir, gas, l, r, probe);
        EXPECT_TRUE(bit_equal(ref_l, l) && bit_equal(ref_r, r))
            << "traced faces differ under " << name;
        expect_same_counters(ref,
                             {mem.l1.counters(), mem.l2.counters(),
                              probe.counts()},
                             name);
      }
    }
  }
}

TEST(StatesReference, ThreadSplitMatchesPerFaceReference) {
  IsaGuard guard;
  const GasModel gas;
  const auto isas = available_isas();
  for (const Box interior : {Box{-1, 2, 17, 12}, Box{0, 0, 4, 20}}) {
    const auto u = wavy_patch(interior, gas);
    for (Dir dir : {Dir::x, Dir::y}) {
      int nx = 0, ny = 0;
      euler::face_dims(interior, dir, nx, ny);
      Array2 ref_l(nx, ny, kNcomp), ref_r(nx, ny, kNcomp);
      hwc::NullProbe null_probe;
      ref_compute_states(u, interior, dir, gas, ref_l, ref_r, null_probe);
      for (int lanes : {1, 3}) {
        ccaperf::ThreadPool pool(lanes);
        for (Isa isa : isas) {
          euler::simd::set_isa(isa);
          Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp);
          const auto counts =
              euler::compute_states_mt(pool, u, interior, dir, gas, l, r);
          EXPECT_EQ(counts.faces, static_cast<std::uint64_t>(nx) * ny);
          EXPECT_TRUE(bit_equal(ref_l.raw(), l) && bit_equal(ref_r.raw(), r))
              << lanes << " lanes under " << euler::simd::isa_name(isa);
        }
      }
    }
  }
}

}  // namespace
