// Sweep kernels: reconstruction exactness, direction symmetry, flux
// divergence of uniform flow, conservation of the update, Godunov/EFM
// sweep agreement on smooth data, and the cache-probe instrumentation
// (sequential vs strided miss behaviour — the Fig. 4/5 mechanism).

#include <gtest/gtest.h>

#include <cmath>

#include "euler/kernels.hpp"

namespace {

using amr::Box;
using amr::PatchData;
using euler::Array2;
using euler::Dir;
using euler::GasModel;
using euler::kNcomp;
using euler::Prim;

GasModel air_only() {
  GasModel gas;
  gas.gamma2 = 1.4;
  return gas;
}

PatchData<double> uniform_patch(const Box& interior, const Prim& w,
                                const GasModel& gas) {
  PatchData<double> p(interior, 2, kNcomp);
  double U[kNcomp];
  euler::prim_to_cons(w, gas, U);
  const Box g = p.grown_box();
  for (int c = 0; c < kNcomp; ++c)
    for (int j = g.lo().j; j <= g.hi().j; ++j)
      for (int i = g.lo().i; i <= g.hi().i; ++i) p(i, j, c) = U[c];
  return p;
}

TEST(StatesKernel, UniformStateReconstructsExactly) {
  const GasModel gas = air_only();
  const Box interior{0, 0, 7, 7};
  const Prim w{1.3, 0.4, -0.2, 2.0, 1.0};
  auto u = uniform_patch(interior, w, gas);
  for (Dir dir : {Dir::x, Dir::y}) {
    int nx = 0, ny = 0;
    euler::face_dims(interior, dir, nx, ny);
    Array2 left(nx, ny, kNcomp), right(nx, ny, kNcomp);
    hwc::NullProbe probe;
    const auto counts = euler::compute_states(u, interior, dir, gas, left, right, probe);
    EXPECT_EQ(counts.faces, static_cast<std::uint64_t>(nx) * ny);
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        EXPECT_NEAR(left(i, j, 0), w.rho, 1e-13);
        EXPECT_NEAR(right(i, j, 0), w.rho, 1e-13);
        EXPECT_NEAR(left(i, j, 3), w.p, 1e-13);
        // Normal velocity is u for X sweeps, v for Y sweeps.
        EXPECT_NEAR(left(i, j, 1), dir == Dir::x ? w.u : w.v, 1e-13);
        EXPECT_NEAR(left(i, j, 2), dir == Dir::x ? w.v : w.u, 1e-13);
      }
  }
}

TEST(StatesKernel, LinearDensityReconstructsSecondOrder) {
  // For linear data, minmod slopes are exact and L=R at each face.
  const GasModel gas = air_only();
  const Box interior{0, 0, 15, 3};
  PatchData<double> u(interior, 2, kNcomp);
  const Box g = u.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const Prim w{1.0 + 0.01 * i, 0.0, 0.0, 1.0, 1.0};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) u(i, j, c) = U[c];
    }
  int nx = 0, ny = 0;
  euler::face_dims(interior, Dir::x, nx, ny);
  Array2 left(nx, ny, kNcomp), right(nx, ny, kNcomp);
  hwc::NullProbe probe;
  euler::compute_states(u, interior, Dir::x, gas, left, right, probe);
  for (int fi = 0; fi < nx; ++fi) {
    // Face fi sits between cells fi-1 and fi: rho_face = 1.0 + 0.01(fi-0.5).
    const double expect = 1.0 + 0.01 * (fi - 0.5);
    EXPECT_NEAR(left(fi, 1, 0), expect, 1e-10);
    EXPECT_NEAR(right(fi, 1, 0), expect, 1e-10);
  }
}

TEST(FluxDivergence, UniformFlowGivesZero) {
  const GasModel gas = air_only();
  const Box interior{0, 0, 9, 9};
  const Prim w{1.0, 0.8, -0.3, 1.5, 1.0};
  auto u = uniform_patch(interior, w, gas);
  hwc::NullProbe probe;

  int nx = 0, ny = 0;
  euler::face_dims(interior, Dir::x, nx, ny);
  Array2 lx(nx, ny, kNcomp), rx(nx, ny, kNcomp), fx(nx, ny, kNcomp);
  euler::compute_states(u, interior, Dir::x, gas, lx, rx, probe);
  euler::efm_flux_sweep(lx, rx, Dir::x, gas, fx, probe);

  euler::face_dims(interior, Dir::y, nx, ny);
  Array2 ly(nx, ny, kNcomp), ry(nx, ny, kNcomp), fy(nx, ny, kNcomp);
  euler::compute_states(u, interior, Dir::y, gas, ly, ry, probe);
  euler::efm_flux_sweep(ly, ry, Dir::y, gas, fy, probe);

  PatchData<double> dudt(interior, 0, kNcomp, -1.0);
  euler::flux_divergence(fx, fy, interior, 0.1, 0.1, dudt);
  for (int c = 0; c < kNcomp; ++c)
    for (int j = 0; j <= 9; ++j)
      for (int i = 0; i <= 9; ++i)
        EXPECT_NEAR(dudt(i, j, c), 0.0, 1e-9) << "c=" << c;
}

TEST(FluxDivergence, TelescopingConservation) {
  // sum_cells dudt * dx*dy = -(boundary flux sum): interior fluxes cancel.
  const GasModel gas = air_only();
  const Box interior{0, 0, 7, 7};
  // Non-trivial smooth data.
  PatchData<double> u(interior, 2, kNcomp);
  const Box g = u.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const Prim w{1.0 + 0.05 * std::sin(0.3 * i) + 0.04 * std::cos(0.4 * j),
                   0.2 * std::sin(0.2 * j), -0.1, 1.0 + 0.02 * i, 1.0};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) u(i, j, c) = U[c];
    }
  hwc::NullProbe probe;
  int nx = 0, ny = 0;
  euler::face_dims(interior, Dir::x, nx, ny);
  Array2 lx(nx, ny, kNcomp), rx(nx, ny, kNcomp), fx(nx, ny, kNcomp);
  euler::compute_states(u, interior, Dir::x, gas, lx, rx, probe);
  euler::godunov_flux_sweep(lx, rx, Dir::x, gas, fx, probe);
  euler::face_dims(interior, Dir::y, nx, ny);
  Array2 ly(nx, ny, kNcomp), ry(nx, ny, kNcomp), fy(nx, ny, kNcomp);
  euler::compute_states(u, interior, Dir::y, gas, ly, ry, probe);
  euler::godunov_flux_sweep(ly, ry, Dir::y, gas, fy, probe);

  const double dx = 0.1, dy = 0.2;
  PatchData<double> dudt(interior, 0, kNcomp, 0.0);
  euler::flux_divergence(fx, fy, interior, dx, dy, dudt);

  // Mass budget: volume integral of d(rho)/dt vs boundary mass fluxes.
  double interior_sum = 0.0;
  for (int j = 0; j <= 7; ++j)
    for (int i = 0; i <= 7; ++i) interior_sum += dudt(i, j, euler::kRho) * dx * dy;
  double boundary = 0.0;
  for (int j = 0; j < 8; ++j)
    boundary += (fx(8, j, 0) - fx(0, j, 0)) * dy;
  for (int i = 0; i < 8; ++i)
    boundary += (fy(i, 8, 0) - fy(i, 0, 0)) * dx;
  EXPECT_NEAR(interior_sum, -boundary, 1e-10);
}

TEST(Kernels, XYSymmetryOfTransposedData) {
  // Transposing the field and swapping u<->v must transpose the fluxes.
  const GasModel gas = air_only();
  const Box interior{0, 0, 11, 11};
  PatchData<double> u(interior, 2, kNcomp), ut(interior, 2, kNcomp);
  const Box g = u.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const Prim w{1.0 + 0.03 * i + 0.07 * j, 0.1 * i, 0.05 * j,
                   1.0 + 0.01 * (i + j), 1.0};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) u(i, j, c) = U[c];
      const Prim wt{1.0 + 0.03 * j + 0.07 * i, 0.05 * i, 0.1 * j,
                    1.0 + 0.01 * (i + j), 1.0};
      euler::prim_to_cons(wt, gas, U);
      for (int c = 0; c < kNcomp; ++c) ut(i, j, c) = U[c];
    }
  hwc::NullProbe probe;
  int nx = 0, ny = 0;
  euler::face_dims(interior, Dir::x, nx, ny);
  Array2 lx(nx, ny, kNcomp), rx(nx, ny, kNcomp), fx(nx, ny, kNcomp);
  euler::compute_states(u, interior, Dir::x, gas, lx, rx, probe);
  euler::efm_flux_sweep(lx, rx, Dir::x, gas, fx, probe);

  euler::face_dims(interior, Dir::y, nx, ny);
  Array2 ly(nx, ny, kNcomp), ry(nx, ny, kNcomp), fy(nx, ny, kNcomp);
  euler::compute_states(ut, interior, Dir::y, gas, ly, ry, probe);
  euler::efm_flux_sweep(ly, ry, Dir::y, gas, fy, probe);

  // fx at face (fi, j) == fy of the transposed problem at face (j, fi).
  for (int j = 0; j < 12; ++j)
    for (int fi = 0; fi < 13; ++fi)
      for (int c = 0; c < kNcomp; ++c)
        EXPECT_NEAR(fx(fi, j, c), fy(j, fi, c), 1e-11)
            << "face (" << fi << "," << j << ") comp " << c;
}

TEST(Kernels, GodunovAndEfmAgreeOnUniformFlow) {
  const GasModel gas = air_only();
  const Box interior{0, 0, 5, 5};
  const Prim w{1.0, 0.6, 0.2, 1.2, 1.0};
  auto u = uniform_patch(interior, w, gas);
  hwc::NullProbe probe;
  int nx = 0, ny = 0;
  euler::face_dims(interior, Dir::x, nx, ny);
  Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp), fe(nx, ny, kNcomp),
      fg(nx, ny, kNcomp);
  euler::compute_states(u, interior, Dir::x, gas, l, r, probe);
  euler::efm_flux_sweep(l, r, Dir::x, gas, fe, probe);
  euler::godunov_flux_sweep(l, r, Dir::x, gas, fg, probe);
  for (int j = 0; j < ny; ++j)
    for (int i = 0; i < nx; ++i)
      for (int c = 0; c < kNcomp; ++c)
        EXPECT_NEAR(fe(i, j, c), fg(i, j, c), 1e-10);
}

TEST(Kernels, MaxWaveSpeed) {
  const GasModel gas = air_only();
  const Box interior{0, 0, 3, 3};
  const Prim w{1.4, 3.0, -1.0, 1.0, 1.0};  // c = 1, |u|+c = 4
  auto u = uniform_patch(interior, w, gas);
  EXPECT_NEAR(euler::max_wave_speed(u, interior, gas), 4.0, 1e-12);
}

TEST(Kernels, TotalConservedSums) {
  const GasModel gas = air_only();
  const Box interior{0, 0, 3, 3};
  auto u = uniform_patch(interior, Prim{2.0, 1.0, 0.0, 1.0, 1.0}, gas);
  double totals[kNcomp];
  euler::total_conserved(u, interior, totals);
  EXPECT_DOUBLE_EQ(totals[euler::kRho], 32.0);
  EXPECT_DOUBLE_EQ(totals[euler::kMx], 32.0);
  EXPECT_DOUBLE_EQ(totals[euler::kMy], 0.0);
}

TEST(KernelsTraced, ProbeCountsScaleWithFaces) {
  const GasModel gas = air_only();
  const Box interior{0, 0, 15, 15};
  auto u = uniform_patch(interior, Prim{1.0, 0.1, 0.0, 1.0, 1.0}, gas);
  hwc::CacheSim cache(512 * 1024, 64, 8);
  hwc::CacheProbe probe(&cache);
  int nx = 0, ny = 0;
  euler::face_dims(interior, Dir::x, nx, ny);
  Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp);
  const auto counts = euler::compute_states(u, interior, Dir::x, gas, l, r, probe);
  EXPECT_EQ(counts.faces, static_cast<std::uint64_t>(nx) * ny);
  // 4 stencil cells x 5 comps loads per face; 10 stores per face.
  EXPECT_EQ(probe.counts().loads, counts.faces * 20);
  EXPECT_EQ(probe.counts().stores, counts.faces * 10);
  EXPECT_GT(probe.counts().flops, 0u);
}

TEST(KernelsTraced, FluxFlopsFollowThePerFaceFormula) {
  // The probe's FLOP tally: EFM charges a fixed cost per face, Godunov a
  // per-face cost plus one per exact-Riemann iteration. Smoothly varying
  // data, so the Riemann solver iterates and both terms count.
  const GasModel gas = air_only();
  const Box interior{0, 0, 21, 17};
  PatchData<double> u(interior, 2, kNcomp);
  const Box g = u.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const Prim w{1.0 + 0.3 * std::sin(0.4 * i) * std::cos(0.3 * j),
                   0.2 * std::sin(0.2 * i + 0.1 * j),
                   -0.15 * std::cos(0.25 * j + 0.05 * i),
                   1.0 + 0.2 * std::cos(0.3 * i - 0.2 * j), 1.0};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) u(i, j, c) = U[c];
    }

  hwc::XeonHierarchy mem;
  for (Dir dir : {Dir::x, Dir::y}) {
    SCOPED_TRACE(dir == Dir::x ? "Dir::x" : "Dir::y");
    int nx = 0, ny = 0;
    euler::face_dims(interior, dir, nx, ny);
    Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp), flux(nx, ny, kNcomp);

    hwc::CacheProbe states(&mem.l1);
    euler::compute_states(u, interior, dir, gas, l, r, states);
    EXPECT_GT(states.counts().loads, 0u);

    hwc::CacheProbe efm(&mem.l1);
    const auto e = euler::efm_flux_sweep(l, r, dir, gas, flux, efm);
    EXPECT_EQ(efm.counts().flops, e.faces * euler::kEfmFlopsPerFace);

    hwc::CacheProbe god(&mem.l1);
    const auto k = euler::godunov_flux_sweep(l, r, dir, gas, flux, god);
    EXPECT_GT(k.riemann_iterations, 0u);
    EXPECT_EQ(god.counts().flops,
              k.faces * euler::kGodunovFlopsPerFace +
                  k.riemann_iterations * euler::kGodunovFlopsPerIteration);
  }
  EXPECT_GT(mem.l1.counters().misses, 0u);
}

TEST(KernelsTraced, StridedSweepMissesMoreOnLargePatch) {
  // The deterministic version of Figs. 4-5: on a patch whose working set
  // exceeds the 512 kB cache, the Y (strided) sweep incurs far more cache
  // misses than the X (sequential) sweep.
  const GasModel gas = air_only();
  const Box interior{0, 0, 511, 127};  // 64k cells x 5 comps x 8 B = 2.6 MB
  auto u = uniform_patch(interior, Prim{1.0, 0.1, 0.0, 1.0, 1.0}, gas);

  auto misses = [&](Dir dir) {
    hwc::CacheSim cache(512 * 1024, 64, 8);
    hwc::CacheProbe probe(&cache);
    int nx = 0, ny = 0;
    euler::face_dims(interior, dir, nx, ny);
    Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp);
    euler::compute_states(u, interior, dir, gas, l, r, probe);
    return cache.counters().misses;
  };
  const auto seq = misses(Dir::x);
  const auto str = misses(Dir::y);
  EXPECT_GT(static_cast<double>(str) / static_cast<double>(seq), 2.0);
}

TEST(KernelsTraced, SmallPatchMissesComparableBothDirections) {
  const GasModel gas = air_only();
  const Box interior{0, 0, 31, 31};  // 40 kB working set: cache resident
  auto u = uniform_patch(interior, Prim{1.0, 0.1, 0.0, 1.0, 1.0}, gas);
  auto misses = [&](Dir dir) {
    hwc::CacheSim cache(512 * 1024, 64, 8);
    hwc::CacheProbe probe(&cache);
    int nx = 0, ny = 0;
    euler::face_dims(interior, dir, nx, ny);
    Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp);
    euler::compute_states(u, interior, dir, gas, l, r, probe);
    return cache.counters().misses;
  };
  const double ratio =
      static_cast<double>(misses(Dir::y)) / static_cast<double>(misses(Dir::x));
  EXPECT_LT(ratio, 1.5);
}

}  // namespace
