// Thread-parallel kernel wrappers (DESIGN.md §9): the _mt sweeps must be
// bit-identical to the serial kernels for any lane count, called at top
// level or nested inside an outer region where idle lanes help, and their
// integer KernelCounts must match exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "euler/kernels.hpp"
#include "support/thread_pool.hpp"

namespace {

using amr::Box;
using amr::PatchData;
using euler::Array2;
using euler::Dir;
using euler::GasModel;
using euler::kNcomp;
using euler::Prim;

GasModel two_gas() {
  GasModel gas;
  gas.gamma2 = 1.4;
  return gas;
}

/// Smoothly varying two-gas patch: every face sees distinct data, so a
/// misrouted row in a parallel sweep cannot cancel out.
PatchData<double> wavy_patch(const Box& interior, const GasModel& gas) {
  PatchData<double> p(interior, 2, kNcomp);
  const Box g = p.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const Prim w{1.0 + 0.3 * std::sin(0.4 * i) * std::cos(0.3 * j),
                   0.2 * std::sin(0.2 * i + 0.1 * j),
                   -0.15 * std::cos(0.25 * j + 0.05 * i),
                   1.0 + 0.2 * std::cos(0.3 * i - 0.2 * j),
                   0.5 + 0.5 * std::sin(0.15 * i * j)};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) p(i, j, c) = U[c];
    }
  return p;
}

struct FacePair {
  Array2 left, right;
  FacePair(const Box& interior, Dir dir) {
    int nx = 0, ny = 0;
    euler::face_dims(interior, dir, nx, ny);
    left = Array2(nx, ny, kNcomp);
    right = Array2(nx, ny, kNcomp);
  }
};

TEST(KernelsMt, StatesMatchSerialBitExactly) {
  const GasModel gas = two_gas();
  const Box interior{0, 0, 18, 13};
  const auto u = wavy_patch(interior, gas);
  for (Dir dir : {Dir::x, Dir::y}) {
    FacePair serial(interior, dir);
    hwc::NullProbe probe;
    const auto sc =
        euler::compute_states(u, interior, dir, gas, serial.left, serial.right,
                              probe);
    for (int lanes : {1, 2, 3}) {
      ccaperf::ThreadPool pool(lanes);
      FacePair mt(interior, dir);
      const auto mc =
          euler::compute_states_mt(pool, u, interior, dir, gas, mt.left,
                                   mt.right);
      EXPECT_EQ(mc.faces, sc.faces) << "lanes=" << lanes;
      EXPECT_EQ(mt.left.raw(), serial.left.raw()) << "lanes=" << lanes;
      EXPECT_EQ(mt.right.raw(), serial.right.raw()) << "lanes=" << lanes;
    }
  }
}

TEST(KernelsMt, FluxSweepsMatchSerialBitExactly) {
  const GasModel gas = two_gas();
  const Box interior{0, 0, 18, 13};
  const auto u = wavy_patch(interior, gas);
  for (Dir dir : {Dir::x, Dir::y}) {
    FacePair faces(interior, dir);
    hwc::NullProbe probe;
    euler::compute_states(u, interior, dir, gas, faces.left, faces.right, probe);

    Array2 efm_serial(faces.left.nx(), faces.left.ny(), kNcomp);
    Array2 god_serial(faces.left.nx(), faces.left.ny(), kNcomp);
    const auto es = euler::efm_flux_sweep(faces.left, faces.right, dir, gas,
                                          efm_serial, probe);
    const auto gs = euler::godunov_flux_sweep(faces.left, faces.right, dir, gas,
                                              god_serial, probe);
    for (int lanes : {2, 3}) {
      ccaperf::ThreadPool pool(lanes);
      Array2 efm_mt(faces.left.nx(), faces.left.ny(), kNcomp);
      Array2 god_mt(faces.left.nx(), faces.left.ny(), kNcomp);
      const auto em = euler::efm_flux_sweep_mt(pool, faces.left, faces.right,
                                               dir, gas, efm_mt);
      const auto gm = euler::godunov_flux_sweep_mt(pool, faces.left,
                                                   faces.right, dir, gas,
                                                   god_mt);
      EXPECT_EQ(em.faces, es.faces);
      EXPECT_EQ(gm.faces, gs.faces);
      EXPECT_EQ(gm.riemann_iterations, gs.riemann_iterations)
          << "lanes=" << lanes;
      EXPECT_EQ(efm_mt.raw(), efm_serial.raw()) << "lanes=" << lanes;
      EXPECT_EQ(god_mt.raw(), god_serial.raw()) << "lanes=" << lanes;
    }
  }
}

TEST(KernelsMt, FluxDivergenceMatchesSerialBitExactly) {
  const GasModel gas = two_gas();
  const Box interior{0, 0, 18, 13};
  const auto u = wavy_patch(interior, gas);
  hwc::NullProbe probe;
  FacePair xf(interior, Dir::x), yf(interior, Dir::y);
  euler::compute_states(u, interior, Dir::x, gas, xf.left, xf.right, probe);
  euler::compute_states(u, interior, Dir::y, gas, yf.left, yf.right, probe);
  Array2 fx(xf.left.nx(), xf.left.ny(), kNcomp);
  Array2 fy(yf.left.nx(), yf.left.ny(), kNcomp);
  euler::efm_flux_sweep(xf.left, xf.right, Dir::x, gas, fx, probe);
  euler::efm_flux_sweep(yf.left, yf.right, Dir::y, gas, fy, probe);

  PatchData<double> serial(interior, 0, kNcomp);
  euler::flux_divergence(fx, fy, interior, 0.01, 0.02, serial);
  for (int lanes : {2, 3}) {
    ccaperf::ThreadPool pool(lanes);
    PatchData<double> mt(interior, 0, kNcomp);
    euler::flux_divergence_mt(pool, fx, fy, interior, 0.01, 0.02, mt);
    for (int c = 0; c < kNcomp; ++c)
      for (int j = interior.lo().j; j <= interior.hi().j; ++j)
        for (int i = interior.lo().i; i <= interior.hi().i; ++i)
          EXPECT_EQ(mt(i, j, c), serial(i, j, c)) << "lanes=" << lanes;
  }
}

TEST(KernelsMt, NestedInOuterRegionMatchesSerialBitExactly) {
  // RK2 calls the _mt kernels from inside its patch region, where idle
  // lanes help with the rows. Run every kernel from a one-job and a
  // many-job outer region: faces, dU/dt and KernelCounts must equal the
  // serial sweep exactly.
  const GasModel gas = two_gas();
  const Box interior{0, 0, 29, 17};
  const auto u = wavy_patch(interior, gas);
  const double dx = 0.01, dy = 0.02;

  struct Out {
    FacePair xs{Box{0, 0, 29, 17}, Dir::x}, ys{Box{0, 0, 29, 17}, Dir::y};
    Array2 efm, god_x, god_y;
    PatchData<double> dudt{Box{0, 0, 29, 17}, 0, kNcomp};
    euler::KernelCounts states, efm_c, god_c;
    Out() {
      efm = Array2(xs.left.nx(), xs.left.ny(), kNcomp);
      god_x = Array2(xs.left.nx(), xs.left.ny(), kNcomp);
      god_y = Array2(ys.left.nx(), ys.left.ny(), kNcomp);
    }
  };
  auto run = [&](ccaperf::ThreadPool& pool, Out& o) {
    o.states = euler::compute_states_mt(pool, u, interior, Dir::x, gas,
                                        o.xs.left, o.xs.right);
    o.states += euler::compute_states_mt(pool, u, interior, Dir::y, gas,
                                         o.ys.left, o.ys.right);
    o.efm_c = euler::efm_flux_sweep_mt(pool, o.xs.left, o.xs.right, Dir::x,
                                       gas, o.efm);
    o.god_c = euler::godunov_flux_sweep_mt(pool, o.xs.left, o.xs.right, Dir::x,
                                           gas, o.god_x);
    o.god_c += euler::godunov_flux_sweep_mt(pool, o.ys.left, o.ys.right,
                                            Dir::y, gas, o.god_y);
    euler::flux_divergence_mt(pool, o.god_x, o.god_y, interior, dx, dy, o.dudt);
  };
  auto same = [](const Out& a, const Out& b) {
    EXPECT_EQ(a.xs.left.raw(), b.xs.left.raw());
    EXPECT_EQ(a.xs.right.raw(), b.xs.right.raw());
    EXPECT_EQ(a.ys.left.raw(), b.ys.left.raw());
    EXPECT_EQ(a.ys.right.raw(), b.ys.right.raw());
    EXPECT_EQ(a.efm.raw(), b.efm.raw());
    EXPECT_EQ(a.god_x.raw(), b.god_x.raw());
    EXPECT_EQ(a.god_y.raw(), b.god_y.raw());
    EXPECT_TRUE(std::equal(a.dudt.raw().begin(), a.dudt.raw().end(),
                           b.dudt.raw().begin(), b.dudt.raw().end()));
    EXPECT_EQ(a.states.faces, b.states.faces);
    EXPECT_EQ(a.efm_c.faces, b.efm_c.faces);
    EXPECT_EQ(a.god_c.faces, b.god_c.faces);
    EXPECT_EQ(a.god_c.riemann_iterations, b.god_c.riemann_iterations);
  };

  ccaperf::ThreadPool serial(1);
  Out ref;
  run(serial, ref);

  for (int lanes : {2, 3, 8}) {
    for (std::size_t jobs : {std::size_t{1}, std::size_t{6}}) {
      ccaperf::ThreadPool pool(lanes);
      std::vector<Out> outs(jobs);
      pool.parallel_for(jobs, [&](std::size_t k, int) { run(pool, outs[k]); });
      for (std::size_t k = 0; k < jobs; ++k) {
        SCOPED_TRACE("lanes=" + std::to_string(lanes) +
                     " jobs=" + std::to_string(jobs) + " k=" + std::to_string(k));
        same(outs[k], ref);
      }
    }
  }
}

TEST(KernelsMt, FluxDivergenceWritesEveryCell) {
  // RK2 reuses its dU/dt buffers without clearing them, which is sound
  // only because the divergence writes every interior cell of every
  // component.
  const GasModel gas = two_gas();
  const Box interior{3, -2, 22, 11};
  const auto u = wavy_patch(interior, gas);
  hwc::NullProbe probe;
  FacePair xf(interior, Dir::x), yf(interior, Dir::y);
  euler::compute_states(u, interior, Dir::x, gas, xf.left, xf.right, probe);
  euler::compute_states(u, interior, Dir::y, gas, yf.left, yf.right, probe);
  Array2 fx(xf.left.nx(), xf.left.ny(), kNcomp);
  Array2 fy(yf.left.nx(), yf.left.ny(), kNcomp);
  euler::efm_flux_sweep(xf.left, xf.right, Dir::x, gas, fx, probe);
  euler::efm_flux_sweep(yf.left, yf.right, Dir::y, gas, fy, probe);
  for (int lanes : {1, 3}) {
    ccaperf::ThreadPool pool(lanes);
    PatchData<double> dudt(interior, 0, kNcomp, std::nan(""));
    euler::flux_divergence_mt(pool, fx, fy, interior, 0.01, 0.02, dudt);
    for (const double v : dudt.raw()) ASSERT_FALSE(std::isnan(v)) << "lanes=" << lanes;
  }
}

}  // namespace
