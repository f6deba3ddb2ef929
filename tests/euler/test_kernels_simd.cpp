// SIMD dispatch bit-identity: the acceptance contract of DESIGN.md §11.
// Every compiled-and-supported ISA level must produce faces, fluxes and
// traced cache counters bit-identical to the scalar reference — including
// remainder lanes (widths not divisible by the vector width), both sweep
// directions, and the RK2 update kernels.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "euler/kernels.hpp"
#include "euler/simd.hpp"
#include "hwc/cache_sim.hpp"
#include "riemann_inputs.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
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

/// ISA levels this binary can actually run on this host, scalar first.
std::vector<Isa> available_isas() {
  std::vector<Isa> v{Isa::scalar};
  if (euler::simd::set_isa(Isa::avx2) == Isa::avx2) v.push_back(Isa::avx2);
  if (euler::simd::set_isa(Isa::avx512) == Isa::avx512) v.push_back(Isa::avx512);
  euler::simd::set_isa(Isa::scalar);
  return v;
}

/// Restores the default dispatch level when a test exits.
struct IsaGuard {
  Isa saved = euler::simd::active();
  ~IsaGuard() { euler::simd::set_isa(saved); }
};

GasModel two_gas() { return GasModel{}; }

/// Smooth but non-trivial patch: varying density/velocities/pressure and a
/// mixed-gas phi ramp, so reconstruction slopes take all minmod sign cases
/// and gamma_of exercises its blend (not just the clamp ends).
PatchData<double> wavy_patch(const Box& interior, const GasModel& gas) {
  PatchData<double> p(interior, 2, kNcomp);
  const Box g = p.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const double x = 0.37 * i, y = 0.23 * j;
      const Prim w{1.0 + 0.3 * std::sin(x + 0.5 * y),
                   0.4 * std::cos(0.7 * x) - 0.1 * std::sin(y),
                   0.2 * std::sin(x - y),
                   1.0 + 0.4 * std::cos(0.3 * x * y + 1.0),
                   0.5 + 0.5 * std::sin(0.11 * (i + 2 * j))};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) p(i, j, c) = U[c];
    }
  return p;
}

Array2 filled(int nx, int ny, double v) {
  Array2 a(nx, ny, kNcomp);
  for (double& x : a.raw()) x = v;
  return a;
}

bool bit_equal(const Array2& a, const Array2& b) {
  return a.size() == b.size() &&
         std::memcmp(a.raw().data(), b.raw().data(),
                     a.size() * sizeof(double)) == 0;
}

TEST(SimdDispatch, ParseIsaCoversAllSpellingsAndRejectsJunk) {
  Isa out = Isa::scalar;
  bool native = false;
  EXPECT_TRUE(euler::simd::parse_isa("scalar", out, native));
  EXPECT_EQ(out, Isa::scalar);
  EXPECT_FALSE(native);
  EXPECT_TRUE(euler::simd::parse_isa("avx2", out, native));
  EXPECT_EQ(out, Isa::avx2);
  EXPECT_TRUE(euler::simd::parse_isa("avx512", out, native));
  EXPECT_EQ(out, Isa::avx512);
  EXPECT_TRUE(euler::simd::parse_isa("native", out, native));
  EXPECT_TRUE(native);
  EXPECT_FALSE(euler::simd::parse_isa("sse2", out, native));
  EXPECT_FALSE(euler::simd::parse_isa("", out, native));
}

TEST(SimdDispatch, SetIsaClampsToHostSupport) {
  IsaGuard guard;
  const Isa top = euler::simd::highest_supported();
  // Asking for more than the host supports installs the host maximum.
  EXPECT_EQ(euler::simd::set_isa(Isa::avx512),
            top >= Isa::avx512 ? Isa::avx512 : top);
  // Scalar is always available.
  EXPECT_EQ(euler::simd::set_isa(Isa::scalar), Isa::scalar);
  EXPECT_EQ(euler::simd::active(), Isa::scalar);
}

TEST(SimdKernels, StatesBitIdenticalAcrossIsaAndShapes) {
  IsaGuard guard;
  const GasModel gas = two_gas();
  const auto isas = available_isas();
  // Widths straddling the AVX2 (4) and AVX-512 (8) group sizes, including
  // pure-remainder rows (width < W) and exact multiples.
  for (const Box interior : {Box{0, 0, 2, 4}, Box{0, 0, 6, 6}, Box{0, 0, 7, 3},
                             Box{0, 0, 16, 5}, Box{0, 0, 18, 9}}) {
    auto u = wavy_patch(interior, gas);
    for (Dir dir : {Dir::x, Dir::y}) {
      int nx = 0, ny = 0;
      euler::face_dims(interior, dir, nx, ny);
      Array2 ref_l(nx, ny, kNcomp), ref_r(nx, ny, kNcomp);
      hwc::NullProbe probe;
      euler::simd::set_isa(Isa::scalar);
      euler::compute_states(u, interior, dir, gas, ref_l, ref_r, probe);
      for (std::size_t k = 1; k < isas.size(); ++k) {
        euler::simd::set_isa(isas[k]);
        Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp);
        const auto counts =
            euler::compute_states(u, interior, dir, gas, l, r, probe);
        EXPECT_EQ(counts.faces, static_cast<std::uint64_t>(nx) * ny);
        EXPECT_TRUE(bit_equal(ref_l, l))
            << "left faces differ from scalar under "
            << euler::simd::isa_name(isas[k]);
        EXPECT_TRUE(bit_equal(ref_r, r))
            << "right faces differ from scalar under "
            << euler::simd::isa_name(isas[k]);
      }
    }
  }
}

TEST(SimdKernels, EfmFluxBitIdenticalAcrossIsa) {
  IsaGuard guard;
  const GasModel gas = two_gas();
  const auto isas = available_isas();
  for (const Box interior : {Box{0, 0, 7, 3}, Box{0, 0, 18, 9}}) {
    auto u = wavy_patch(interior, gas);
    for (Dir dir : {Dir::x, Dir::y}) {
      int nx = 0, ny = 0;
      euler::face_dims(interior, dir, nx, ny);
      Array2 left(nx, ny, kNcomp), right(nx, ny, kNcomp);
      hwc::NullProbe probe;
      euler::simd::set_isa(Isa::scalar);
      euler::compute_states(u, interior, dir, gas, left, right, probe);
      Array2 ref_f(nx, ny, kNcomp);
      euler::efm_flux_sweep(left, right, dir, gas, ref_f, probe);
      for (std::size_t k = 1; k < isas.size(); ++k) {
        euler::simd::set_isa(isas[k]);
        Array2 f(nx, ny, kNcomp);
        euler::efm_flux_sweep(left, right, dir, gas, f, probe);
        EXPECT_TRUE(bit_equal(ref_f, f))
            << "EFM flux differs from scalar under "
            << euler::simd::isa_name(isas[k]);
      }
    }
  }
}

/// Fills every face with a state pair from the differential tests'
/// generator: half identical (the shortcut and its guard edges), a tenth
/// one ulp apart, the rest independent.
void fill_riemann_pairs(ccaperf::Rng& rng, Array2& left, Array2& right) {
  for (int j = 0; j < left.ny(); ++j)
    for (int i = 0; i < left.nx(); ++i) {
      const Prim l = riemann_inputs::random_state(rng);
      const double mode = rng.uniform();
      const Prim r = mode < 0.5   ? l
                     : mode < 0.6 ? riemann_inputs::nudge(rng, l)
                                  : riemann_inputs::random_state(rng);
      const double lv[kNcomp] = {l.rho, l.u, l.v, l.p, l.phi};
      const double rv[kNcomp] = {r.rho, r.u, r.v, r.p, r.phi};
      for (int c = 0; c < kNcomp; ++c) {
        left(i, j, c) = lv[c];
        right(i, j, c) = rv[c];
      }
    }
}

TEST(SimdKernels, GodunovFluxBitIdenticalAcrossIsa) {
  // The lock-step vector solve must return exact_riemann's bits on every
  // lane: seeded inputs reaching every wave pattern, the paper's gas pair
  // plus closures that give gamma = 1, 0 and < 1, face arrays 1..19 wide
  // and high (groups straddle line ends and batch tails), both sweep
  // directions, and the _mt wrapper at 1 and 3 lanes.
  IsaGuard guard;
  const auto isas = available_isas();
  const GasModel gases[] = {GasModel{}, GasModel{1.4, 1.4}, GasModel{1.0, 1.4},
                            GasModel{0.0, 1.4}, GasModel{0.5, 0.8}};
  ccaperf::ThreadPool one(1), three(3);
  ccaperf::Rng rng(0x60d0'51adULL);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int nx = 1; nx <= 19; ++nx)
    for (int ny = 1; ny <= 19; ++ny) {
      const GasModel& gas =
          rng.uniform() < 0.7 ? gases[0] : gases[rng.uniform_int(1, 4)];
      Array2 left(nx, ny, kNcomp), right(nx, ny, kNcomp);
      fill_riemann_pairs(rng, left, right);
      for (Dir dir : {Dir::x, Dir::y}) {
        hwc::NullProbe probe;
        euler::simd::set_isa(Isa::scalar);
        Array2 ref(nx, ny, kNcomp);
        const euler::KernelCounts want =
            euler::godunov_flux_sweep(left, right, dir, gas, ref, probe);
        ASSERT_EQ(want.faces, static_cast<std::uint64_t>(nx) * ny);
        for (Isa isa : isas) {
          euler::simd::set_isa(isa);
          const std::string at = std::string(euler::simd::isa_name(isa)) +
                                 " " + std::to_string(nx) + "x" +
                                 std::to_string(ny) +
                                 (dir == Dir::x ? " x" : " y");
          Array2 f = filled(nx, ny, nan);
          const euler::KernelCounts got =
              euler::godunov_flux_sweep(left, right, dir, gas, f, probe);
          EXPECT_TRUE(bit_equal(ref, f)) << at;
          EXPECT_EQ(want.faces, got.faces) << at;
          EXPECT_EQ(want.riemann_iterations, got.riemann_iterations) << at;
          for (ccaperf::ThreadPool* pool : {&one, &three}) {
            Array2 fm = filled(nx, ny, nan);
            const euler::KernelCounts mt = euler::godunov_flux_sweep_mt(
                *pool, left, right, dir, gas, fm);
            EXPECT_TRUE(bit_equal(ref, fm)) << at << " " << pool->size()
                                            << " lanes";
            EXPECT_EQ(want.faces, mt.faces) << at;
            EXPECT_EQ(want.riemann_iterations, mt.riemann_iterations) << at;
          }
        }
      }
    }
}

TEST(SimdKernels, GodunovNonPhysicalFaceRaisesAtEveryIsa) {
  // A non-physical face raises exact_riemann's error at every level, after
  // writing the same fluxes: every face before it and none after.
  IsaGuard guard;
  const auto isas = available_isas();
  const GasModel gas = two_gas();
  ccaperf::Rng rng(0xbad'face'5ULL);
  const double bad[] = {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()};
  for (int rep = 0; rep < 40; ++rep) {
    const int nx = 1 + static_cast<int>(rng.uniform_int(0, 18));
    const int ny = 1 + static_cast<int>(rng.uniform_int(0, 18));
    Array2 left(nx, ny, kNcomp), right(nx, ny, kNcomp);
    fill_riemann_pairs(rng, left, right);
    Array2& side = rng.uniform() < 0.5 ? left : right;
    side(static_cast<int>(rng.uniform_int(0, nx - 1)),
         static_cast<int>(rng.uniform_int(0, ny - 1)),
         rng.uniform() < 0.5 ? 0 : 3) = bad[rng.uniform_int(0, 2)];
    const Dir dir = rep % 2 == 0 ? Dir::x : Dir::y;
    std::string ref_what;
    Array2 ref = filled(nx, ny, 7.0);
    hwc::NullProbe probe;
    for (Isa isa : isas) {
      euler::simd::set_isa(isa);
      Array2 f = filled(nx, ny, 7.0);
      std::string what;
      try {
        euler::godunov_flux_sweep(left, right, dir, gas, f, probe);
      } catch (const ccaperf::Error& e) {
        what = e.what();
      }
      if (isa == Isa::scalar) {
        ref_what = what;
        ref = f;
        EXPECT_NE(ref_what.find("non-physical"), std::string::npos) << what;
      } else {
        EXPECT_EQ(ref_what, what) << euler::simd::isa_name(isa);
        EXPECT_TRUE(bit_equal(ref, f)) << euler::simd::isa_name(isa);
      }
    }
  }
}

TEST(SimdKernels, TracedCacheCountersBitIdenticalAcrossIsa) {
  // A traced call runs the scalar kernel whatever the active ISA level,
  // so at every level its CacheSim totals, probe counts, iterations and
  // outputs must equal the scalar level's exactly.
  IsaGuard guard;
  const GasModel gas = two_gas();
  const Box interior{0, 0, 18, 7};
  auto u = wavy_patch(interior, gas);
  const auto isas = available_isas();
  for (Dir dir : {Dir::x, Dir::y}) {
    int nx = 0, ny = 0;
    euler::face_dims(interior, dir, nx, ny);

    // One set of output buffers for every ISA level: CacheSim hit/miss
    // behaviour depends on the buffers' virtual addresses (set mapping),
    // so cross-ISA counter comparison requires identical allocations.
    Array2 l(nx, ny, kNcomp), r(nx, ny, kNcomp), f(nx, ny, kNcomp),
        g(nx, ny, kNcomp);

    // States, then EFM and Godunov on its faces, traced by a CacheProbe.
    auto traced = [&](Isa isa, hwc::CacheCounters& l1, hwc::CacheCounters& l2,
                      hwc::ProbeCounts& pc, std::uint64_t& iterations) {
      euler::simd::set_isa(isa);
      hwc::XeonHierarchy mem;
      hwc::CacheProbe probe(&mem.l1);
      euler::compute_states(u, interior, dir, gas, l, r, probe);
      euler::efm_flux_sweep(l, r, dir, gas, f, probe);
      iterations =
          euler::godunov_flux_sweep(l, r, dir, gas, g, probe).riemann_iterations;
      pc = probe.counts();
      l1 = mem.l1.counters();
      l2 = mem.l2.counters();
    };

    hwc::CacheCounters ref_l1, ref_l2;
    hwc::ProbeCounts ref_pc;
    std::uint64_t ref_iters = 0;
    traced(Isa::scalar, ref_l1, ref_l2, ref_pc, ref_iters);
    const std::vector<double> ref_flux = f.raw();
    const std::vector<double> ref_godunov = g.raw();

    for (std::size_t k = 1; k < isas.size(); ++k) {
      hwc::CacheCounters l1, l2;
      hwc::ProbeCounts pc;
      std::uint64_t iters = 0;
      traced(isas[k], l1, l2, pc, iters);
      const char* name = euler::simd::isa_name(isas[k]);
      EXPECT_EQ(ref_flux, f.raw()) << name;
      EXPECT_EQ(ref_godunov, g.raw()) << name;
      EXPECT_EQ(ref_iters, iters) << name;
      EXPECT_EQ(ref_pc.loads, pc.loads) << name;
      EXPECT_EQ(ref_pc.stores, pc.stores) << name;
      EXPECT_EQ(ref_pc.flops, pc.flops) << name;
      EXPECT_EQ(ref_l1.accesses, l1.accesses) << name;
      EXPECT_EQ(ref_l1.misses, l1.misses) << name;
      EXPECT_EQ(ref_l1.hits, l1.hits) << name;
      EXPECT_EQ(ref_l2.misses, l2.misses) << name;
    }
  }
}

TEST(SimdKernels, Rk2KernelsMatchScalarExpressionsAcrossIsa) {
  IsaGuard guard;
  const auto isas = available_isas();
  const std::size_t n = 29;  // odd: exercises every remainder lane count
  std::vector<double> y0(n), x(n), u0(n), uold(n), dudt(n);
  for (std::size_t i = 0; i < n; ++i) {
    y0[i] = std::sin(0.3 * static_cast<double>(i));
    x[i] = std::cos(0.7 * static_cast<double>(i)) * 1.7;
    u0[i] = 1.0 + 0.01 * static_cast<double>(i);
    uold[i] = u0[i] - 0.5 * x[i];
    dudt[i] = std::sin(1.1 * static_cast<double>(i) + 0.2);
  }
  const double a = 0.37, dt = 0.0123;

  std::vector<double> ref_axpy = y0, ref_heun = u0;
  for (std::size_t i = 0; i < n; ++i) ref_axpy[i] += a * x[i];
  for (std::size_t i = 0; i < n; ++i)
    ref_heun[i] = 0.5 * (uold[i] + ref_heun[i] + dt * dudt[i]);

  for (Isa isa : isas) {
    euler::simd::set_isa(isa);
    std::vector<double> ya = y0, ua = u0;
    euler::rk2_axpy(ya.data(), x.data(), a, n);
    euler::rk2_heun_average(ua.data(), uold.data(), dudt.data(), dt, n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(ref_axpy[i], ya[i]) << euler::simd::isa_name(isa) << " @" << i;
      EXPECT_EQ(ref_heun[i], ua[i]) << euler::simd::isa_name(isa) << " @" << i;
    }
  }
}

}  // namespace
