// Differential tests of the Godunov fast path against frozen copies of the
// plain code it replaced: exact_riemann (identical-state shortcut, hoisted
// per-side constants, reused pow) and flux_divergence (one pass over all
// five components instead of five component passes). Both must reproduce
// the references bit for bit — sampled state, star values and iteration
// counts, and every dudt cell — over seeded inputs that reach every wave
// pattern, the shortcut's guard edges and non-physical gas models.
//
// This file is compiled with -ffp-contract=off, like the euler library,
// so the references round exactly as the code they were copied from.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "euler/kernels.hpp"
#include "euler/riemann.hpp"
#include "riemann_inputs.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace {

using euler::GasModel;
using euler::Prim;
using euler::RiemannParams;
using euler::RiemannResult;

// --- frozen reference: the plain exact Riemann solve ------------------------

/// Which waves and which sample the reference took (test coverage only;
/// the arithmetic below is the plain solve, unchanged).
struct RefTrace {
  bool left_shock = false;
  bool right_shock = false;
  bool left_fan = false;   ///< sampled inside the left rarefaction fan
  bool right_fan = false;  ///< sampled inside the right rarefaction fan
};

void ref_pressure_fn(double p, double rho, double pk, double a, double g,
                     double& f, double& fd) {
  if (p > pk) {
    const double A = 2.0 / ((g + 1.0) * rho);
    const double B = (g - 1.0) / (g + 1.0) * pk;
    const double sqrt_term = std::sqrt(A / (B + p));
    f = (p - pk) * sqrt_term;
    fd = sqrt_term * (1.0 - 0.5 * (p - pk) / (B + p));
  } else {
    const double pr = p / pk;
    f = 2.0 * a / (g - 1.0) * (std::pow(pr, (g - 1.0) / (2.0 * g)) - 1.0);
    fd = std::pow(pr, -(g + 1.0) / (2.0 * g)) / (rho * a);
  }
}

RiemannResult ref_exact_riemann(const Prim& left, const Prim& right,
                                const GasModel& gas, const RiemannParams& params,
                                RefTrace& trace) {
  const double gl = gas.gamma_of(left.phi);
  const double gr = gas.gamma_of(right.phi);
  const double al = std::sqrt(gl * left.p / left.rho);
  const double ar = std::sqrt(gr * right.p / right.rho);
  const double du = right.u - left.u;

  double p = 0.5 * (left.p + right.p) -
             0.125 * du * (left.rho + right.rho) * (al + ar);
  p = std::max(p, 1e-12);

  int iter = 0;
  for (; iter < params.max_iter; ++iter) {
    double fl, fld, fr, frd;
    ref_pressure_fn(p, left.rho, left.p, al, gl, fl, fld);
    ref_pressure_fn(p, right.rho, right.p, ar, gr, fr, frd);
    const double delta = (fl + fr + du) / (fld + frd);
    const double pnew = std::max(p - delta, 1e-12);
    const double change = 2.0 * std::abs(pnew - p) / (pnew + p);
    p = pnew;
    if (change < params.tol) {
      ++iter;
      break;
    }
  }

  double fl, fld, fr, frd;
  ref_pressure_fn(p, left.rho, left.p, al, gl, fl, fld);
  ref_pressure_fn(p, right.rho, right.p, ar, gr, fr, frd);
  const double ustar = 0.5 * (left.u + right.u) + 0.5 * (fr - fl);
  trace.left_shock = p > left.p;
  trace.right_shock = p > right.p;

  Prim w;
  if (ustar >= 0.0) {
    w.v = left.v;
    w.phi = left.phi;
    if (p > left.p) {
      const double ratio = p / left.p;
      const double sl =
          left.u - al * std::sqrt((gl + 1.0) / (2.0 * gl) * ratio +
                                  (gl - 1.0) / (2.0 * gl));
      if (sl >= 0.0) {
        w = left;
      } else {
        const double gm = (gl - 1.0) / (gl + 1.0);
        w.rho = left.rho * (ratio + gm) / (gm * ratio + 1.0);
        w.u = ustar;
        w.p = p;
      }
    } else {
      const double head = left.u - al;
      const double astar = al * std::pow(p / left.p, (gl - 1.0) / (2.0 * gl));
      const double tail = ustar - astar;
      if (head >= 0.0) {
        w = left;
      } else if (tail <= 0.0) {
        w.rho = left.rho * std::pow(p / left.p, 1.0 / gl);
        w.u = ustar;
        w.p = p;
      } else {
        trace.left_fan = true;
        const double factor =
            2.0 / (gl + 1.0) + (gl - 1.0) / ((gl + 1.0) * al) * left.u;
        w.rho = left.rho * std::pow(factor, 2.0 / (gl - 1.0));
        w.u = 2.0 / (gl + 1.0) * (al + (gl - 1.0) / 2.0 * left.u);
        w.p = left.p * std::pow(factor, 2.0 * gl / (gl - 1.0));
      }
    }
  } else {
    w.v = right.v;
    w.phi = right.phi;
    if (p > right.p) {
      const double ratio = p / right.p;
      const double sr =
          right.u + ar * std::sqrt((gr + 1.0) / (2.0 * gr) * ratio +
                                   (gr - 1.0) / (2.0 * gr));
      if (sr <= 0.0) {
        w = right;
      } else {
        const double gm = (gr - 1.0) / (gr + 1.0);
        w.rho = right.rho * (ratio + gm) / (gm * ratio + 1.0);
        w.u = ustar;
        w.p = p;
      }
    } else {
      const double head = right.u + ar;
      const double astar = ar * std::pow(p / right.p, (gr - 1.0) / (2.0 * gr));
      const double tail = ustar + astar;
      if (head <= 0.0) {
        w = right;
      } else if (tail >= 0.0) {
        w.rho = right.rho * std::pow(p / right.p, 1.0 / gr);
        w.u = ustar;
        w.p = p;
      } else {
        trace.right_fan = true;
        const double factor =
            2.0 / (gr + 1.0) - (gr - 1.0) / ((gr + 1.0) * ar) * right.u;
        w.rho = right.rho * std::pow(factor, 2.0 / (gr - 1.0));
        w.u = 2.0 / (gr + 1.0) * (-ar + (gr - 1.0) / 2.0 * right.u);
        w.p = right.p * std::pow(factor, 2.0 * gr / (gr - 1.0));
      }
    }
  }
  return RiemannResult{w, p, ustar, iter};
}

// --- seeded inputs -------------------------------------------------------------

using riemann_inputs::nudge;
using riemann_inputs::pick;
using riemann_inputs::random_state;

std::string hex(double x) {
  std::ostringstream os;
  os << std::hexfloat << x;
  return os.str();
}

std::string describe(const Prim& w) {
  return "{" + hex(w.rho) + ", " + hex(w.u) + ", " + hex(w.v) + ", " +
         hex(w.p) + ", " + hex(w.phi) + "}";
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_result(const RiemannResult& a, const RiemannResult& b) {
  return std::memcmp(&a.sampled, &b.sampled, sizeof(Prim)) == 0 &&
         same_bits(a.p_star, b.p_star) && same_bits(a.u_star, b.u_star) &&
         a.iterations == b.iterations;
}

TEST(RiemannDifferential, FastPathMatchesPlainSolveBitExactly) {
  // Gas models: the paper's Air/Freon pair, a single gas, and non-physical
  // closures where phi = 1 yields gamma = 1 (the plain solve gives NaN),
  // gamma = 0 (zero sound speed) and gamma < 1.
  const GasModel gases[] = {GasModel{}, GasModel{1.4, 1.4}, GasModel{1.0, 1.4},
                            GasModel{0.0, 1.4}, GasModel{0.5, 0.8}};
  const RiemannParams params[] = {
      RiemannParams{},
      RiemannParams{1e-12, 5},
      RiemannParams{1e-3, 2},
      RiemannParams{0.0, 40},  // tol 0: no shortcut, full iteration budget
      RiemannParams{1e-8, 0},  // no iteration at all
      RiemannParams{std::numeric_limits<double>::quiet_NaN(), 3},
  };
  constexpr long kPairs = 1'200'000;

  ccaperf::Rng rng(0x60d0'0f1a'5e7ULL);
  long mismatches = 0, identical = 0, identical_signed_zero_u = 0,
       identical_off_guard = 0, one_bit_apart = 0, nondefault = 0;
  long waves[2][2] = {{0, 0}, {0, 0}};  // [left shock][right shock]
  long left_fan = 0, right_fan = 0;
  for (long n = 0; n < kPairs; ++n) {
    // Default gas and parameters for most pairs; the rest spread over
    // the non-default closures and iteration settings.
    const bool plain = rng.uniform() < 0.7;
    const GasModel& gas = plain ? gases[0] : gases[rng.uniform_int(0, 4)];
    const RiemannParams& prm = plain ? params[0] : params[rng.uniform_int(0, 5)];
    nondefault += plain ? 0 : 1;

    const Prim l = random_state(rng);
    const double mode = rng.uniform();
    Prim r;
    if (mode < 0.5) {
      r = l;
      ++identical;
      identical_signed_zero_u += l.u == 0.0 ? 1 : 0;
      identical_off_guard += (l.rho < 1e-100 || l.rho > 1e100 || l.p < 1e-12 ||
                              l.p > 1e100 || std::abs(l.u) > 1e100)
                                 ? 1
                                 : 0;
    } else if (mode < 0.6) {
      r = nudge(rng, l);
      ++one_bit_apart;
    } else {
      r = random_state(rng);
    }

    RefTrace trace;
    const RiemannResult want = ref_exact_riemann(l, r, gas, prm, trace);
    const RiemannResult got = euler::exact_riemann(l, r, gas, prm);
    ++waves[trace.left_shock ? 1 : 0][trace.right_shock ? 1 : 0];
    left_fan += trace.left_fan ? 1 : 0;
    right_fan += trace.right_fan ? 1 : 0;
    if (!same_result(want, got)) {
      if (++mismatches <= 5)
        ADD_FAILURE() << "pair " << n << ": left " << describe(l) << " right "
                      << describe(r) << " gammas " << gas.gamma1 << "/"
                      << gas.gamma2 << " tol " << prm.tol << " max_iter "
                      << prm.max_iter << "\n  want sampled "
                      << describe(want.sampled) << " p* " << hex(want.p_star)
                      << " u* " << hex(want.u_star) << " iters "
                      << want.iterations << "\n  got  sampled "
                      << describe(got.sampled) << " p* " << hex(got.p_star)
                      << " u* " << hex(got.u_star) << " iters "
                      << got.iterations;
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << kPairs << " pairs";

  // The inputs reached what they are meant to reach.
  EXPECT_GT(identical, kPairs / 3);
  EXPECT_GT(identical_signed_zero_u, 10'000);
  EXPECT_GT(identical_off_guard, 10'000);
  EXPECT_GT(one_bit_apart, 50'000);
  EXPECT_GT(nondefault, 100'000);
  for (int ls = 0; ls < 2; ++ls)
    for (int rs = 0; rs < 2; ++rs)
      EXPECT_GT(waves[ls][rs], 10'000)
          << "left " << (ls ? "shock" : "rarefaction") << ", right "
          << (rs ? "shock" : "rarefaction");
  EXPECT_GT(left_fan, 1'000);
  EXPECT_GT(right_fan, 1'000);
}

TEST(RiemannDifferential, IdenticalStatesTakeOneIteration) {
  // The shortcut's own contract on the paper's gas pair: sampled = input
  // with u + 0.0, p* = p, u* = u + 0.0, one iteration.
  const GasModel gas;
  for (const double u : {0.0, -0.0, 0.3, -1.7}) {
    const Prim w{1.2, u, -0.0, 0.9, 0.4};
    const RiemannResult r = euler::exact_riemann(w, w, gas);
    EXPECT_EQ(r.iterations, 1);
    EXPECT_TRUE(same_bits(r.u_star, u + 0.0)) << u;
    EXPECT_TRUE(same_bits(r.sampled.u, u + 0.0)) << u;
    EXPECT_TRUE(same_bits(r.p_star, w.p));
    EXPECT_TRUE(same_bits(r.sampled.v, w.v));
  }
}

// --- frozen reference: the five-pass flux divergence ---------------------------

void ref_flux_divergence(const euler::Array2& fx, const euler::Array2& fy,
                         const amr::Box& interior, double dx, double dy,
                         amr::PatchData<double>& dudt) {
  constexpr int x_map[euler::kNcomp] = {euler::kRho, euler::kMx, euler::kMy,
                                        euler::kE, euler::kRphi};
  constexpr int y_map[euler::kNcomp] = {euler::kRho, euler::kMy, euler::kMx,
                                        euler::kE, euler::kRphi};
  const double inv_dx = 1.0 / dx, inv_dy = 1.0 / dy;
  for (int c = 0; c < euler::kNcomp; ++c)
    for (int jj = 0; jj < interior.height(); ++jj)
      for (int ii = 0; ii < interior.width(); ++ii) {
        double div = 0.0;
        for (int k = 0; k < euler::kNcomp; ++k) {
          if (x_map[k] == c) div += (fx(ii + 1, jj, k) - fx(ii, jj, k)) * inv_dx;
          if (y_map[k] == c) div += (fy(ii, jj + 1, k) - fy(ii, jj, k)) * inv_dy;
        }
        dudt(interior.lo().i + ii, interior.lo().j + jj, c) = -div;
      }
}

/// Flux values with repeats and signed zeros, so differences of equal
/// neighbours produce the +0/-0 cases the (0.0 + first) order decides.
void fill_fluxes(ccaperf::Rng& rng, euler::Array2& a) {
  const double palette[] = {0.0, -0.0, 1.0, -1.0, 0.25};
  for (double& v : a.raw())
    v = rng.uniform() < 0.4 ? pick(rng, palette) : rng.uniform(-3.0, 3.0);
}

std::vector<std::uint64_t> bits_of(const amr::PatchData<double>& d,
                                   const amr::Box& interior) {
  std::vector<std::uint64_t> out;
  for (int c = 0; c < euler::kNcomp; ++c)
    for (int j = interior.lo().j; j <= interior.hi().j; ++j)
      for (int i = interior.lo().i; i <= interior.hi().i; ++i) {
        std::uint64_t b = 0;
        const double v = d(i, j, c);
        std::memcpy(&b, &v, sizeof b);
        out.push_back(b);
      }
  return out;
}

TEST(FluxDivergenceDifferential, OnePassMatchesFivePassBitExactly) {
  ccaperf::ThreadPool one(1), three(3);
  ccaperf::Rng rng(0xd1e5'0f'f1ULL);
  const amr::Box boxes[] = {amr::Box{0, 0, 0, 0},   amr::Box{3, -2, 5, 9},
                            amr::Box{0, 0, 23, 11}, amr::Box{-4, 7, 44, 30},
                            amr::Box{10, 10, 57, 57}};
  for (const amr::Box& interior : boxes) {
    for (int rep = 0; rep < 4; ++rep) {
      euler::Array2 fx(interior.width() + 1, interior.height(), euler::kNcomp);
      euler::Array2 fy(interior.width(), interior.height() + 1, euler::kNcomp);
      fill_fluxes(rng, fx);
      fill_fluxes(rng, fy);
      const double dx = rng.uniform(0.001, 0.1), dy = rng.uniform(0.001, 0.1);
      const double nan = std::numeric_limits<double>::quiet_NaN();
      amr::PatchData<double> want(interior, 0, euler::kNcomp, nan);
      ref_flux_divergence(fx, fy, interior, dx, dy, want);
      const auto want_bits = bits_of(want, interior);

      amr::PatchData<double> serial(interior, 0, euler::kNcomp, nan);
      euler::flux_divergence(fx, fy, interior, dx, dy, serial);
      EXPECT_EQ(bits_of(serial, interior), want_bits) << "serial";
      for (ccaperf::ThreadPool* pool : {&one, &three}) {
        amr::PatchData<double> mt(interior, 0, euler::kNcomp, nan);
        euler::flux_divergence_mt(*pool, fx, fy, interior, dx, dy, mt);
        EXPECT_EQ(bits_of(mt, interior), want_bits) << pool->size() << " lanes";
      }
    }
  }
}

}  // namespace
