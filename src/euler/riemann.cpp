#include "euler/riemann.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "support/error.hpp"

namespace euler {

namespace {

/// One side's constants of Toro's pressure function f_K(p), computed once
/// per solve. Each is the same expression the textbook form evaluates
/// inside f_K, and -ffp-contract=off keeps its rounding, so hoisting them
/// out of the Newton loop changes no bit.
struct Side {
  double pk;
  double A;      ///< shock: 2 / ((g + 1) rho)
  double B;      ///< shock: (g - 1) / (g + 1) pk
  double C;      ///< rarefaction: 2a / (g - 1)
  double e_f;    ///< rarefaction: (g - 1) / 2g, exponent of f
  double e_fd;   ///< rarefaction: -(g + 1) / 2g, exponent of f'
  double rho_a;  ///< rarefaction: rho a

  Side(const Prim& w, double g, double a)
      : pk(w.p),
        A(2.0 / ((g + 1.0) * w.rho)),
        B((g - 1.0) / (g + 1.0) * w.p),
        C(2.0 * a / (g - 1.0)),
        e_f((g - 1.0) / (2.0 * g)),
        e_fd(-(g + 1.0) / (2.0 * g)),
        rho_a(w.rho * a) {}

  /// f_K(p) and its derivative (Newton iteration).
  void eval(double p, double& f, double& fd) const {
    if (p > pk) {
      const double sqrt_term = std::sqrt(A / (B + p));
      f = (p - pk) * sqrt_term;
      fd = sqrt_term * (1.0 - 0.5 * (p - pk) / (B + p));
    } else {
      const double pr = p / pk;
      f = C * (std::pow(pr, e_f) - 1.0);
      fd = std::pow(pr, e_fd) / rho_a;
    }
  }

  /// f_K(p) alone (final pressure). On the rarefaction branch, `pow_f`
  /// receives (p/pk)^((g-1)/2g), which the sampler's a* reuses.
  double value(double p, double& pow_f) const {
    if (p > pk) return (p - pk) * std::sqrt(A / (B + p));
    pow_f = std::pow(p / pk, e_f);
    return C * (pow_f - 1.0);
  }
};

/// Bounds inside which a face with bitwise-identical sides provably takes
/// the full solve's path to `sampled = left, u + 0`: every intermediate
/// (2 rho, 2a, rho a, 2a/(g-1), 1/(rho a)) is finite and nonzero, so the
/// PVRS guess is p, f_K(p) = 0 on both sides, the Newton step is +0 and
/// the loop stops after one iteration.
bool identical_state_shortcut_holds(const Prim& w, double g,
                                    const RiemannParams& params) {
  return w.rho >= 1e-100 && w.rho <= 1e100 && w.p >= 1e-12 && w.p <= 1e100 &&
         std::abs(w.u) <= 1e100 && g > 1.0 && g <= 1e10 &&
         params.max_iter >= 1 && params.tol > 0.0;
}

}  // namespace

RiemannResult exact_riemann(const Prim& left, const Prim& right,
                            const GasModel& gas, const RiemannParams& params) {
  CCAPERF_REQUIRE(left.rho > 0.0 && right.rho > 0.0 && left.p > 0.0 && right.p > 0.0,
                  "exact_riemann: non-physical input state");
  const double gl = gas.gamma_of(left.phi);

  // Identical states (about 30% of the case study's faces): the full
  // solve below returns exactly this — see identical_state_shortcut_holds.
  if (std::memcmp(&left, &right, sizeof(Prim)) == 0 &&
      identical_state_shortcut_holds(left, gl, params)) {
    Prim w = left;
    w.u = left.u + 0.0;
    return RiemannResult{w, left.p, left.u + 0.0, 1};
  }

  const double gr = gas.gamma_of(right.phi);
  const double al = std::sqrt(gl * left.p / left.rho);
  const double ar = std::sqrt(gr * right.p / right.rho);
  const double du = right.u - left.u;
  const Side L(left, gl, al), R(right, gr, ar);

  // PVRS initial guess, floored.
  double p = 0.5 * (left.p + right.p) -
             0.125 * du * (left.rho + right.rho) * (al + ar);
  p = std::max(p, 1e-12);

  int iter = 0;
  for (; iter < params.max_iter; ++iter) {
    double fl, fld, fr, frd;
    L.eval(p, fl, fld);
    R.eval(p, fr, frd);
    const double delta = (fl + fr + du) / (fld + frd);
    const double pnew = std::max(p - delta, 1e-12);
    const double change = 2.0 * std::abs(pnew - p) / (pnew + p);
    p = pnew;
    if (change < params.tol) {
      ++iter;
      break;
    }
  }

  double pow_l = 0.0, pow_r = 0.0;
  const double fl = L.value(p, pow_l);
  const double fr = R.value(p, pow_r);
  const double ustar = 0.5 * (left.u + right.u) + 0.5 * (fr - fl);

  // Sample at x/t = 0.
  Prim w;
  if (ustar >= 0.0) {
    // Interface lies left of the contact: use the left wave family.
    w.v = left.v;
    w.phi = left.phi;
    if (p > left.p) {
      // Left shock.
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
      // Left rarefaction.
      const double head = left.u - al;
      const double astar = al * pow_l;
      const double tail = ustar - astar;
      if (head >= 0.0) {
        w = left;
      } else if (tail <= 0.0) {
        w.rho = left.rho * std::pow(p / left.p, 1.0 / gl);
        w.u = ustar;
        w.p = p;
      } else {
        // Inside the fan at x/t = 0.
        const double factor =
            2.0 / (gl + 1.0) + (gl - 1.0) / ((gl + 1.0) * al) * left.u;
        w.rho = left.rho * std::pow(factor, 2.0 / (gl - 1.0));
        w.u = 2.0 / (gl + 1.0) * (al + (gl - 1.0) / 2.0 * left.u);
        w.p = left.p * std::pow(factor, 2.0 * gl / (gl - 1.0));
      }
    }
  } else {
    // Right wave family.
    w.v = right.v;
    w.phi = right.phi;
    if (p > right.p) {
      // Right shock.
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
      // Right rarefaction.
      const double head = right.u + ar;
      const double astar = ar * pow_r;
      const double tail = ustar + astar;
      if (head <= 0.0) {
        w = right;
      } else if (tail >= 0.0) {
        w.rho = right.rho * std::pow(p / right.p, 1.0 / gr);
        w.u = ustar;
        w.p = p;
      } else {
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

}  // namespace euler
