#pragma once
// Seeded exact-Riemann inputs shared by the Godunov differential and SIMD
// tests: states on and around the identical-state shortcut's guard edges,
// signed zeros, tiny and huge magnitudes, phi inside and outside [0, 1],
// and pairs one ulp apart, so a solve reaches every wave pattern.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "euler/state.hpp"
#include "support/rng.hpp"

namespace riemann_inputs {

inline double up(double x) { return std::nextafter(x, std::numeric_limits<double>::infinity()); }
inline double down(double x) { return std::nextafter(x, 0.0); }

/// Values on and around the identical-state guard's edges, and beyond.
inline const double kRhoEdges[] = {1e-120, down(1e-100), 1e-100, up(1e-100),
                                   down(1e100), 1e100, up(1e100), 1e120};
inline const double kPEdges[] = {1e-120, 1e-13, 5e-13, down(1e-12), 1e-12,
                                 up(1e-12), down(1e100), 1e100, up(1e100),
                                 1e120};
inline const double kUEdges[] = {0.0, -0.0, 1e-310, -1e-310, 1e100, -1e100,
                                 up(1e100), -up(1e100), 1e120, -1e120};

template <std::size_t N>
double pick(ccaperf::Rng& rng, const double (&v)[N]) {
  return v[rng.uniform_int(0, static_cast<std::int64_t>(N) - 1)];
}

inline double log_uniform(ccaperf::Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

inline euler::Prim random_state(ccaperf::Rng& rng) {
  euler::Prim w;
  w.rho = rng.uniform() < 0.08 ? pick(rng, kRhoEdges) : log_uniform(rng, 0.05, 20.0);
  w.p = rng.uniform() < 0.08 ? pick(rng, kPEdges) : log_uniform(rng, 0.01, 100.0);
  const double a = std::sqrt(1.4 * w.p / w.rho);
  const double r = rng.uniform();
  w.u = r < 0.1 ? pick(rng, kUEdges) : rng.uniform(-2.5, 2.5) * a;
  w.v = rng.uniform() < 0.1 ? -0.0 : rng.uniform(-1.0, 1.0);
  const double f = rng.uniform();
  w.phi = f < 0.3 ? 0.0 : (f < 0.6 ? 1.0 : (f < 0.65 ? rng.uniform(-0.2, 1.2)
                                                      : rng.uniform()));
  return w;
}

/// Nudges one field of `w` by one ulp (or flips the sign of a zero), so
/// the pair differs in exactly one bit pattern.
inline euler::Prim nudge(ccaperf::Rng& rng, euler::Prim w) {
  switch (rng.uniform_int(0, 4)) {
    case 0: w.rho = up(w.rho); break;
    case 1: w.u = w.u == 0.0 ? -w.u : up(w.u); break;
    case 2: w.v = w.v == 0.0 ? -w.v : up(w.v); break;
    case 3: w.p = up(w.p); break;
    default: w.phi = w.phi == 0.0 ? -w.phi : up(w.phi); break;
  }
  return w;
}

}  // namespace riemann_inputs
