#pragma once
// Exact Riemann solver for the Euler equations (Toro's two-shock/
// two-rarefaction iteration, generalized to a different gamma per side —
// needed at the Air/Freon interface).
//
// This powers GodunovFlux. The pressure iteration is Newton-Raphson and
// its iteration count is *data dependent* (strong jumps take more
// iterations) — the mechanism behind the paper's observation that
// GodunovFlux "involves an internal iterative solution for every element
// of the data array", producing a standard deviation that grows with
// array size (Fig. 7).
//
// Fast path, bit-exact with the plain textbook solve:
//  * Identical states. When left and right are bitwise equal (about 30% of
//    the case study's faces: smooth regions reconstruct equal states),
//    the plain solve's PVRS guess is p, both pressure functions vanish,
//    the Newton step is +0 and the loop stops after one iteration; the
//    sample is the input state with u + 0.0. The solver returns exactly
//    that without iterating, inside a guard (finite, nonzero
//    intermediates, gamma > 1, max_iter >= 1, tol > 0) where the argument
//    holds, and runs the full solve outside it.
//  * Per-side constants of the pressure function are computed once per
//    solve with the same expressions; with -ffp-contract=off (set on the
//    library) every rounding is unchanged.
//  * The final pressure evaluation skips the unused derivative, and the
//    rarefaction sampler reuses its (p/p_K)^((g-1)/2g) — same arguments,
//    same libm call, same bits.
// tests/euler/test_godunov_differential.cpp compares the result with a
// frozen copy of the plain solve bit for bit.
//
// This is also the reference of the AVX2/AVX-512 Godunov sweep
// (godunov_range_vec in kernels_simd_impl.hpp), which solves W faces per
// vector: Newton in lock-step, each branch a per-lane blend of the
// scalar expressions, each pow the same std::pow call on the same
// arguments. Edit the two together.

#include "euler/state.hpp"

namespace euler {

struct RiemannResult {
  Prim sampled;     ///< state on the interface (x/t = 0)
  double p_star;    ///< star-region pressure
  double u_star;    ///< star-region velocity
  int iterations;   ///< Newton iterations used
};

struct RiemannParams {
  double tol = 1e-8;
  int max_iter = 40;
};

/// Solves the 1-D Riemann problem with left/right states given in the
/// *face-normal* frame (u = normal velocity, v = transverse, advected).
/// gammaL/gammaR are evaluated from each side's phi.
RiemannResult exact_riemann(const Prim& left, const Prim& right,
                            const GasModel& gas,
                            const RiemannParams& params = {});

}  // namespace euler
