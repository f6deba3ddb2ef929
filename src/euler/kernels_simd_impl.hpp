#pragma once
// Width-generic SIMD bodies of the States and EFM sweep kernels plus the
// RK2 update loops, instantiated at W=4 (AVX2) and W=8 (AVX-512) by the
// per-ISA translation units. Built on GCC/Clang vector extensions so one
// template serves every ISA; the TU's -m flags pick the instruction set.
// States has no sweep loop of its own here: VecStatesGroups plugs W-wide
// cell conversion and face reconstruction into the per-line algorithm of
// kernels_ranges.hpp, which the scalar level runs with no vector groups.
//
// BIT-EXACTNESS CONTRACT (DESIGN.md §11): every lane evaluates exactly the
// expression DAG of the scalar reference in kernels_ranges.hpp —
//  * same operand order and associativity in every expression;
//  * IEEE add/sub/mul/div/sqrt are correctly rounded, so the packed forms
//    equal the scalar forms bit for bit;
//  * no FMA contraction (these TUs compile with -ffp-contract=off —
//    a contracted a*b+c would round once instead of twice);
//  * erf/exp go through the same scalar libm call per lane;
//  * branches (minmod, the phi clamp) become compare+blend, which selects
//    between the identical candidate values.
// Probe replay: traced instantiations issue the probe calls of exactly one
// scalar face at a time, in scalar face order, so CacheSim counters are
// bit-identical to the scalar kernel. For NullProbe the replay loop
// compiles away (kCounting is false).

#include <cmath>
#include <cstring>
#include <immintrin.h>

#include "euler/kernels_ranges.hpp"

namespace euler::detail {

template <int W>
struct VecTypes;
template <>
struct VecTypes<4> {
  typedef double V __attribute__((vector_size(32)));
  typedef long long M __attribute__((vector_size(32)));
};
template <>
struct VecTypes<8> {
  typedef double V __attribute__((vector_size(64)));
  typedef long long M __attribute__((vector_size(64)));
};

template <int W>
using Vec = typename VecTypes<W>::V;
template <int W>
using Mask = typename VecTypes<W>::M;

template <int W>
inline Vec<W> vbc(double x) {
  Vec<W> v;
  for (int l = 0; l < W; ++l) v[l] = x;
  return v;
}

/// Unaligned contiguous load (compiles to one vmovupd).
template <int W>
inline Vec<W> vloadu(const double* p) {
  Vec<W> v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

template <int W>
inline void vstoreu(double* p, Vec<W> v) {
  __builtin_memcpy(p, &v, sizeof v);
}

/// Strided gather: lane l reads p[l * stride] (stride in doubles), with
/// the ISA's gather instruction. A lane-by-lane form compiles to W scalar
/// loads and inserts, which made the Y (column) States conversion slower
/// than the scalar level. Loads only, so exact. Both SIMD TUs have AVX2;
/// the AVX-512 one uses the all-lanes masked form because GCC 12 flags
/// the unmasked intrinsic's internal pass-through operand as
/// uninitialized.
template <int W>
Vec<W> vgather(const double* p, std::ptrdiff_t stride);

template <>
inline Vec<4> vgather<4>(const double* p, std::ptrdiff_t stride) {
  const __m256i idx = _mm256_set_epi64x(3 * stride, 2 * stride, stride, 0);
  return (Vec<4>)_mm256_i64gather_pd(p, idx, 8);
}

#if defined(__AVX512F__)
template <>
inline Vec<8> vgather<8>(const double* p, std::ptrdiff_t stride) {
  const __m512i idx = _mm512_set_epi64(7 * stride, 6 * stride, 5 * stride,
                                       4 * stride, 3 * stride, 2 * stride,
                                       stride, 0);
  return (Vec<8>)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xff, idx, p,
                                          8);
}
#endif

/// Blend: lane l gets a[l] where m[l] is all-ones (a vector comparison
/// result), else b[l]. Pure bit ops — exact.
template <int W>
inline Vec<W> vselect(Mask<W> m, Vec<W> a, Vec<W> b) {
  return (Vec<W>)((m & (Mask<W>)a) | (~m & (Mask<W>)b));
}

/// |x| by clearing the sign bit — identical to std::abs on every lane.
template <int W>
inline Vec<W> vabs(Vec<W> x) {
  Mask<W> m;
  for (int l = 0; l < W; ++l) m[l] = 0x7fffffffffffffffLL;
  return (Vec<W>)((Mask<W>)x & m);
}

/// Correctly rounded per IEEE-754, so packed == scalar bit for bit.
template <int W>
inline Vec<W> vsqrt(Vec<W> x) {
  Vec<W> r;
  for (int l = 0; l < W; ++l) r[l] = std::sqrt(x[l]);
  return r;
}

// erf/exp are NOT correctly-rounded vector primitives anywhere — a packed
// polynomial would diverge from libm in the last ulp and break the
// bit-exactness contract, so each lane makes the scalar libm call.
template <int W>
inline Vec<W> verf(Vec<W> x) {
  Vec<W> r;
  for (int l = 0; l < W; ++l) r[l] = std::erf(x[l]);
  return r;
}

template <int W>
inline Vec<W> vexp(Vec<W> x) {
  Vec<W> r;
  for (int l = 0; l < W; ++l) r[l] = std::exp(x[l]);
  return r;
}

/// Lane-wise detail::minmod: same products, same comparisons, blended.
template <int W>
inline Vec<W> vminmod(Vec<W> a, Vec<W> b) {
  const Vec<W> zero = vbc<W>(0.0);
  const Vec<W> pick = vselect<W>(vabs<W>(a) < vabs<W>(b), a, b);
  return vselect<W>(a * b <= zero, zero, pick);
}

template <int W>
struct PrimV {
  Vec<W> rho, u, v, p, phi;
};

/// Lane-wise GasModel::gamma_of (clamp via blends).
template <int W>
inline Vec<W> vgamma_of(const GasModel& gas, Vec<W> phi) {
  const Vec<W> zero = vbc<W>(0.0), one = vbc<W>(1.0);
  const Vec<W> f =
      vselect<W>(phi < zero, zero, vselect<W>(phi > one, one, phi));
  const Vec<W> inv = f / vbc<W>(gas.gamma1 - 1.0) +
                     (one - f) / vbc<W>(gas.gamma2 - 1.0);
  return one + one / inv;
}

/// Lane-wise cons_to_prim over gathered component vectors.
template <int W>
inline PrimV<W> vcons_to_prim(const Vec<W> q[kNcomp], const GasModel& gas) {
  PrimV<W> w;
  w.rho = q[kRho];
  const Vec<W> inv_rho = vbc<W>(1.0) / w.rho;
  w.u = q[kMx] * inv_rho;
  w.v = q[kMy] * inv_rho;
  w.phi = q[kRphi] * inv_rho;
  const Vec<W> gamma = vgamma_of<W>(gas, w.phi);
  const Vec<W> kinetic = vbc<W>(0.5) * w.rho * (w.u * w.u + w.v * w.v);
  w.p = (gamma - vbc<W>(1.0)) * (q[kE] - kinetic);
  return w;
}

// --- States (MUSCL reconstruction) -------------------------------------------

/// The vector bodies of states_range_lines (kernels_ranges.hpp): W strip
/// cells converted at once (lane l holding cell k+l), and W faces
/// reconstructed as kNcomp vectors over their flat component-innermost
/// elements.
template <int W>
struct VecStatesGroups {
  static constexpr int kWidth = W;

  /// convert_cell for cells k .. k+W-1: one load (Dir::x) or strided
  /// gather (Dir::y) per component, one vcons_to_prim, and the lanes
  /// stored cell by cell into the component-innermost strip.
  static void convert(const StatesLine& line, const GasModel& gas, int k) {
    const double* u = line.cell0 + k * line.cell_step;
    Vec<W> q[kNcomp];
    for (int c = 0; c < kNcomp; ++c) {
      const double* base = u + c * line.comp_step;
      q[c] = line.dir == Dir::x ? vloadu<W>(base)
                                : vgather<W>(base, line.cell_step);
    }
    const PrimV<W> p = vcons_to_prim<W>(q, gas);
    const Vec<W> un = line.dir == Dir::x ? p.u : p.v;
    const Vec<W> ut = line.dir == Dir::x ? p.v : p.u;
    double* s = line.strip + k * kNcomp;
    for (int l = 0; l < W; ++l) {
      s[l * kNcomp + 0] = p.rho[l];
      s[l * kNcomp + 1] = un[l];
      s[l * kNcomp + 2] = ut[l];
      s[l * kNcomp + 3] = p.p[l];
      s[l * kNcomp + 4] = p.phi[l];
    }
  }

  /// states_face for faces f .. f+W-1. Their kNcomp*W left (right)
  /// elements are contiguous in the strip's layout, and element t's
  /// stencil is strip[t], [t+5], [t+10], [t+15], so each of the kNcomp
  /// vectors takes four unaligned loads and the same dm / minmod /
  /// +-0.5*s expressions. Dir::x faces are contiguous in the face arrays
  /// too; Dir::y faces are copied out one 5-element state at a time.
  static void faces(const StatesLine& line, int f) {
    const double* w = line.strip + f * kNcomp;
    double lbuf[kNcomp * W], rbuf[kNcomp * W];
    const bool direct = line.face_step == kNcomp;
    double* lp = direct ? line.left0 + f * line.face_step : lbuf;
    double* rp = direct ? line.right0 + f * line.face_step : rbuf;
    for (int v = 0; v < kNcomp * W; v += W) {
      const Vec<W> w0 = vloadu<W>(w + v), w1 = vloadu<W>(w + v + kNcomp),
                   w2 = vloadu<W>(w + v + 2 * kNcomp),
                   w3 = vloadu<W>(w + v + 3 * kNcomp);
      const Vec<W> dm = w2 - w1;
      const Vec<W> sl = vminmod<W>(w1 - w0, dm);
      const Vec<W> sr = vminmod<W>(dm, w3 - w2);
      vstoreu<W>(lp + v, w1 + vbc<W>(0.5) * sl);
      vstoreu<W>(rp + v, w2 - vbc<W>(0.5) * sr);
    }
    if (direct) return;
    for (int l = 0; l < W; ++l) {
      std::memcpy(line.left0 + (f + l) * line.face_step, lbuf + l * kNcomp,
                  sizeof(double) * kNcomp);
      std::memcpy(line.right0 + (f + l) * line.face_step, rbuf + l * kNcomp,
                  sizeof(double) * kNcomp);
    }
  }
};

// --- EFM flux ----------------------------------------------------------------

template <int W>
struct FaceFluxV {
  Vec<W> mass, mom_n, mom_t, energy, phi_mass;
};

/// Lane-wise detail::efm_half_flux; `sign` is the scalar ±1.0.
template <int W>
inline void vefm_half_flux(const PrimV<W>& w, Vec<W> gamma, double sign,
                           FaceFluxV<W>& f) {
  const Vec<W> sg = vbc<W>(sign);
  const Vec<W> theta = w.p / w.rho;
  const Vec<W> inv_sqrt_2theta =
      vbc<W>(1.0) / vsqrt<W>(vbc<W>(2.0) * theta);
  const Vec<W> s = w.u * inv_sqrt_2theta;
  const Vec<W> A = vbc<W>(0.5) * (vbc<W>(1.0) + sg * verf<W>(s));
  const Vec<W> G = vsqrt<W>(theta / vbc<W>(2.0 * M_PI)) *
                   vexp<W>(-w.u * w.u / (vbc<W>(2.0) * theta));

  const Vec<W> mass = w.rho * (w.u * A + sg * G);
  const Vec<W> mom = w.rho * ((w.u * w.u + theta) * A + sg * w.u * G);
  const Vec<W> e_rest = theta / (gamma - vbc<W>(1.0)) - vbc<W>(0.5) * theta +
                        vbc<W>(0.5) * w.v * w.v;
  const Vec<W> energy =
      vbc<W>(0.5) * w.rho *
          ((w.u * w.u * w.u + vbc<W>(3.0) * w.u * theta) * A +
           sg * (w.u * w.u + vbc<W>(2.0) * theta) * G) +
      e_rest * mass;

  f.mass += mass;
  f.mom_n += mom;
  f.mom_t += w.v * mass;
  f.energy += energy;
  f.phi_mass += w.phi * mass;
}

template <int W, class Probe>
KernelCounts efm_range_vec(const Array2& left, const Array2& right, Dir dir,
                           const GasModel& gas, Array2& flux, Probe& probe,
                           int o_begin, int o_end) {
  const int nx = left.nx(), ny = left.ny();
  const int inner = dir == Dir::x ? nx : ny;
  const int di = dir == Dir::x ? 1 : 0;
  const int dj = 1 - di;
  // Faces are kNcomp apart along fi and nx*kNcomp apart along fj, so the
  // lane loads are gathers in both directions (components are innermost).
  const std::ptrdiff_t face_lane =
      dir == Dir::x ? kNcomp : static_cast<std::ptrdiff_t>(nx) * kNcomp;
  const std::ptrdiff_t face_comp = comp_stride_bytes(left);
  KernelCounts counts;

  auto gather_prim = [&](const Array2& a, int fi0, int fj0) {
    PrimV<W> w;
    w.rho = vgather<W>(a.addr(fi0, fj0, 0), face_lane);
    w.u = vgather<W>(a.addr(fi0, fj0, 1), face_lane);
    w.v = vgather<W>(a.addr(fi0, fj0, 2), face_lane);
    w.p = vgather<W>(a.addr(fi0, fj0, 3), face_lane);
    w.phi = vgather<W>(a.addr(fi0, fj0, 4), face_lane);
    return w;
  };

  for (int o = o_begin; o < o_end; ++o) {
    int f = 0;
    for (; f + W <= inner; f += W) {
      const int fi0 = dir == Dir::x ? f : o;
      const int fj0 = dir == Dir::x ? o : f;
      const PrimV<W> l = gather_prim(left, fi0, fj0);
      const PrimV<W> r = gather_prim(right, fi0, fj0);

      FaceFluxV<W> ff;
      ff.mass = ff.mom_n = ff.mom_t = ff.energy = ff.phi_mass = vbc<W>(0.0);
      vefm_half_flux<W>(l, vgamma_of<W>(gas, l.phi), +1.0, ff);
      vefm_half_flux<W>(r, vgamma_of<W>(gas, r.phi), -1.0, ff);

      for (int l2 = 0; l2 < W; ++l2) {
        double* fp = &flux(fi0 + l2 * di, fj0 + l2 * dj, 0);
        fp[0] = ff.mass[l2];
        fp[1] = ff.mom_n[l2];
        fp[2] = ff.mom_t[l2];
        fp[3] = ff.energy[l2];
        fp[4] = ff.phi_mass[l2];
      }

      // Per face: two state load runs + one flux store run; bulk-skip the
      // group when the sampling gate would reject every batch (see
      // states_range_lines).
      if constexpr (Probe::kCounting) {
        if (!probe.skip_runs(3ull * W, 2ull * kNcomp * W,
                             static_cast<std::uint64_t>(kNcomp) * W,
                             static_cast<std::uint64_t>(kEfmFlopsPerFace) * W)) {
          for (int l2 = 0; l2 < W; ++l2) {
            const int fi = fi0 + l2 * di, fj = fj0 + l2 * dj;
            probe.load_run(left.addr(fi, fj, 0), face_comp, kNcomp,
                           sizeof(double));
            probe.load_run(right.addr(fi, fj, 0), face_comp, kNcomp,
                           sizeof(double));
            probe.flops(kEfmFlopsPerFace);
            probe.store_run(flux.addr(fi, fj, 0), face_comp, kNcomp,
                            sizeof(double));
          }
        }
      }
      counts.faces += W;
    }
    for (; f < inner; ++f) {
      const int fi = dir == Dir::x ? f : o;
      const int fj = dir == Dir::x ? o : f;
      efm_one_face(left, right, dir, gas, flux, probe, fi, fj);
      ++counts.faces;
    }
  }
  return counts;
}

// --- RK2 update loops --------------------------------------------------------

/// y[i] += a * x[i] over one contiguous row (RK2 stage 1).
template <int W>
void rk2_axpy_vec(double* y, const double* x, double a, std::size_t n) {
  const Vec<W> av = vbc<W>(a);
  std::size_t k = 0;
  for (; k + W <= n; k += W)
    vstoreu<W>(y + k, vloadu<W>(y + k) + av * vloadu<W>(x + k));
  for (; k < n; ++k) y[k] += a * x[k];
}

/// u[i] = 0.5 * (u_old[i] + u[i] + dt * dudt[i]) (RK2 Heun average).
template <int W>
void rk2_heun_vec(double* u, const double* u_old, const double* dudt,
                  double dt, std::size_t n) {
  const Vec<W> half = vbc<W>(0.5), dtv = vbc<W>(dt);
  std::size_t k = 0;
  for (; k + W <= n; k += W)
    vstoreu<W>(u + k, half * (vloadu<W>(u_old + k) + vloadu<W>(u + k) +
                              dtv * vloadu<W>(dudt + k)));
  for (; k < n; ++k) u[k] = 0.5 * (u_old[k] + u[k] + dt * dudt[k]);
}

}  // namespace euler::detail
