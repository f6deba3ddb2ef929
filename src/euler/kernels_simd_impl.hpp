#pragma once
// Width-generic SIMD bodies of the States, EFM and Godunov sweep kernels
// plus the RK2 update loops, instantiated at W=4 (AVX2) and W=8 (AVX-512)
// by the per-ISA translation units. Built on GCC/Clang vector extensions
// so one template serves every ISA; the TU's -m flags pick the
// instruction set.
// States has no sweep loop of its own here: VecStatesGroups plugs W-wide
// cell conversion and face reconstruction into the per-line algorithm of
// kernels_ranges.hpp, which the scalar level runs with no vector groups.
//
// BIT-EXACTNESS CONTRACT (DESIGN.md §11): every lane evaluates exactly the
// expression DAG of the scalar reference in kernels_ranges.hpp (and, for
// Godunov, exact_riemann in riemann.cpp) —
//  * same operand order and associativity in every expression;
//  * IEEE add/sub/mul/div/sqrt are correctly rounded, so the packed forms
//    equal the scalar forms bit for bit;
//  * no FMA contraction (these TUs compile with -ffp-contract=off —
//    a contracted a*b+c would round once instead of twice);
//  * erf/exp/pow go through the same scalar libm call per lane;
//  * branches (minmod, the phi clamp, every branch of the Riemann solve)
//    become compare+blend, which selects between the identical candidate
//    values; Godunov's Newton loop runs in lock-step, and a lane that has
//    converged keeps its pressure and iteration count.
// These are the raw kernels only: they take no probe, and a cache-traced
// call runs the scalar level (kernels.cpp), so traced counters come from
// one face order at every ISA level. The scalar bodies they call for
// group tails get a local NullProbe.

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

/// Gather: lane l reads p[idx[l]] (idx in doubles), with the ISA's
/// gather instruction. A lane-by-lane form compiles to W scalar loads and
/// inserts, which made the Y (column) States conversion slower than the
/// scalar level. Loads only, so exact. Both SIMD TUs have AVX2; the
/// AVX-512 one uses the all-lanes masked form because GCC 12 flags the
/// unmasked intrinsic's internal pass-through operand as uninitialized.
template <int W>
Vec<W> vgather_at(const double* p, Mask<W> idx);

template <>
inline Vec<4> vgather_at<4>(const double* p, Mask<4> idx) {
  return (Vec<4>)_mm256_i64gather_pd(p, (__m256i)idx, 8);
}

#if defined(__AVX512F__)
template <>
inline Vec<8> vgather_at<8>(const double* p, Mask<8> idx) {
  return (Vec<8>)_mm512_mask_i64gather_pd(_mm512_setzero_pd(), 0xff,
                                          (__m512i)idx, p, 8);
}
#endif

/// Strided gather: lane l reads p[l * stride] (stride in doubles).
template <int W>
Vec<W> vgather(const double* p, std::ptrdiff_t stride);

template <>
inline Vec<4> vgather<4>(const double* p, std::ptrdiff_t stride) {
  return vgather_at<4>(p, (Mask<4>)_mm256_set_epi64x(3 * stride, 2 * stride,
                                                     stride, 0));
}

#if defined(__AVX512F__)
template <>
inline Vec<8> vgather<8>(const double* p, std::ptrdiff_t stride) {
  return vgather_at<8>(
      p, (Mask<8>)_mm512_set_epi64(7 * stride, 6 * stride, 5 * stride,
                                   4 * stride, 3 * stride, 2 * stride,
                                   stride, 0));
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

/// Correctly rounded per IEEE-754, so packed == scalar bit for bit. The
/// AVX-512 form is masked for the reason vgather's is.
template <int W>
Vec<W> vsqrt(Vec<W> x);

template <>
inline Vec<4> vsqrt<4>(Vec<4> x) {
  return (Vec<4>)_mm256_sqrt_pd((__m256d)x);
}

#if defined(__AVX512F__)
template <>
inline Vec<8> vsqrt<8>(Vec<8> x) {
  return (Vec<8>)_mm512_mask_sqrt_pd(_mm512_setzero_pd(), 0xff, (__m512d)x);
}
#endif

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

template <int W>
KernelCounts efm_range_vec(const Array2& left, const Array2& right, Dir dir,
                           const GasModel& gas, Array2& flux, int o_begin,
                           int o_end) {
  const int nx = left.nx(), ny = left.ny();
  const int inner = dir == Dir::x ? nx : ny;
  const int di = dir == Dir::x ? 1 : 0;
  const int dj = 1 - di;
  // Faces are kNcomp apart along fi and nx*kNcomp apart along fj, so the
  // lane loads are gathers in both directions (components are innermost).
  const std::ptrdiff_t face_lane =
      dir == Dir::x ? kNcomp : static_cast<std::ptrdiff_t>(nx) * kNcomp;
  hwc::NullProbe probe;
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

// --- Godunov flux ------------------------------------------------------------
//
// exact_riemann (riemann.cpp) solved for W faces per vector, Newton in
// lock-step: a lane freezes its pressure and its iteration count when it
// converges, and the loop runs while any lane is still iterating. Every
// data-dependent branch of the scalar solve becomes a per-lane mask that
// blends between candidates each computed with the scalar expression, and
// every pow the scalar solve calls is made, by std::pow on the same
// arguments, for exactly the lanes that call it. So each lane returns the
// bits exact_riemann returns, NaN routing included.

/// Groups of W faces one batch solves together. The groups are
/// independent, so their divide and sqrt chains overlap in the pipeline.
inline constexpr int kGodunovGroups = 4;

/// Bit l set where lane l of `m` is set (movemask).
template <int W>
unsigned lane_bits(Mask<W> m);

template <>
inline unsigned lane_bits<4>(Mask<4> m) {
  return static_cast<unsigned>(_mm256_movemask_pd((__m256d)m));
}

#if defined(__AVX512F__)
template <>
inline unsigned lane_bits<8>(Mask<8> m) {
  return static_cast<unsigned>(_mm512_movepi64_mask((__m512i)m));
}
#endif

/// out[i] = std::pow(base[i], expo[i]) for every set bit i of `lanes`:
/// one phase's pow calls, for exactly the lanes that make them, back to
/// back so that independent calls overlap.
inline void pow_lanes(unsigned lanes, const double* base, const double* expo,
                      double* out) {
  for (; lanes != 0; lanes &= lanes - 1) {
    const int i = __builtin_ctz(lanes);
    out[i] = std::pow(base[i], expo[i]);
  }
}

/// std::max(x, 1e-12), i.e. x < 1e-12 ? 1e-12 : x (NaN stays NaN).
template <int W>
inline Vec<W> vfloor_p(Vec<W> x) {
  const Vec<W> lo = vbc<W>(1e-12);
  return vselect<W>(x < lo, lo, x);
}

/// Lane-wise bitwise equality (std::memcmp of one double).
template <int W>
inline Mask<W> vsame_bits(Vec<W> a, Vec<W> b) {
  return (Mask<W>)a == (Mask<W>)b;
}

/// Mask blend: lane l gets a[l] where m[l] is set, else b[l].
template <int W>
inline Mask<W> mselect(Mask<W> m, Mask<W> a, Mask<W> b) {
  return (m & a) | (~m & b);
}

/// One side's constants of the pressure function (riemann.cpp's Side);
/// the two pow exponents live in the batch's per-lane arrays.
///
/// Divides bound the vector solve (a packed divide gains only about 2x
/// per lane over a scalar one), so a lane's two branches share them: the
/// shock branch's A/(B+p) and the rarefaction branch's p/pk are one
/// divide of blended operands, and so are the shock's 0.5(p-pk)/(B+p)
/// and the rarefaction's pow/(rho a). Each lane's quotient is the one its
/// own branch computes, correctly rounded, so the bits do not change.
template <int W>
struct SideV {
  Vec<W> pk, A, B, C, rho_a;

  void init(const PrimV<W>& w, Vec<W> g, Vec<W> a, double* e_f,
            double* e_fd) {
    const Vec<W> one = vbc<W>(1.0), two = vbc<W>(2.0);
    pk = w.p;
    A = two / ((g + one) * w.rho);
    B = (g - one) / (g + one) * w.p;
    C = two * a / (g - one);
    vstoreu<W>(e_f, (g - one) / (two * g));
    vstoreu<W>(e_fd, -(g + one) / (two * g));
    rho_a = w.rho * a;
  }

  /// A/(B+p) on shock lanes, p/pk (the pow base) on the others.
  Vec<W> quotient(Vec<W> p, Mask<W> shock) const {
    return vselect<W>(shock, A, p) / vselect<W>(shock, B + p, pk);
  }

  /// f_K(p) from quotient() `q` and, on rarefaction lanes, `pf` =
  /// pow(p/pk, e_f); shock lanes are evaluated only if `any_shock`.
  Vec<W> f(Vec<W> p, Mask<W> shock, bool any_shock, Vec<W> q,
           Vec<W> pf) const {
    const Vec<W> rare = C * (pf - vbc<W>(1.0));
    return any_shock ? vselect<W>(shock, (p - pk) * vsqrt<W>(q), rare) : rare;
  }

  /// f_K(p) and f_K'(p) for the Newton step; `pfd` = pow(p/pk, e_fd).
  void eval(Vec<W> p, Mask<W> shock, bool any_shock, Vec<W> q, Vec<W> pf,
            Vec<W> pfd, Vec<W>& f_out, Vec<W>& fd_out) const {
    const Vec<W> one = vbc<W>(1.0);
    const Vec<W> d = vselect<W>(shock, vbc<W>(0.5) * (p - pk), pfd) /
                     vselect<W>(shock, B + p, rho_a);
    if (!any_shock) {
      f_out = C * (pf - one);
      fd_out = d;
      return;
    }
    const Vec<W> sqrt_term = vsqrt<W>(q);
    f_out = vselect<W>(shock, (p - pk) * sqrt_term, C * (pf - one));
    fd_out = vselect<W>(shock, sqrt_term * (one - d), d);
  }
};

/// Up to kGodunovGroups groups of W faces: loaded, solved and stored.
/// Per-lane values that pow calls read or write sit in double arrays,
/// lane g*W + l for lane l of group g.
template <int W>
struct GodunovBatch {
  static constexpr int kLanes = kGodunovGroups * W;

  /// Face of lane l of group g, as an offset in doubles into the
  /// (identically shaped) left, right and flux arrays.
  Mask<W> off[kGodunovGroups];
  PrimV<W> l[kGodunovGroups], r[kGodunovGroups];
  int iters[kLanes];

  /// Gathers group g's states; false if a lane is non-physical (the
  /// condition on which exact_riemann raises).
  bool load(int g, const double* lbase, const double* rbase) {
    auto gather = [&](const double* base) {
      PrimV<W> w;
      w.rho = vgather_at<W>(base + 0, off[g]);
      w.u = vgather_at<W>(base + 1, off[g]);
      w.v = vgather_at<W>(base + 2, off[g]);
      w.p = vgather_at<W>(base + 3, off[g]);
      w.phi = vgather_at<W>(base + 4, off[g]);
      return w;
    };
    l[g] = gather(lbase);
    r[g] = gather(rbase);
    const Vec<W> zero = vbc<W>(0.0);
    const Mask<W> ok = (l[g].rho > zero) & (r[g].rho > zero) &
                       (l[g].p > zero) & (r[g].p > zero);
    return lane_bits<W>(ok) == (1u << W) - 1;
  }

  /// exact_riemann + godunov_face_flux for the first ng groups; writes
  /// the fluxes at `flux` + off and each lane's iterations to iters.
  void solve(int ng, const GasModel& gas, double* flux) {
    const RiemannParams params;
    const Vec<W> zero = vbc<W>(0.0), half = vbc<W>(0.5), one = vbc<W>(1.0),
                 two = vbc<W>(2.0);
    Vec<W> gl[kGodunovGroups], gr[kGodunovGroups], al[kGodunovGroups],
        ar[kGodunovGroups], du[kGodunovGroups], p[kGodunovGroups];
    SideV<W> L[kGodunovGroups], R[kGodunovGroups];
    Mask<W> shortcut[kGodunovGroups], active[kGodunovGroups],
        it[kGodunovGroups];
    // Per side: quotient() (p/pk on rarefaction lanes, the pow base), the
    // exponents, and the pows of f_K and f_K'.
    alignas(64) double q_l[kLanes], q_r[kLanes], ef_l[kLanes], efd_l[kLanes],
        ef_r[kLanes], efd_r[kLanes];
    alignas(64) double pf_l[kLanes] = {}, pfd_l[kLanes] = {},
                       pf_r[kLanes] = {}, pfd_r[kLanes] = {};

    for (int g = 0; g < ng; ++g) {
      const PrimV<W>& lw = l[g];
      const PrimV<W>& rw = r[g];
      gl[g] = vgamma_of<W>(gas, lw.phi);
      // Equal phi (most faces) gives equal gamma: skip the divides.
      gr[g] = lane_bits<W>(vsame_bits<W>(lw.phi, rw.phi)) == (1u << W) - 1
                  ? gl[g]
                  : vgamma_of<W>(gas, rw.phi);
      // The identical-state shortcut and its guard
      // (identical_state_shortcut_holds; the default params pass theirs).
      const Mask<W> same = vsame_bits<W>(lw.rho, rw.rho) &
                           vsame_bits<W>(lw.u, rw.u) &
                           vsame_bits<W>(lw.v, rw.v) &
                           vsame_bits<W>(lw.p, rw.p) &
                           vsame_bits<W>(lw.phi, rw.phi);
      const Mask<W> holds =
          (lw.rho >= vbc<W>(1e-100)) & (lw.rho <= vbc<W>(1e100)) &
          (lw.p >= vbc<W>(1e-12)) & (lw.p <= vbc<W>(1e100)) &
          (vabs<W>(lw.u) <= vbc<W>(1e100)) & (gl[g] > one) &
          (gl[g] <= vbc<W>(1e10));
      shortcut[g] = same & holds;
      active[g] = ~shortcut[g];
      it[g] = Mask<W>{};

      al[g] = vsqrt<W>(gl[g] * lw.p / lw.rho);
      ar[g] = vsqrt<W>(gr[g] * rw.p / rw.rho);
      du[g] = rw.u - lw.u;
      L[g].init(lw, gl[g], al[g], ef_l + g * W, efd_l + g * W);
      R[g].init(rw, gr[g], ar[g], ef_r + g * W, efd_r + g * W);
      // PVRS initial guess, floored.
      p[g] = vfloor_p<W>(half * (lw.p + rw.p) -
                         vbc<W>(0.125) * du[g] * (lw.rho + rw.rho) *
                             (al[g] + ar[g]));
    }

    // Newton, in lock-step over the groups that still have an iterating
    // lane. A lane on the rarefaction branch (p <= pk, or NaN) needs two
    // pows per side.
    for (int k = 0; k < params.max_iter; ++k) {
      unsigned live = 0, rare_l = 0, rare_r = 0;
      Mask<W> shock_l[kGodunovGroups], shock_r[kGodunovGroups];
      for (int g = 0; g < ng; ++g) {
        if (lane_bits<W>(active[g]) == 0) continue;
        live |= 1u << g;
        shock_l[g] = p[g] > L[g].pk;
        shock_r[g] = p[g] > R[g].pk;
        vstoreu<W>(q_l + g * W, L[g].quotient(p[g], shock_l[g]));
        vstoreu<W>(q_r + g * W, R[g].quotient(p[g], shock_r[g]));
        rare_l |= lane_bits<W>(active[g] & ~shock_l[g]) << (g * W);
        rare_r |= lane_bits<W>(active[g] & ~shock_r[g]) << (g * W);
      }
      if (live == 0) break;
      pow_lanes(rare_l, q_l, ef_l, pf_l);
      pow_lanes(rare_l, q_l, efd_l, pfd_l);
      pow_lanes(rare_r, q_r, ef_r, pf_r);
      pow_lanes(rare_r, q_r, efd_r, pfd_r);

      for (int g = 0; g < ng; ++g) {
        if ((live >> g & 1u) == 0) continue;
        const int o = g * W;
        Vec<W> fl, fld, fr, frd;
        L[g].eval(p[g], shock_l[g],
                  lane_bits<W>(active[g] & shock_l[g]) != 0,
                  vloadu<W>(q_l + o), vloadu<W>(pf_l + o),
                  vloadu<W>(pfd_l + o), fl, fld);
        R[g].eval(p[g], shock_r[g],
                  lane_bits<W>(active[g] & shock_r[g]) != 0,
                  vloadu<W>(q_r + o), vloadu<W>(pf_r + o),
                  vloadu<W>(pfd_r + o), fr, frd);
        const Vec<W> delta = (fl + fr + du[g]) / (fld + frd);
        const Vec<W> pnew = vfloor_p<W>(p[g] - delta);
        const Vec<W> change = two * vabs<W>(pnew - p[g]) / (pnew + p[g]);
        p[g] = vselect<W>(active[g], pnew, p[g]);
        it[g] -= active[g];  // active lanes are -1
        active[g] &= ~(change < vbc<W>(params.tol));
      }
    }

    // Final f_K(p) of both sides; the rarefaction branch's
    // (p/pk)^((g-1)/2g) is also the sampler's a*/a_K (pf_* now hold it).
    unsigned rare_l = 0, rare_r = 0;
    Mask<W> shock_l[kGodunovGroups], shock_r[kGodunovGroups];
    for (int g = 0; g < ng; ++g) {
      shock_l[g] = p[g] > L[g].pk;
      shock_r[g] = p[g] > R[g].pk;
      vstoreu<W>(q_l + g * W, L[g].quotient(p[g], shock_l[g]));
      vstoreu<W>(q_r + g * W, R[g].quotient(p[g], shock_r[g]));
      rare_l |= lane_bits<W>(~shortcut[g] & ~shock_l[g]) << (g * W);
      rare_r |= lane_bits<W>(~shortcut[g] & ~shock_r[g]) << (g * W);
    }
    pow_lanes(rare_l, q_l, ef_l, pf_l);
    pow_lanes(rare_r, q_r, ef_r, pf_r);

    // Sample at x/t = 0 from the side the contact puts it on (ustar >= 0:
    // left). Side-symmetric expressions run once on the chosen side's
    // values; the ones whose left and right forms differ run both and
    // blend. A star or fan state is computed only if a lane samples it,
    // and its pows read their arguments from ratio_a/gs_a/fac_a.
    alignas(64) double ratio_a[kLanes], gs_a[kLanes], fac_a[kLanes];
    alignas(64) double p_tail[kLanes] = {}, p_rho[kLanes] = {},
                       p_p[kLanes] = {};
    Vec<W> ustar[kGodunovGroups], as[kGodunovGroups];
    PrimV<W> s[kGodunovGroups];
    Mask<W> left_side[kGodunovGroups], keep[kGodunovGroups],
        shock[kGodunovGroups], tail[kGodunovGroups];
    unsigned tail_bits = 0, fan_bits = 0, star_shock_bits = 0;
    for (int g = 0; g < ng; ++g) {
      const int o = g * W;
      const Mask<W> live = ~shortcut[g];
      const Vec<W> fl = L[g].f(p[g], shock_l[g],
                               lane_bits<W>(live & shock_l[g]) != 0,
                               vloadu<W>(q_l + o), vloadu<W>(pf_l + o));
      const Vec<W> fr = R[g].f(p[g], shock_r[g],
                               lane_bits<W>(live & shock_r[g]) != 0,
                               vloadu<W>(q_r + o), vloadu<W>(pf_r + o));
      ustar[g] = half * (l[g].u + r[g].u) + half * (fr - fl);

      const Mask<W> sl = ustar[g] >= zero;
      left_side[g] = sl;
      s[g].rho = vselect<W>(sl, l[g].rho, r[g].rho);
      s[g].u = vselect<W>(sl, l[g].u, r[g].u);
      s[g].v = vselect<W>(sl, l[g].v, r[g].v);
      s[g].p = vselect<W>(sl, l[g].p, r[g].p);
      s[g].phi = vselect<W>(sl, l[g].phi, r[g].phi);
      const Vec<W> gsv = vselect<W>(sl, gl[g], gr[g]);
      as[g] = vselect<W>(sl, al[g], ar[g]);
      const Vec<W> asv = as[g], us = s[g].u;

      shock[g] = p[g] > s[g].p;
      const Vec<W> ratio = p[g] / s[g].p;
      // keep: the wave (shock, or rarefaction head) has not reached
      // x/t = 0, so the sample is the side's own state.
      Mask<W> shock_keep = Mask<W>{};
      if (lane_bits<W>(live & shock[g]) != 0) {
        // (g+1)/2g is -e_fd and (g-1)/2g is e_f, bit for bit (negation
        // is exact; a NaN's sign only reaches the comparisons).
        const Vec<W> e_f = vselect<W>(sl, vloadu<W>(ef_l + o),
                                      vloadu<W>(ef_r + o));
        const Vec<W> e_fd = vselect<W>(sl, vloadu<W>(efd_l + o),
                                       vloadu<W>(efd_r + o));
        const Vec<W> q = vsqrt<W>(-e_fd * ratio + e_f);
        shock_keep =
            mselect<W>(sl, us - asv * q >= zero, us + asv * q <= zero);
      }
      const Mask<W> head_keep =
          mselect<W>(sl, us - asv >= zero, us + asv <= zero);
      const Vec<W> astar =
          asv * vselect<W>(sl, vloadu<W>(pf_l + o), vloadu<W>(pf_r + o));
      tail[g] = mselect<W>(sl, ustar[g] - astar <= zero,
                           ustar[g] + astar >= zero);
      keep[g] = mselect<W>(shock[g], shock_keep, head_keep);

      const Mask<W> moved = live & ~keep[g];
      star_shock_bits |= lane_bits<W>(moved & shock[g]) << o;
      tail_bits |= lane_bits<W>(moved & ~shock[g] & tail[g]) << o;
      const unsigned fan = lane_bits<W>(moved & ~shock[g] & ~tail[g]);
      fan_bits |= fan << o;
      if (fan != 0) {
        const Vec<W> f_common = (gsv - one) / ((gsv + one) * asv) * us;
        vstoreu<W>(fac_a + o, vselect<W>(sl, two / (gsv + one) + f_common,
                                         two / (gsv + one) - f_common));
      }
      vstoreu<W>(ratio_a + o, ratio);
      vstoreu<W>(gs_a + o, gsv);
    }
    for (unsigned m = tail_bits; m != 0; m &= m - 1) {
      const int i = __builtin_ctz(m);
      p_tail[i] = std::pow(ratio_a[i], 1.0 / gs_a[i]);
    }
    for (unsigned m = fan_bits; m != 0; m &= m - 1) {
      const int i = __builtin_ctz(m);
      p_rho[i] = std::pow(fac_a[i], 2.0 / (gs_a[i] - 1.0));
      p_p[i] = std::pow(fac_a[i], 2.0 * gs_a[i] / (gs_a[i] - 1.0));
    }

    for (int g = 0; g < ng; ++g) {
      const int o = g * W;
      const Vec<W> gsv = vloadu<W>(gs_a + o);
      const PrimV<W>& sw = s[g];
      // The side's own state, then the star states (shock, rarefaction
      // tail) and the fan's.
      PrimV<W> w = sw;
      const Mask<W> star = shock[g] | tail[g];
      w.u = vselect<W>(keep[g], sw.u, ustar[g]);
      w.p = vselect<W>(keep[g], sw.p, p[g]);
      if ((star_shock_bits >> o & ((1u << W) - 1)) != 0) {
        const Vec<W> gm = (gsv - one) / (gsv + one);
        const Vec<W> ratio = vloadu<W>(ratio_a + o);
        const Vec<W> rho_shock = sw.rho * (ratio + gm) / (gm * ratio + one);
        w.rho = vselect<W>(~keep[g] & shock[g], rho_shock, w.rho);
      }
      if ((tail_bits >> o & ((1u << W) - 1)) != 0)
        w.rho = vselect<W>(~keep[g] & ~shock[g] & tail[g],
                           sw.rho * vloadu<W>(p_tail + o), w.rho);
      if ((fan_bits >> o & ((1u << W) - 1)) != 0) {
        const Mask<W> fan = ~keep[g] & ~star;
        const Vec<W> asv = as[g];
        const Vec<W> c = (gsv - one) / two * sw.u;
        const Vec<W> u_fan =
            vselect<W>(left_side[g], two / (gsv + one) * (asv + c),
                       two / (gsv + one) * (-asv + c));
        w.rho = vselect<W>(fan, sw.rho * vloadu<W>(p_rho + o), w.rho);
        w.u = vselect<W>(fan, u_fan, w.u);
        w.p = vselect<W>(fan, sw.p * vloadu<W>(p_p + o), w.p);
      }
      Vec<W> gamma = gsv;
      // Identical states: the left state with u + 0.0.
      const Mask<W> sc = shortcut[g];
      w.rho = vselect<W>(sc, l[g].rho, w.rho);
      w.u = vselect<W>(sc, l[g].u + zero, w.u);
      w.v = vselect<W>(sc, l[g].v, w.v);
      w.p = vselect<W>(sc, l[g].p, w.p);
      w.phi = vselect<W>(sc, l[g].phi, w.phi);
      gamma = vselect<W>(sc, gl[g], gamma);
      it[g] = (sc & 1) | (~sc & it[g]);

      // godunov_face_flux; w.phi is one side's phi, so gamma_of(w.phi)
      // is that side's gamma.
      const Vec<W> E =
          w.p / (gamma - one) + half * w.rho * (w.u * w.u + w.v * w.v);
      const Vec<W> mass = w.rho * w.u;
      const Vec<W> mom_n = w.rho * w.u * w.u + w.p;
      const Vec<W> mom_t = w.rho * w.u * w.v;
      const Vec<W> energy = w.u * (E + w.p);
      const Vec<W> phi_mass = w.rho * w.u * w.phi;
      for (int k = 0; k < W; ++k) {
        double* fp = flux + off[g][k];
        fp[0] = mass[k];
        fp[1] = mom_n[k];
        fp[2] = mom_t[k];
        fp[3] = energy[k];
        fp[4] = phi_mass[k];
        iters[g * W + k] = static_cast<int>(it[g][k]);
      }
    }
  }
};

/// Godunov over outer indices [o_begin, o_end). The range's faces are
/// taken in scalar sweep order, flattened across lines (groups span line
/// ends), and solved kGodunovGroups groups at a time. A group holding a
/// non-physical face, and the last n mod W faces, go through
/// godunov_one_face.
template <int W>
KernelCounts godunov_range_vec(const Array2& left, const Array2& right,
                               Dir dir, const GasModel& gas, Array2& flux,
                               int o_begin, int o_end) {
  const int nx = left.nx();
  const bool x = dir == Dir::x;
  const int inner = x ? nx : left.ny();
  const double* lbase = left.raw().data();
  const double* rbase = right.raw().data();
  double* fbase = flux.raw().data();
  hwc::NullProbe probe;
  KernelCounts counts;

  // Face cursor in sweep order: face f of line o.
  int f = 0, o = o_begin;
  auto fi = [&] { return x ? f : o; };
  auto fj = [&] { return x ? o : f; };
  auto advance = [&] {
    if (++f == inner) {
      f = 0;
      ++o;
    }
  };
  std::int64_t remaining = static_cast<std::int64_t>(o_end - o_begin) * inner;

  GodunovBatch<W> b;
  while (remaining >= W) {
    int ng = 0;
    bool nonphysical = false;
    for (; ng < kGodunovGroups && remaining >= W; ++ng) {
      for (int k = 0; k < W; ++k) {
        b.off[ng][k] =
            (static_cast<std::ptrdiff_t>(fj()) * nx + fi()) * kNcomp;
        advance();
      }
      remaining -= W;
      if (!b.load(ng, lbase, rbase)) {
        nonphysical = true;
        break;
      }
    }
    if (ng > 0) b.solve(ng, gas, fbase);
    for (int g = 0; g < ng; ++g) {
      for (int k = 0; k < W; ++k)
        counts.riemann_iterations +=
            static_cast<std::uint64_t>(b.iters[g * W + k]);
      counts.faces += W;
    }
    if (nonphysical) {
      // exact_riemann raises on the first non-physical face.
      for (int k = 0; k < W; ++k) {
        const std::ptrdiff_t at = b.off[ng][k] / kNcomp;
        counts.riemann_iterations += static_cast<std::uint64_t>(
            godunov_one_face(left, right, gas, flux, probe,
                             static_cast<int>(at % nx),
                             static_cast<int>(at / nx)));
        ++counts.faces;
      }
    }
  }
  for (; remaining > 0; --remaining) {
    counts.riemann_iterations += static_cast<std::uint64_t>(
        godunov_one_face(left, right, gas, flux, probe, fi(), fj()));
    ++counts.faces;
    advance();
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
