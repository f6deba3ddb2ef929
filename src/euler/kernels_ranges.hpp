#pragma once
// Scalar bodies of the sweep kernels over outer-index ranges, shared
// between kernels.cpp (the dispatch layer and the scalar ISA level) and
// the per-ISA SIMD translation units (which run these scalar bodies for
// the cells and faces that do not fill a vector group). The expressions
// here are the bit-exactness reference: the vector kernels must reproduce
// them lane for lane. Only the scalar level traces: kernels.cpp sends a
// call with a counting probe here, never to a SIMD unit, so the SIMD
// units instantiate these bodies for NullProbe alone.
//
// States converts each sweep line once: the cells the line's faces read
// go through cons_to_prim into a strip of face-normal primitives on the
// calling thread's stack, and every face is then reconstructed from four
// strip entries. The per-face textbook form (convert all four stencil
// cells of every face) survives only as the frozen reference in
// tests/euler/test_states_reference.cpp.
//
// The SIMD translation units include this header too, so every inline
// function here also compiles with their -m flags. One that is not
// inlined becomes a weak symbol the linker may take from either object,
// so an AVX-512 copy could serve every caller. Nothing here may emit one
// (scripts/check_tier1.sh checks the library): no std::vector, and the
// per-face helpers the vector kernels call are forced inline.

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "euler/kernels.hpp"

namespace euler::detail {

inline double minmod(double a, double b) {
  if (a * b <= 0.0) return 0.0;
  return std::abs(a) < std::abs(b) ? a : b;
}

/// Byte stride between consecutive components of one face of an Array2
/// (contiguous in the component-innermost layout).
inline std::ptrdiff_t comp_stride_bytes(const Array2& a) {
  return a.comp_stride() * static_cast<std::ptrdiff_t>(sizeof(double));
}

/// Span of the sweep's OUTER loop in direction `dir`: rows (fj) for
/// Dir::x, columns (fi) for Dir::y — the loop whose iterations are
/// independent and can be split across lanes.
inline int outer_extent(int nx, int ny, Dir dir) {
  return dir == Dir::x ? ny : nx;
}

// --- States (MUSCL reconstruction) -------------------------------------------

/// Strip elements kept on the stack (32 KiB: 816 faces); longer lines are
/// converted and reconstructed in chunks of kStripFaces faces. The strip
/// is not heap memory because the cache simulator maps sets from virtual
/// addresses: an allocation here would move every array allocated after
/// it, and traced counters of later sweeps with it.
inline constexpr std::size_t kStackStripDoubles = 4096;
inline constexpr int kStripFaces =
    static_cast<int>(kStackStripDoubles / kNcomp) - 3;

/// One sweep line of the States kernel: outer index `o`, a row for Dir::x
/// or a column for Dir::y. Face f of the line sits between cells f-1 and
/// f (counted from the line's first interior cell) and its MUSCL stencil
/// reads cells f-2 .. f+1, so the line needs cells -2 .. faces; strip
/// cell k holds cell k-2 and face f reads strip cells f .. f+3. The strip
/// keeps the face arrays' layout (components innermost), so component c
/// of face f's stencil cell m sits at strip[(f + m) * kNcomp + c] and a
/// run of faces is one flat elementwise loop: left and right element t
/// read strip elements t, t+5, t+10, t+15.
struct StatesLine {
  Dir dir;
  const double* cell0;        ///< &U(cell -2, component 0)
  std::ptrdiff_t cell_step;   ///< doubles between neighbouring cells
  std::ptrdiff_t comp_step;   ///< doubles between components of a cell
  double* left0;              ///< face 0's left state (5 contiguous)
  double* right0;             ///< face 0's right state
  std::ptrdiff_t face_step;   ///< doubles between neighbouring faces
  double* strip;              ///< ncells x kNcomp primitives
  int ncells;                 ///< faces + 3
};

/// Converts strip cell k to face-normal primitives (rho, u_n, u_t, p, phi).
inline void convert_cell(const StatesLine& line, const GasModel& gas, int k) {
  const double* u = line.cell0 + k * line.cell_step;
  double q[kNcomp];
  for (int c = 0; c < kNcomp; ++c) q[c] = u[c * line.comp_step];
  const Prim p = cons_to_prim(q, gas);
  double* s = line.strip + k * kNcomp;
  s[0] = p.rho;
  s[1] = line.dir == Dir::x ? p.u : p.v;
  s[2] = line.dir == Dir::x ? p.v : p.u;
  s[3] = p.p;
  s[4] = p.phi;
}

/// MUSCL reconstruction of face f from the converted strip.
inline void states_face(const StatesLine& line, int f) {
  double* lp = line.left0 + f * line.face_step;
  double* rp = line.right0 + f * line.face_step;
  const double* w = line.strip + f * kNcomp;
  for (int c = 0; c < kNcomp; ++c) {
    const double w0 = w[c], w1 = w[c + kNcomp], w2 = w[c + 2 * kNcomp],
                 w3 = w[c + 3 * kNcomp];
    const double sl = minmod(w1 - w0, w2 - w1);
    const double sr = minmod(w2 - w1, w3 - w2);
    lp[c] = w1 + 0.5 * sl;
    rp[c] = w2 - 0.5 * sr;
  }
}

/// Face f's probe sequence, as the per-face textbook kernel made it: one
/// 4-element load run per conserved component of the stencil (unit stride
/// for Dir::x, row stride for Dir::y), 18 flops per cell conversion, the
/// two face store runs and the reconstruction flops.
template <class Probe>
CCAPERF_FORCE_INLINE void replay_states_face(const StatesLine& line, int f,
                                             Probe& probe) {
  const double* u = line.cell0 + f * line.cell_step;
  const auto elem = static_cast<std::ptrdiff_t>(sizeof(double));
  for (int c = 0; c < kNcomp; ++c)
    probe.load_run(u + c * line.comp_step, line.cell_step * elem, 4,
                   sizeof(double));
  for (int k = 0; k < 4; ++k) probe.flops(18);  // conversion cost per cell
  probe.store_run(line.left0 + f * line.face_step, Array2::comp_stride() * elem,
                  kNcomp, sizeof(double));
  probe.store_run(line.right0 + f * line.face_step,
                  Array2::comp_stride() * elem, kNcomp, sizeof(double));
  probe.flops(8 * kNcomp);
}

/// The scalar ISA level: no vector groups, every cell and face is a tail.
struct ScalarStatesGroups {
  static constexpr int kWidth = 1;
};

/// States over outer indices [o_begin, o_end); the full-span call is the
/// serial kernel, a sub-span is one lane's slice. Each line, or each
/// kStripFaces-face chunk of a longer one, converts its cells into the
/// strip, then reconstructs its faces from it. Every face depends only on
/// its own four cells, so chunking changes no bit, and faces keep their
/// order, so traced counters do not move either. `Groups` supplies the
/// ISA's vector bodies for full groups of Groups::kWidth cells (`convert`)
/// and faces (`faces`); the rest run the scalar bodies above. Vector
/// groups make no probe calls, so only the scalar level may trace. Shape
/// checks are the caller's job.
template <class Groups, class Probe>
KernelCounts states_range_lines(const amr::PatchData<double>& U,
                                const amr::Box& interior, Dir dir,
                                const GasModel& gas, Array2& left,
                                Array2& right, Probe& probe, int o_begin,
                                int o_end) {
  constexpr int W = Groups::kWidth;
  KernelCounts counts;
  const bool x = dir == Dir::x;
  const int faces = x ? left.nx() : left.ny();
  double strip[kStackStripDoubles];

  StatesLine line;
  line.dir = dir;
  line.cell_step = x ? 1 : U.row_stride();
  line.comp_step = static_cast<std::ptrdiff_t>(U.pts_per_comp());
  line.face_step = (x ? 1 : static_cast<std::ptrdiff_t>(left.nx())) * kNcomp;
  line.strip = strip;
  for (int o = o_begin; o < o_end; ++o) {
    for (int f0 = 0; f0 < faces; f0 += kStripFaces) {
      const int nf = std::min(kStripFaces, faces - f0);
      // Face f0 of the line, and its stencil's first cell two cells before.
      const int fi = x ? f0 : o, fj = x ? o : f0;
      line.cell0 = &U(interior.lo().i + fi - (x ? 2 : 0),
                      interior.lo().j + fj - (x ? 0 : 2), 0);
      line.left0 = &left(fi, fj, 0);
      line.right0 = &right(fi, fj, 0);
      line.ncells = nf + 3;
      int k = 0;
      if constexpr (W > 1)
        for (; k + W <= line.ncells; k += W) Groups::convert(line, gas, k);
      for (; k < line.ncells; ++k) convert_cell(line, gas, k);

      int f = 0;
      if constexpr (W > 1) {
        static_assert(!Probe::kCounting, "traced sweeps run the scalar level");
        for (; f + W <= nf; f += W) Groups::faces(line, f);
      }
      for (; f < nf; ++f) {
        states_face(line, f);
        replay_states_face(line, f, probe);
      }
    }
    counts.faces += static_cast<std::uint64_t>(faces);
  }
  return counts;
}

/// Reads the 5 primitive face components, probed as one contiguous run.
template <class Probe>
CCAPERF_FORCE_INLINE Prim load_face_state(const Array2& a, int fi, int fj,
                                          Probe& probe) {
  probe.load_run(a.addr(fi, fj, 0), comp_stride_bytes(a), kNcomp, sizeof(double));
  Prim w;
  w.rho = a(fi, fj, 0);
  w.u = a(fi, fj, 1);  // face-normal frame
  w.v = a(fi, fj, 2);
  w.p = a(fi, fj, 3);
  w.phi = a(fi, fj, 4);
  return w;
}

template <class Probe>
CCAPERF_FORCE_INLINE void store_face_flux(Array2& flux, int fi, int fj,
                                          const FaceFlux& f, Probe& probe) {
  flux(fi, fj, 0) = f.mass;
  flux(fi, fj, 1) = f.mom_n;
  flux(fi, fj, 2) = f.mom_t;
  flux(fi, fj, 3) = f.energy;
  flux(fi, fj, 4) = f.phi_mass;
  probe.store_run(flux.addr(fi, fj, 0), comp_stride_bytes(flux), kNcomp,
                  sizeof(double));
}

/// Shared sweep driver: walks faces of the outer span [o_begin, o_end) in
/// the direction-appropriate loop order and applies `face_op(fi, fj)`.
template <class FaceOp>
void sweep_faces(const Array2& left, Dir dir, int o_begin, int o_end,
                 FaceOp&& face_op) {
  if (dir == Dir::x) {
    for (int fj = o_begin; fj < o_end; ++fj)
      for (int fi = 0; fi < left.nx(); ++fi) face_op(fi, fj);
  } else {
    for (int fi = o_begin; fi < o_end; ++fi)
      for (int fj = 0; fj < left.ny(); ++fj) face_op(fi, fj);
  }
}

/// EFM flux of one face — scalar reference and vector-remainder path.
template <class Probe>
CCAPERF_FORCE_INLINE void efm_one_face(const Array2& left, const Array2& right,
                                       Dir, const GasModel& gas, Array2& flux,
                                       Probe& probe, int fi, int fj) {
  const Prim l = load_face_state(left, fi, fj, probe);
  const Prim r = load_face_state(right, fi, fj, probe);
  const FaceFlux f = efm_face_flux(l, r, gas);
  probe.flops(kEfmFlopsPerFace);  // two half-fluxes: erf + exp + moments
  store_face_flux(flux, fi, fj, f, probe);
}

template <class Probe>
KernelCounts efm_range_scalar(const Array2& left, const Array2& right, Dir dir,
                              const GasModel& gas, Array2& flux, Probe& probe,
                              int o_begin, int o_end) {
  KernelCounts counts;
  sweep_faces(left, dir, o_begin, o_end, [&](int fi, int fj) {
    efm_one_face(left, right, dir, gas, flux, probe, fi, fj);
    ++counts.faces;
  });
  return counts;
}

/// FLOPs a Godunov face charges: sampling plus the Newton iterations.
inline std::uint64_t godunov_face_flops(int iterations) {
  return kGodunovFlopsPerFace +
         kGodunovFlopsPerIteration * static_cast<std::uint64_t>(iterations);
}

/// Godunov flux of one face through exact_riemann — the scalar reference,
/// and the vector kernels' path for group tails and for groups that hold
/// a non-physical face (exact_riemann raises the error). Returns the
/// Newton iterations.
template <class Probe>
CCAPERF_FORCE_INLINE int godunov_one_face(const Array2& left,
                                          const Array2& right,
                                          const GasModel& gas, Array2& flux,
                                          Probe& probe, int fi, int fj) {
  const Prim l = load_face_state(left, fi, fj, probe);
  const Prim r = load_face_state(right, fi, fj, probe);
  const RiemannResult rr = exact_riemann(l, r, gas);
  probe.flops(godunov_face_flops(rr.iterations));
  store_face_flux(flux, fi, fj, godunov_face_flux(rr.sampled, gas), probe);
  return rr.iterations;
}

template <class Probe>
KernelCounts godunov_range_scalar(const Array2& left, const Array2& right,
                                  Dir dir, const GasModel& gas, Array2& flux,
                                  Probe& probe, int o_begin, int o_end) {
  KernelCounts counts;
  sweep_faces(left, dir, o_begin, o_end, [&](int fi, int fj) {
    counts.riemann_iterations += static_cast<std::uint64_t>(
        godunov_one_face(left, right, gas, flux, probe, fi, fj));
    ++counts.faces;
  });
  return counts;
}

}  // namespace euler::detail
