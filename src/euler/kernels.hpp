#pragma once
// Patch sweep kernels: the computational bodies of the States, EFMFlux and
// GodunovFlux components.
//
// Each kernel operates on one patch in one direction:
//  * Dir::x ("sequential mode"): the inner loop walks `i`, which is unit
//    stride in the row-major patch layout;
//  * Dir::y ("strided mode"): the inner loop walks `j`, striding by the
//    padded row length on every step.
// These are the paper's two modes of States/EFMFlux/GodunovFlux whose
// cache behaviour diverges once arrays overflow the cache (Figs. 4-5).
//
// Kernels are templated on an hwc probe: hwc::NullProbe compiles to the
// plain kernel (used for wall-clock measurement); hwc::CacheProbe replays
// every load/store through the cache simulator and tallies FLOPs (used for
// deterministic hardware metrics). Explicit instantiations live in
// kernels.cpp.
//
// States, EFM and Godunov sweeps (and the RK2 updates below) dispatch at
// runtime to AVX2/AVX-512 vector bodies when the host supports them — see
// simd.hpp for the CCAPERF_SIMD knob. Every ISA level produces
// bit-identical faces and fluxes. A cache-traced sweep always runs the
// scalar level, so its counters do not depend on the active level.
//
// Godunov's reference is exact_riemann (riemann.hpp): faces whose two
// states are bitwise identical return without iterating, and the
// iteration computes each side's constants once — the same expressions,
// so the fluxes, iteration counts and traced counters are the bits the
// plain solve produces. The vector levels run that solve for W faces at
// once, Newton in lock-step under per-lane masks, with the scalar libm
// pow for every lane that calls it (kernels_simd_impl.hpp).

#include <cstdint>
#include <vector>

#include "amr/patch_data.hpp"
#include "euler/efm.hpp"
#include "euler/riemann.hpp"
#include "euler/state.hpp"
#include "hwc/probe.hpp"

namespace ccaperf {
class ThreadPool;
}

namespace euler {

enum class Dir { x, y };

/// Face-centered (or cell-centered) work array: row-major in (j, i) like
/// PatchData (so the sequential/strided sweep distinction carries over),
/// but with the component axis innermost — one face's 5-component state is
/// contiguous, so kernels load/store it as a single short cache-line run
/// instead of 5 plane-strided touches (the traced fast path's store side).
class Array2 {
 public:
  Array2() = default;
  Array2(int nx, int ny, int ncomp)
      : nx_(nx), ny_(ny), ncomp_(ncomp),
        data_(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                  static_cast<std::size_t>(ncomp),
              0.0) {}

  /// Gives the array a new shape without clearing it: elements that were
  /// already allocated keep their old values, so callers must write every
  /// element before reading (the sweep kernels do). Capacity only grows,
  /// which lets per-thread scratch arrays stop allocating once they have
  /// seen the largest patch.
  void reshape(int nx, int ny, int ncomp) {
    nx_ = nx;
    ny_ = ny;
    ncomp_ = ncomp;
    data_.resize(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny) *
                 static_cast<std::size_t>(ncomp));
  }

  int nx() const { return nx_; }
  int ny() const { return ny_; }
  int ncomp() const { return ncomp_; }
  std::size_t size() const { return data_.size(); }

  double& operator()(int i, int j, int c) { return data_[index(i, j, c)]; }
  const double& operator()(int i, int j, int c) const { return data_[index(i, j, c)]; }
  const double* addr(int i, int j, int c) const { return &data_[index(i, j, c)]; }

  std::vector<double>& raw() { return data_; }
  const std::vector<double>& raw() const { return data_; }

  /// Elements between consecutive components of one face: 1 (contiguous).
  static constexpr std::ptrdiff_t comp_stride() { return 1; }

 private:
  std::size_t index(int i, int j, int c) const {
    return (static_cast<std::size_t>(j) * static_cast<std::size_t>(nx_) +
            static_cast<std::size_t>(i)) *
               static_cast<std::size_t>(ncomp_) +
           static_cast<std::size_t>(c);
  }
  int nx_ = 0, ny_ = 0, ncomp_ = 0;
  std::vector<double> data_;
};

/// Face-array dimensions for sweeps over `interior` in direction `dir`:
/// (W+1) x H faces for x, W x (H+1) for y.
inline void face_dims(const amr::Box& interior, Dir dir, int& nx, int& ny) {
  nx = interior.width() + (dir == Dir::x ? 1 : 0);
  ny = interior.height() + (dir == Dir::y ? 1 : 0);
}

/// Kernel work summary (for performance-parameter extraction by proxies).
struct KernelCounts {
  std::uint64_t faces = 0;
  std::uint64_t riemann_iterations = 0;  ///< Godunov only

  KernelCounts& operator+=(const KernelCounts& o) {
    faces += o.faces;
    riemann_iterations += o.riemann_iterations;
    return *this;
  }
};

/// MUSCL (minmod-limited) reconstruction of left/right primitive interface
/// states. `U` must have valid ghosts (>= 2) around `interior`. Outputs
/// primitive components (rho, u_n, u_t, p, phi) per face into left/right
/// (face-normal frame: u_n is the `dir` velocity).
template <class Probe>
KernelCounts compute_states(const amr::PatchData<double>& U,
                            const amr::Box& interior, Dir dir,
                            const GasModel& gas, Array2& left, Array2& right,
                            Probe& probe);

/// EFM flux for every face from reconstructed states. Output components
/// are conserved-variable fluxes in the face-normal frame
/// (mass, mom_n, mom_t, energy, phi).
template <class Probe>
KernelCounts efm_flux_sweep(const Array2& left, const Array2& right, Dir dir,
                            const GasModel& gas, Array2& flux, Probe& probe);

/// Godunov flux (exact Riemann solve per face), same in/out convention.
template <class Probe>
KernelCounts godunov_flux_sweep(const Array2& left, const Array2& right, Dir dir,
                                const GasModel& gas, Array2& flux, Probe& probe);

/// Accumulates -div(F) into `dudt` over `interior`. `fx`/`fy` are
/// face-normal-frame fluxes from the x/y sweeps; component mapping back to
/// (rho, mx, my, E, rphi) happens here.
void flux_divergence(const Array2& fx, const Array2& fy, const amr::Box& interior,
                     double dx, double dy, amr::PatchData<double>& dudt);

/// Max |u|+c over the interior (CFL).
double max_wave_speed(const amr::PatchData<double>& U, const amr::Box& interior,
                      const GasModel& gas);

/// Total conserved quantities over the interior (conservation tests).
void total_conserved(const amr::PatchData<double>& U, const amr::Box& interior,
                     double totals[kNcomp]);

// --- RK2 update kernels (DESIGN.md §11) --------------------------------------
//
// The elementwise integrator updates, factored out of RK2Component so they
// ride the same runtime ISA dispatch (simd.hpp) as the sweep kernels.
// Every ISA level is bit-identical to the scalar expressions:
//   rk2_axpy:         y[i] += a * x[i]
//   rk2_heun_average: u[i] = 0.5 * (u_old[i] + u[i] + dt * dudt[i])

void rk2_axpy(double* y, const double* x, double a, std::size_t n);

void rk2_heun_average(double* u, const double* u_old, const double* dudt,
                      double dt, std::size_t n);

// --- thread-parallel sweeps (DESIGN.md §9) -----------------------------------
//
// The `_mt` wrappers split the sweep's OUTER loop (rows for Dir::x,
// columns for Dir::y) over the pool's lanes. Every face is written exactly
// once and the per-face math is untouched, so the output arrays are
// bit-identical to the serial kernels for any thread count; the integer
// KernelCounts are folded per lane and summed (associative — also exact).
// With a one-lane pool they degenerate to the serial kernel on the calling
// thread; inside an enclosing parallel region the calling lane shares the
// rows with lanes that have no item left (ThreadPool's nested slots).
// Wall-clock measurement configurations only: the probe is hwc::NullProbe.

KernelCounts compute_states_mt(ccaperf::ThreadPool& pool,
                               const amr::PatchData<double>& U,
                               const amr::Box& interior, Dir dir,
                               const GasModel& gas, Array2& left, Array2& right);

KernelCounts efm_flux_sweep_mt(ccaperf::ThreadPool& pool, const Array2& left,
                               const Array2& right, Dir dir, const GasModel& gas,
                               Array2& flux);

KernelCounts godunov_flux_sweep_mt(ccaperf::ThreadPool& pool, const Array2& left,
                                   const Array2& right, Dir dir,
                                   const GasModel& gas, Array2& flux);

void flux_divergence_mt(ccaperf::ThreadPool& pool, const Array2& fx,
                        const Array2& fy, const amr::Box& interior, double dx,
                        double dy, amr::PatchData<double>& dudt);

}  // namespace euler
