#include "euler/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "euler/kernels_isa.hpp"
#include "euler/kernels_ranges.hpp"
#include "euler/simd.hpp"
#include "hwc/cache_sim.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace euler {

namespace {

using detail::outer_extent;

/// Range-level dispatch: every public entry point (serial and _mt)
/// funnels through here, so the active ISA level applies uniformly to raw
/// calls. A cache-traced call (Probe::kCounting) always runs the scalar
/// level: the SIMD units take no probe, so traced counters and faces are
/// the scalar kernel's at every ISA level.
template <class Probe>
KernelCounts states_range(const amr::PatchData<double>& U,
                          const amr::Box& interior, Dir dir,
                          const GasModel& gas, Array2& left, Array2& right,
                          Probe& probe, int o_begin, int o_end) {
  if constexpr (!Probe::kCounting) {
    switch (simd::active()) {
#if defined(CCAPERF_SIMD_AVX512)
      case simd::Isa::avx512:
        return detail::states_range_avx512(U, interior, dir, gas, left, right,
                                           o_begin, o_end);
#endif
#if defined(CCAPERF_SIMD_AVX2)
      case simd::Isa::avx2:
        return detail::states_range_avx2(U, interior, dir, gas, left, right,
                                         o_begin, o_end);
#endif
      default:
        break;
    }
  }
  return detail::states_range_lines<detail::ScalarStatesGroups>(
      U, interior, dir, gas, left, right, probe, o_begin, o_end);
}

template <class Probe>
KernelCounts efm_range(const Array2& left, const Array2& right, Dir dir,
                       const GasModel& gas, Array2& flux, Probe& probe,
                       int o_begin, int o_end) {
  if constexpr (!Probe::kCounting) {
    switch (simd::active()) {
#if defined(CCAPERF_SIMD_AVX512)
      case simd::Isa::avx512:
        return detail::efm_range_avx512(left, right, dir, gas, flux, o_begin,
                                        o_end);
#endif
#if defined(CCAPERF_SIMD_AVX2)
      case simd::Isa::avx2:
        return detail::efm_range_avx2(left, right, dir, gas, flux, o_begin,
                                      o_end);
#endif
      default:
        break;
    }
  }
  return detail::efm_range_scalar(left, right, dir, gas, flux, probe, o_begin,
                                  o_end);
}

// The vector levels run Godunov's Newton iteration in lock-step under
// per-lane masks and call libm's pow per lane, so every face gets the
// bits of the scalar exact_riemann (kernels_simd_impl.hpp).
template <class Probe>
KernelCounts godunov_range(const Array2& left, const Array2& right, Dir dir,
                           const GasModel& gas, Array2& flux, Probe& probe,
                           int o_begin, int o_end) {
  if constexpr (!Probe::kCounting) {
    switch (simd::active()) {
#if defined(CCAPERF_SIMD_AVX512)
      case simd::Isa::avx512:
        return detail::godunov_range_avx512(left, right, dir, gas, flux,
                                            o_begin, o_end);
#endif
#if defined(CCAPERF_SIMD_AVX2)
      case simd::Isa::avx2:
        return detail::godunov_range_avx2(left, right, dir, gas, flux, o_begin,
                                          o_end);
#endif
      default:
        break;
    }
  }
  return detail::godunov_range_scalar(left, right, dir, gas, flux, probe,
                                      o_begin, o_end);
}

void check_states_shapes(const amr::PatchData<double>& U,
                         const amr::Box& interior, Dir dir, const Array2& left,
                         const Array2& right) {
  CCAPERF_REQUIRE(U.nghost() >= 2, "compute_states: need >= 2 ghost cells");
  int nx = 0, ny = 0;
  face_dims(interior, dir, nx, ny);
  CCAPERF_REQUIRE(left.nx() == nx && left.ny() == ny && left.ncomp() == kNcomp &&
                      right.nx() == nx && right.ny() == ny &&
                      right.ncomp() == kNcomp,
                  "compute_states: face array shape mismatch");
}

void check_flux_shapes(const Array2& left, const Array2& flux,
                       const char* what) {
  CCAPERF_REQUIRE(flux.nx() == left.nx() && flux.ny() == left.ny() &&
                      flux.ncomp() == kNcomp,
                  std::string(what) + ": flux array shape mismatch");
}

}  // namespace

template <class Probe>
KernelCounts compute_states(const amr::PatchData<double>& U,
                            const amr::Box& interior, Dir dir,
                            const GasModel& gas, Array2& left, Array2& right,
                            Probe& probe) {
  check_states_shapes(U, interior, dir, left, right);
  return states_range(U, interior, dir, gas, left, right, probe, 0,
                      outer_extent(left.nx(), left.ny(), dir));
}

template <class Probe>
KernelCounts efm_flux_sweep(const Array2& left, const Array2& right, Dir dir,
                            const GasModel& gas, Array2& flux, Probe& probe) {
  check_flux_shapes(left, flux, "efm_flux_sweep");
  return efm_range(left, right, dir, gas, flux, probe, 0,
                   outer_extent(left.nx(), left.ny(), dir));
}

template <class Probe>
KernelCounts godunov_flux_sweep(const Array2& left, const Array2& right, Dir dir,
                                const GasModel& gas, Array2& flux, Probe& probe) {
  check_flux_shapes(left, flux, "godunov_flux_sweep");
  return godunov_range(left, right, dir, gas, flux, probe, 0,
                       outer_extent(left.nx(), left.ny(), dir));
}

namespace {

/// Divergence rows [jj_begin, jj_end), all five components per cell.
/// Face-normal-frame fluxes map back to conserved components here: x
/// faces carry (mass, mom_n = mx, mom_t = my, E, phi), y faces carry
/// (mass, mom_n = my, mom_t = mx, E, phi). Each cell sums its x and y
/// terms in the fixed order -((0 + first) + second) — my takes the y
/// term first — and every dudt cell is written exactly once from
/// already-final face fluxes, so any row partition produces bit-identical
/// output.
void flux_divergence_rows(const Array2& fx, const Array2& fy,
                          const amr::Box& interior, double inv_dx,
                          double inv_dy, amr::PatchData<double>& dudt,
                          int jj_begin, int jj_end) {
  const int W = interior.width();
  for (int jj = jj_begin; jj < jj_end; ++jj) {
    const int j = interior.lo().j + jj;
    for (int ii = 0; ii < W; ++ii) {
      const int i = interior.lo().i + ii;
      const double* xl = fx.addr(ii, jj, 0);
      const double* xr = fx.addr(ii + 1, jj, 0);
      const double* yl = fy.addr(ii, jj, 0);
      const double* yr = fy.addr(ii, jj + 1, 0);
      double ddx[kNcomp], ddy[kNcomp];
      for (int k = 0; k < kNcomp; ++k) {
        ddx[k] = (xr[k] - xl[k]) * inv_dx;
        ddy[k] = (yr[k] - yl[k]) * inv_dy;
      }
      dudt(i, j, kRho) = -((0.0 + ddx[0]) + ddy[0]);
      dudt(i, j, kMx) = -((0.0 + ddx[1]) + ddy[2]);
      dudt(i, j, kMy) = -((0.0 + ddy[1]) + ddx[2]);
      dudt(i, j, kE) = -((0.0 + ddx[3]) + ddy[3]);
      dudt(i, j, kRphi) = -((0.0 + ddx[4]) + ddy[4]);
    }
  }
}

void check_divergence_shapes(const Array2& fx, const Array2& fy,
                             const amr::Box& interior) {
  const int W = interior.width(), H = interior.height();
  CCAPERF_REQUIRE(fx.nx() == W + 1 && fx.ny() == H && fy.nx() == W &&
                      fy.ny() == H + 1,
                  "flux_divergence: face array shape mismatch");
}

}  // namespace

void flux_divergence(const Array2& fx, const Array2& fy, const amr::Box& interior,
                     double dx, double dy, amr::PatchData<double>& dudt) {
  check_divergence_shapes(fx, fy, interior);
  flux_divergence_rows(fx, fy, interior, 1.0 / dx, 1.0 / dy, dudt, 0,
                       interior.height());
}

double max_wave_speed(const amr::PatchData<double>& U, const amr::Box& interior,
                      const GasModel& gas) {
  double vmax = 0.0;
  double q[kNcomp];
  for (int j = interior.lo().j; j <= interior.hi().j; ++j) {
    for (int i = interior.lo().i; i <= interior.hi().i; ++i) {
      for (int c = 0; c < kNcomp; ++c) q[c] = U(i, j, c);
      const Prim w = cons_to_prim(q, gas);
      const double c0 = sound_speed(w, gas);
      vmax = std::max(vmax, std::max(std::abs(w.u), std::abs(w.v)) + c0);
    }
  }
  return vmax;
}

void total_conserved(const amr::PatchData<double>& U, const amr::Box& interior,
                     double totals[kNcomp]) {
  for (int c = 0; c < kNcomp; ++c) totals[c] = 0.0;
  for (int j = interior.lo().j; j <= interior.hi().j; ++j)
    for (int i = interior.lo().i; i <= interior.hi().i; ++i)
      for (int c = 0; c < kNcomp; ++c) totals[c] += U(i, j, c);
}

// --- RK2 update kernels ------------------------------------------------------

void rk2_axpy(double* y, const double* x, double a, std::size_t n) {
  switch (simd::active()) {
#if defined(CCAPERF_SIMD_AVX512)
    case simd::Isa::avx512:
      detail::rk2_axpy_avx512(y, x, a, n);
      return;
#endif
#if defined(CCAPERF_SIMD_AVX2)
    case simd::Isa::avx2:
      detail::rk2_axpy_avx2(y, x, a, n);
      return;
#endif
    default:
      break;
  }
  for (std::size_t k = 0; k < n; ++k) y[k] += a * x[k];
}

void rk2_heun_average(double* u, const double* u_old, const double* dudt,
                      double dt, std::size_t n) {
  switch (simd::active()) {
#if defined(CCAPERF_SIMD_AVX512)
    case simd::Isa::avx512:
      detail::rk2_heun_avx512(u, u_old, dudt, dt, n);
      return;
#endif
#if defined(CCAPERF_SIMD_AVX2)
    case simd::Isa::avx2:
      detail::rk2_heun_avx2(u, u_old, dudt, dt, n);
      return;
#endif
    default:
      break;
  }
  for (std::size_t k = 0; k < n; ++k)
    u[k] = 0.5 * (u_old[k] + u[k] + dt * dudt[k]);
}

// --- thread-parallel sweeps --------------------------------------------------

namespace {

/// Per-lane fold slot, padded so lanes never share a cache line.
struct alignas(64) LaneCounts {
  KernelCounts c;
};

KernelCounts sum_lanes(const std::vector<LaneCounts>& lanes) {
  KernelCounts total;
  for (const LaneCounts& l : lanes) total += l.c;
  return total;
}

}  // namespace

KernelCounts compute_states_mt(ccaperf::ThreadPool& pool,
                               const amr::PatchData<double>& U,
                               const amr::Box& interior, Dir dir,
                               const GasModel& gas, Array2& left,
                               Array2& right) {
  hwc::NullProbe probe;
  if (pool.size() == 1)
    return compute_states(U, interior, dir, gas, left, right, probe);
  check_states_shapes(U, interior, dir, left, right);
  const int outer = outer_extent(left.nx(), left.ny(), dir);
  std::vector<LaneCounts> lanes(static_cast<std::size_t>(pool.size()));
  pool.parallel_for(static_cast<std::size_t>(outer), [&](std::size_t o, int l) {
    hwc::NullProbe p;
    lanes[static_cast<std::size_t>(l)].c += states_range(
        U, interior, dir, gas, left, right, p, static_cast<int>(o),
        static_cast<int>(o) + 1);
  });
  return sum_lanes(lanes);
}

KernelCounts efm_flux_sweep_mt(ccaperf::ThreadPool& pool, const Array2& left,
                               const Array2& right, Dir dir, const GasModel& gas,
                               Array2& flux) {
  hwc::NullProbe probe;
  if (pool.size() == 1)
    return efm_flux_sweep(left, right, dir, gas, flux, probe);
  check_flux_shapes(left, flux, "efm_flux_sweep");
  const int outer = outer_extent(left.nx(), left.ny(), dir);
  std::vector<LaneCounts> lanes(static_cast<std::size_t>(pool.size()));
  pool.parallel_for(static_cast<std::size_t>(outer), [&](std::size_t o, int l) {
    hwc::NullProbe p;
    lanes[static_cast<std::size_t>(l)].c +=
        efm_range(left, right, dir, gas, flux, p, static_cast<int>(o),
                  static_cast<int>(o) + 1);
  });
  return sum_lanes(lanes);
}

KernelCounts godunov_flux_sweep_mt(ccaperf::ThreadPool& pool, const Array2& left,
                                   const Array2& right, Dir dir,
                                   const GasModel& gas, Array2& flux) {
  hwc::NullProbe probe;
  if (pool.size() == 1)
    return godunov_flux_sweep(left, right, dir, gas, flux, probe);
  check_flux_shapes(left, flux, "godunov_flux_sweep");
  const int outer = outer_extent(left.nx(), left.ny(), dir);
  std::vector<LaneCounts> lanes(static_cast<std::size_t>(pool.size()));
  pool.parallel_for(static_cast<std::size_t>(outer), [&](std::size_t o, int l) {
    hwc::NullProbe p;
    lanes[static_cast<std::size_t>(l)].c +=
        godunov_range(left, right, dir, gas, flux, p, static_cast<int>(o),
                      static_cast<int>(o) + 1);
  });
  return sum_lanes(lanes);
}

void flux_divergence_mt(ccaperf::ThreadPool& pool, const Array2& fx,
                        const Array2& fy, const amr::Box& interior, double dx,
                        double dy, amr::PatchData<double>& dudt) {
  if (pool.size() == 1) {
    flux_divergence(fx, fy, interior, dx, dy, dudt);
    return;
  }
  check_divergence_shapes(fx, fy, interior);
  const double inv_dx = 1.0 / dx, inv_dy = 1.0 / dy;
  pool.parallel_for(static_cast<std::size_t>(interior.height()),
                    [&](std::size_t jj, int) {
    flux_divergence_rows(fx, fy, interior, inv_dx, inv_dy, dudt,
                         static_cast<int>(jj), static_cast<int>(jj) + 1);
  });
}

// Explicit instantiations: the production (NullProbe) configuration,
// dispatched to the active ISA level, and the cache-traced (CacheProbe)
// one, which runs at the scalar level.
template KernelCounts compute_states<hwc::NullProbe>(const amr::PatchData<double>&,
                                                     const amr::Box&, Dir,
                                                     const GasModel&, Array2&,
                                                     Array2&, hwc::NullProbe&);
template KernelCounts compute_states<hwc::CacheProbe>(const amr::PatchData<double>&,
                                                      const amr::Box&, Dir,
                                                      const GasModel&, Array2&,
                                                      Array2&, hwc::CacheProbe&);
template KernelCounts efm_flux_sweep<hwc::NullProbe>(const Array2&, const Array2&,
                                                     Dir, const GasModel&, Array2&,
                                                     hwc::NullProbe&);
template KernelCounts efm_flux_sweep<hwc::CacheProbe>(const Array2&, const Array2&,
                                                      Dir, const GasModel&, Array2&,
                                                      hwc::CacheProbe&);
template KernelCounts godunov_flux_sweep<hwc::NullProbe>(const Array2&, const Array2&,
                                                         Dir, const GasModel&,
                                                         Array2&, hwc::NullProbe&);
template KernelCounts godunov_flux_sweep<hwc::CacheProbe>(const Array2&,
                                                          const Array2&, Dir,
                                                          const GasModel&, Array2&,
                                                          hwc::CacheProbe&);

}  // namespace euler
