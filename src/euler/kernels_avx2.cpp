// AVX2 (W=4 doubles) instantiation of the vector sweep kernels. Compiled
// with -mavx2 -ffp-contract=off (src/euler/CMakeLists.txt) — the contract
// flag is load-bearing: a contracted FMA would round once where the scalar
// reference rounds twice and break cross-ISA bit-identity.

#include "euler/kernels_isa.hpp"
#include "euler/kernels_simd_impl.hpp"

namespace euler::detail {

KernelCounts states_range_avx2(const amr::PatchData<double>& U,
                               const amr::Box& interior, Dir dir,
                               const GasModel& gas, Array2& left, Array2& right,
                               int o_begin, int o_end) {
  hwc::NullProbe probe;
  return states_range_lines<VecStatesGroups<4>>(
      U, interior, dir, gas, left, right, probe, o_begin, o_end);
}

KernelCounts efm_range_avx2(const Array2& left, const Array2& right, Dir dir,
                            const GasModel& gas, Array2& flux, int o_begin,
                            int o_end) {
  return efm_range_vec<4>(left, right, dir, gas, flux, o_begin, o_end);
}

KernelCounts godunov_range_avx2(const Array2& left, const Array2& right,
                                Dir dir, const GasModel& gas, Array2& flux,
                                int o_begin, int o_end) {
  return godunov_range_vec<4>(left, right, dir, gas, flux, o_begin, o_end);
}

void rk2_axpy_avx2(double* y, const double* x, double a, std::size_t n) {
  rk2_axpy_vec<4>(y, x, a, n);
}

void rk2_heun_avx2(double* u, const double* u_old, const double* dudt,
                   double dt, std::size_t n) {
  rk2_heun_vec<4>(u, u_old, dudt, dt, n);
}

}  // namespace euler::detail
