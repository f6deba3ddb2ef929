// AVX-512 (W=8 doubles) instantiation of the vector sweep kernels.
// Compiled with -mavx512f -mavx512dq -mavx512vl -ffp-contract=off
// (src/euler/CMakeLists.txt); see kernels_avx2.cpp for why the contract
// flag matters.

#include "euler/kernels_isa.hpp"
#include "euler/kernels_simd_impl.hpp"

namespace euler::detail {

KernelCounts states_range_avx512(const amr::PatchData<double>& U,
                                 const amr::Box& interior, Dir dir,
                                 const GasModel& gas, Array2& left,
                                 Array2& right, int o_begin, int o_end) {
  hwc::NullProbe probe;
  return states_range_lines<VecStatesGroups<8>>(
      U, interior, dir, gas, left, right, probe, o_begin, o_end);
}

KernelCounts efm_range_avx512(const Array2& left, const Array2& right, Dir dir,
                              const GasModel& gas, Array2& flux, int o_begin,
                              int o_end) {
  return efm_range_vec<8>(left, right, dir, gas, flux, o_begin, o_end);
}

KernelCounts godunov_range_avx512(const Array2& left, const Array2& right,
                                  Dir dir, const GasModel& gas, Array2& flux,
                                  int o_begin, int o_end) {
  return godunov_range_vec<8>(left, right, dir, gas, flux, o_begin, o_end);
}

void rk2_axpy_avx512(double* y, const double* x, double a, std::size_t n) {
  rk2_axpy_vec<8>(y, x, a, n);
}

void rk2_heun_avx512(double* u, const double* u_old, const double* dudt,
                     double dt, std::size_t n) {
  rk2_heun_vec<8>(u, u_old, dudt, dt, n);
}

}  // namespace euler::detail
