#pragma once
// Entry points of the per-ISA SIMD translation units. Declarations only:
// the definitions live in kernels_avx2.cpp / kernels_avx512.cpp, which
// CMake compiles with the matching -m flags (and -ffp-contract=off) only
// when the compiler supports them; the CCAPERF_SIMD_AVX2/AVX512 macros
// tell kernels.cpp which cases exist to dispatch to. These are the raw
// (untraced) kernels: a cache-traced call runs the scalar level.

#include <cstddef>

#include "euler/kernels.hpp"

namespace euler::detail {

KernelCounts states_range_avx2(const amr::PatchData<double>& U,
                               const amr::Box& interior, Dir dir,
                               const GasModel& gas, Array2& left, Array2& right,
                               int o_begin, int o_end);
KernelCounts efm_range_avx2(const Array2& left, const Array2& right, Dir dir,
                            const GasModel& gas, Array2& flux, int o_begin,
                            int o_end);
KernelCounts godunov_range_avx2(const Array2& left, const Array2& right,
                                Dir dir, const GasModel& gas, Array2& flux,
                                int o_begin, int o_end);
void rk2_axpy_avx2(double* y, const double* x, double a, std::size_t n);
void rk2_heun_avx2(double* u, const double* u_old, const double* dudt,
                   double dt, std::size_t n);

KernelCounts states_range_avx512(const amr::PatchData<double>& U,
                                 const amr::Box& interior, Dir dir,
                                 const GasModel& gas, Array2& left,
                                 Array2& right, int o_begin, int o_end);
KernelCounts efm_range_avx512(const Array2& left, const Array2& right, Dir dir,
                              const GasModel& gas, Array2& flux, int o_begin,
                              int o_end);
KernelCounts godunov_range_avx512(const Array2& left, const Array2& right,
                                  Dir dir, const GasModel& gas, Array2& flux,
                                  int o_begin, int o_end);
void rk2_axpy_avx512(double* y, const double* x, double a, std::size_t n);
void rk2_heun_avx512(double* u, const double* u_old, const double* dudt,
                     double dt, std::size_t n);

}  // namespace euler::detail
