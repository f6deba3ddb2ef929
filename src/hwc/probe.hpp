#pragma once
// Memory/FLOP probes: the bridge between numerical kernels and the
// hardware-counter substrate.
//
// Kernels in src/euler are templated on a Probe policy. With `NullProbe`
// every probe call inlines to nothing (production speed — this is the
// configuration wall-clock measurements use). With `CacheProbe` each load,
// store and floating-point operation is recorded and the memory accesses
// are replayed through a CacheSim hierarchy, yielding deterministic
// PAPI-style event counts (FP_OPS, Lx_DCM, LD_INS, SR_INS) for performance
// modeling — the paper's "hardware performance metrics such as data cache
// misses and floating point instructions executed" (Section 4.1).
//
// Probes expose both scalar hooks (load/store, one element each) and
// batched run hooks (load_run/store_run, a whole strided run per call).
// CacheProbe maps them onto CacheSim's two paths: scalar hooks call
// `access`, the element path; run hooks call `access_run`, which amortizes
// the per-element simulation cost over the run (touch each line once, MRU
// way hint) while producing counters bit-identical to an `access` loop
// (tests/hwc/test_access_run.cpp).

#include <cstdint>

#include "hwc/cache_sim.hpp"

namespace hwc {

/// Zero-cost probe: all hooks compile away.
struct NullProbe {
  static constexpr bool kCounting = false;
  void load(const void*, std::size_t) {}
  void store(const void*, std::size_t) {}
  void load_run(const void*, std::ptrdiff_t, std::size_t, std::size_t) {}
  void store_run(const void*, std::ptrdiff_t, std::size_t, std::size_t) {}
  void flops(std::uint64_t) {}
};

/// Event counts gathered by a CacheProbe run.
struct ProbeCounts {
  std::uint64_t loads = 0;
  std::uint64_t stores = 0;
  std::uint64_t flops = 0;
};

/// Records loads/stores/flops and replays memory traffic through a cache.
class CacheProbe {
 public:
  static constexpr bool kCounting = true;

  /// `top` is the first-level cache of the hierarchy (may chain lower
  /// levels). The probe does not own it.
  explicit CacheProbe(CacheSim* top) : cache_(top) {
    CCAPERF_REQUIRE(top != nullptr, "CacheProbe: null cache");
  }

  void load(const void* p, std::size_t bytes) {
    ++counts_.loads;
    cache_->access(reinterpret_cast<std::uintptr_t>(p), bytes, false);
  }
  void store(const void* p, std::size_t bytes) {
    ++counts_.stores;
    cache_->access(reinterpret_cast<std::uintptr_t>(p), bytes, true);
  }
  /// Batched: `count` loads of `elem_bytes`, the k-th at p + k*stride_bytes.
  /// Forced inline, like access_run, so that access_run inlines into the
  /// kernels' call sites, where count and stride are constants it
  /// specializes on.
  CCAPERF_FORCE_INLINE void load_run(const void* p,
                                     std::ptrdiff_t stride_bytes,
                                     std::size_t count,
                                     std::size_t elem_bytes) {
    counts_.loads += count;
    cache_->access_run(reinterpret_cast<std::uintptr_t>(p), stride_bytes, count,
                       elem_bytes, false);
  }
  CCAPERF_FORCE_INLINE void store_run(const void* p,
                                      std::ptrdiff_t stride_bytes,
                                      std::size_t count,
                                      std::size_t elem_bytes) {
    counts_.stores += count;
    cache_->access_run(reinterpret_cast<std::uintptr_t>(p), stride_bytes, count,
                       elem_bytes, true);
  }
  void flops(std::uint64_t n) { counts_.flops += n; }

  const ProbeCounts& counts() const { return counts_; }
  CacheSim* cache() const { return cache_; }
  void reset() { counts_ = ProbeCounts{}; }

 private:
  CacheSim* cache_;
  ProbeCounts counts_;
};

}  // namespace hwc
