#pragma once
// hwc::CacheSim — a set-associative LRU cache simulator.
//
// The paper reads hardware cache-miss counters through PAPI/PCL on a Xeon
// with a 512 kB L2 (Section 5) and attributes the sequential/strided
// timing crossover of States/EFMFlux/GodunovFlux to cache behaviour
// (Figs. 4-5). We have no PAPI, so this simulator *is* the hardware
// counter backend: numerical kernels can run with their loads/stores
// routed through a cache model (see probe.hpp), producing deterministic
// miss counts with exactly the paper's qualitative behaviour — unit-ratio
// for cache-resident arrays, growing miss ratio once the working set
// overflows the cache under strided access.
//
// Multi-level hierarchies are built by chaining: an access that misses one
// level is forwarded to `lower()`.
//
// The simulator has two access paths: `access`, the element path (one
// access of `bytes` at `addr`, the reference the batched path is tested
// against), and `access_run`, the batched path the kernels' probes call.
// It is on the tracing hot path (every probed load/store of a traced
// kernel lands here), so it carries three fast-path mechanisms:
//  * `access_run` batches a whole strided run of elements into one call,
//    touching each cache line once via address arithmetic — elements that
//    provably stay in the line just touched are accounted as hits without
//    re-walking the set;
//  * a per-set MRU way hint short-circuits the associativity scan on
//    repeat hits (the dominant event in a traced sweep);
//  * `flush()` is O(1): a generation counter invalidates every line
//    without rewriting the way array.
// All three are exact: counters are bit-identical to an element-by-element
// `access` loop (tests/hwc/test_access_run.cpp asserts this property).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.hpp"

// The batched tracing fast path lives or dies on access_run specializing
// at its (constant count/stride) kernel call sites; GCC's inliner balks at
// the function size, so force it.
#if defined(__GNUC__) || defined(__clang__)
#define CCAPERF_FORCE_INLINE inline __attribute__((always_inline))
#else
#define CCAPERF_FORCE_INLINE inline
#endif

namespace hwc {

/// Counter snapshot for one cache level.
struct CacheCounters {
  std::uint64_t accesses = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;

  double miss_rate() const {
    return accesses ? static_cast<double>(misses) / static_cast<double>(accesses) : 0.0;
  }
};

/// One level of set-associative, write-back/write-allocate LRU cache.
class CacheSim {
 public:
  /// `size_bytes` total capacity; `line_bytes` block size (power of two);
  /// `associativity` ways per set. size must be divisible by line*ways.
  CacheSim(std::size_t size_bytes, std::size_t line_bytes, std::size_t associativity);

  /// Simulates a data access of `bytes` starting at `addr`. Accesses that
  /// straddle line boundaries touch every covered line. Returns the number
  /// of misses incurred at *this* level.
  std::uint64_t access(std::uintptr_t addr, std::size_t bytes, bool is_write);

  /// Simulates `count` accesses of `elem_bytes` each, the k-th at
  /// `addr + k*stride_bytes` — exactly equivalent (bit-identical counters
  /// and replacement state) to calling `access` once per element, but runs
  /// in O(lines touched) instead of O(elements) for dense runs. Negative
  /// strides are allowed (falls back to the scalar walk). Returns the
  /// number of misses incurred at *this* level. Defined inline below so
  /// kernel call sites with constant counts/strides specialize fully;
  /// `access` stays out of line as the per-element reference path.
  CCAPERF_FORCE_INLINE std::uint64_t access_run(std::uintptr_t addr,
                                                std::ptrdiff_t stride_bytes,
                                                std::size_t count,
                                                std::size_t elem_bytes,
                                                bool is_write);

  /// Invalidates all lines (O(1): bumps the line generation) and keeps
  /// counters.
  void flush();
  void reset_counters();

  const CacheCounters& counters() const { return counters_; }
  std::size_t size_bytes() const { return size_bytes_; }
  std::size_t line_bytes() const { return line_bytes_; }
  std::size_t associativity() const { return assoc_; }
  std::size_t num_sets() const { return sets_; }

  /// Chains a lower (larger/slower) level; misses here are forwarded to it.
  void set_lower(CacheSim* lower) { lower_ = lower; }
  CacheSim* lower() const { return lower_; }

 private:
  // 16 bytes/way, not 32: the way array is the simulator's real working
  // set (a 512 kB sim = 1024 sets x 8 ways), and every touch lands on a
  // random set, so its footprint — not instruction count — bounds the
  // traced hot path. tag, generation and dirty pack into one word; the
  // hit check then becomes a single masked compare. The 16-bit generation
  // field is kept exact by flush() hard-invalidating on wrap. Tags keep
  // their low 47 bits (the rest shift out of meta): addresses alias only
  // beyond 2^(47 + tag_shift + line_shift) — far outside any real address
  // space — and every fill/lookup/writeback path truncates identically, so
  // the bit-identity property holds for arbitrary 64-bit addresses too.
  struct Way {
    std::uint64_t meta = 0;  // tag << 17 | (gen & kGenMask) << 1 | dirty
    std::uint64_t lru = 0;   // last-use stamp
  };
  static constexpr std::uint64_t kGenMask = 0xffff;  // 16-bit generation
  static constexpr unsigned kTagShiftInMeta = 17;

  static std::uint64_t pack_meta(std::uint64_t tag, std::uint64_t gen,
                                 bool dirty) {
    return tag << kTagShiftInMeta | (gen & kGenMask) << 1 |
           static_cast<std::uint64_t>(dirty);
  }
  static std::uint64_t way_tag(const Way& w) { return w.meta >> kTagShiftInMeta; }
  static bool way_dirty(const Way& w) { return (w.meta & 1) != 0; }
  /// Meta of a clean, current-generation way holding `tag`; a way matches
  /// (any dirty state) iff (meta & ~1) equals this.
  std::uint64_t match_meta(std::uint64_t tag) const {
    return pack_meta(tag, gen_, false);
  }
  bool valid(const Way& w) const {
    return ((w.meta >> 1) & kGenMask) == (gen_ & kGenMask);
  }
  /// Touches one line (hit, or miss + fill), adds any miss to `misses`
  /// and hands back the way now holding the line (the set's new MRU) so
  /// access_run can extend guaranteed-hit runs on it.
  Way* touch_way(std::uint64_t line_addr, bool is_write, std::uint64_t& misses);

  std::size_t size_bytes_;
  std::size_t line_bytes_;
  std::size_t assoc_;
  std::size_t sets_;
  unsigned line_shift_;
  unsigned tag_shift_;                 // log2(sets_)
  std::vector<Way> ways_;              // sets_ x assoc_, row-major
  std::vector<std::uint32_t> mru_;     // per-set most-recently-used way hint
  std::uint64_t stamp_ = 0;
  std::uint64_t gen_ = 1;              // flush() increments; Way::gen matches
  CacheCounters counters_;
  CacheSim* lower_ = nullptr;
};

inline std::uint64_t CacheSim::access_run(std::uintptr_t addr,
                                          std::ptrdiff_t stride_bytes,
                                          std::size_t count, std::size_t elem_bytes,
                                          bool is_write) {
  if (count == 0 || elem_bytes == 0) return 0;
  std::uint64_t misses = 0;

  // Contiguous aligned runs (the kernels' stencil and state batches) take
  // a closed-form path: when the stride equals the element size and no
  // element can straddle a line boundary, each covered line holds a
  // computable element count — touch the line once, then account the
  // remaining elements as guaranteed hits in one arithmetic step. The
  // bookkeeping (accesses/hits, one stamp per element, final LRU stamp on
  // the way, dirty bit) matches the element loop exactly, so counters and
  // replacement state stay bit-identical; only the per-element walk goes.
  if (stride_bytes > 0 && static_cast<std::size_t>(stride_bytes) == elem_bytes &&
      (elem_bytes & (elem_bytes - 1)) == 0 && elem_bytes <= line_bytes_ &&
      static_cast<std::uint64_t>(addr) % elem_bytes == 0) {
    const unsigned elem_shift =
        static_cast<unsigned>(__builtin_ctzll(static_cast<std::uint64_t>(elem_bytes)));
    const std::uint64_t base = static_cast<std::uint64_t>(addr);
    const std::uint64_t span = static_cast<std::uint64_t>(count) << elem_shift;
    const std::uint64_t first = base >> line_shift_;
    const std::uint64_t last = (base + span - 1) >> line_shift_;
    const std::uint64_t gen_field = (gen_ & kGenMask) << 1;
    const std::uint64_t set_mask = sets_ - 1;
    const unsigned tag_shift = tag_shift_;
    const std::size_t assoc = assoc_;
    Way* const ways = ways_.data();
    const std::uint32_t* const mru = mru_.data();
    std::uint64_t acc = 0, hit = 0, stamp = stamp_;
    for (std::uint64_t line = first; line <= last; ++line) {
      const std::uint64_t line_begin = line << line_shift_;
      const std::uint64_t lo = line == first ? base : line_begin;
      const std::uint64_t hi =
          line == last ? base + span : line_begin + line_bytes_;
      const std::uint64_t n = (hi - lo) >> elem_shift;
      const std::uint64_t set = line & set_mask;
      Way& h = ways[static_cast<std::size_t>(set) * assoc +
                    mru[static_cast<std::size_t>(set)]];
      if ((h.meta & ~std::uint64_t{1}) ==
          ((line >> tag_shift) << kTagShiftInMeta | gen_field)) {
        acc += n;
        hit += n;
        stamp += n;
        h.lru = stamp;
        h.meta |= static_cast<std::uint64_t>(is_write);
      } else {
        counters_.accesses += acc;
        counters_.hits += hit;
        stamp_ = stamp;
        acc = hit = 0;
        Way* w = touch_way(line, is_write, misses);
        stamp = stamp_;
        if (n > 1) {
          acc = n - 1;
          hit = n - 1;
          stamp += n - 1;
          w->lru = stamp;
        }
      }
    }
    counters_.accesses += acc;
    counters_.hits += hit;
    stamp_ = stamp;
    return misses;
  }

  // Invariant: `cur_way` (when non-null) holds `cur_line`, and no line has
  // been touched since — so an element confined to `cur_line` is a
  // *guaranteed* hit and can be accounted without re-walking the set. The
  // bookkeeping (accesses/hits/stamp/lru/dirty) matches touch_way's hit
  // path exactly, keeping counters and replacement state bit-identical to
  // the element-by-element loop.
  std::uint64_t cur_line = 0;
  Way* cur_way = nullptr;

  // Hot-loop state stays in registers: geometry is hoisted, and the hit
  // bookkeeping (access/hit tallies, the LRU stamp) accumulates locally —
  // flushed to the members once per run and around slow-path calls instead
  // of once per element. gen_/mru_/ways_ are only mutated by touch_way, so
  // reads through the hoisted pointers stay coherent.
  const unsigned line_shift = line_shift_;
  const std::uint64_t set_mask = sets_ - 1;
  const unsigned tag_shift = tag_shift_;
  const std::uint64_t gen_field = (gen_ & kGenMask) << 1;
  const std::size_t assoc = assoc_;
  Way* const ways = ways_.data();
  const std::uint32_t* const mru = mru_.data();
  std::uint64_t local_stamp = stamp_;
  std::uint64_t local_acc = 0, local_hit = 0;

  // MRU-hint touch with deferred bookkeeping; misses and hint failures
  // sync the members and take the shared out-of-line path.
  auto touch = [&](std::uint64_t line) -> Way* {
    const std::uint64_t set = line & set_mask;
    Way& h = ways[static_cast<std::size_t>(set) * assoc +
                  mru[static_cast<std::size_t>(set)]];
    if ((h.meta & ~std::uint64_t{1}) ==
        ((line >> tag_shift) << kTagShiftInMeta | gen_field)) {
      ++local_acc;
      ++local_hit;
      h.lru = ++local_stamp;
      h.meta |= static_cast<std::uint64_t>(is_write);
      return &h;
    }
    counters_.accesses += local_acc;
    counters_.hits += local_hit;
    stamp_ = local_stamp;
    local_acc = local_hit = 0;
    Way* w = touch_way(line, is_write, misses);
    local_stamp = stamp_;
    return w;
  };

  // Power-of-two strides (the kernels' contiguous and row-strided runs)
  // extend guaranteed-hit runs with a shift; the integer division would
  // otherwise dominate the per-run cost.
  const auto ustride = static_cast<std::uint64_t>(stride_bytes);
  const bool stride_pow2 = stride_bytes > 0 && (ustride & (ustride - 1)) == 0;
  unsigned stride_shift = 0;
  for (std::uint64_t s = ustride; stride_pow2 && s > 1; s >>= 1) ++stride_shift;

  std::size_t k = 0;
  while (k < count) {
    const std::uint64_t a =
        static_cast<std::uint64_t>(addr) +
        static_cast<std::uint64_t>(static_cast<std::int64_t>(k) * stride_bytes);
    const std::uint64_t first = a >> line_shift;
    const std::uint64_t last = (a + elem_bytes - 1) >> line_shift;

    if (first == last) {
      if (cur_way != nullptr && first == cur_line) {
        // Guaranteed hit; extend over every following element that provably
        // stays inside this line (run-length batching).
        std::size_t run = 1;
        if (stride_bytes > 0) {
          const std::uint64_t line_end = (first + 1) << line_shift;
          const std::uint64_t room = line_end - (a + elem_bytes);
          const std::uint64_t ext = stride_pow2 ? room >> stride_shift : room / ustride;
          run += static_cast<std::size_t>(std::min<std::uint64_t>(count - k - 1, ext));
        } else if (stride_bytes == 0) {
          run = count - k;
        }
        local_acc += run;
        local_hit += run;
        local_stamp += run;
        cur_way->lru = local_stamp;
        cur_way->meta |= static_cast<std::uint64_t>(is_write);
        k += run;
        continue;
      }
      cur_way = touch(first);
      cur_line = first;
      ++k;
      continue;
    }

    // Element straddles line boundaries: touch every covered line in the
    // scalar order (first line may still be the guaranteed-hit line).
    for (std::uint64_t line = first; line <= last; ++line) {
      if (cur_way != nullptr && line == cur_line) {
        ++local_acc;
        ++local_hit;
        cur_way->lru = ++local_stamp;
        cur_way->meta |= static_cast<std::uint64_t>(is_write);
      } else {
        cur_way = touch(line);
        cur_line = line;
      }
    }
    ++k;
  }
  counters_.accesses += local_acc;
  counters_.hits += local_hit;
  stamp_ = local_stamp;
  return misses;
}

/// Builds the paper's testbed memory hierarchy: 8 kB L1D feeding the
/// 512 kB L2 of the dual-Xeon nodes (64 B lines, 8-way). Returned pair is
/// (l1, l2); access through l1.
struct XeonHierarchy {
  XeonHierarchy() : l1(8 * 1024, 64, 4), l2(512 * 1024, 64, 8) { l1.set_lower(&l2); }
  CacheSim l1;
  CacheSim l2;
};

}  // namespace hwc
