#include "hwc/cache_sim.hpp"

#include <algorithm>

namespace hwc {

namespace {
bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }
unsigned log2u(std::size_t v) {
  unsigned s = 0;
  while ((std::size_t{1} << s) < v) ++s;
  return s;
}
}  // namespace

CacheSim::CacheSim(std::size_t size_bytes, std::size_t line_bytes,
                   std::size_t associativity)
    : size_bytes_(size_bytes), line_bytes_(line_bytes), assoc_(associativity) {
  CCAPERF_REQUIRE(is_pow2(line_bytes_), "CacheSim: line size must be a power of two");
  CCAPERF_REQUIRE(assoc_ >= 1, "CacheSim: associativity must be >= 1");
  CCAPERF_REQUIRE(size_bytes_ % (line_bytes_ * assoc_) == 0,
                  "CacheSim: size must be a multiple of line*associativity");
  sets_ = size_bytes_ / (line_bytes_ * assoc_);
  CCAPERF_REQUIRE(is_pow2(sets_), "CacheSim: set count must be a power of two");
  line_shift_ = log2u(line_bytes_);
  tag_shift_ = log2u(sets_);
  ways_.assign(sets_ * assoc_, Way{});
  mru_.assign(sets_, 0);
}

CacheSim::Way* CacheSim::touch_way(std::uint64_t line_addr, bool is_write,
                                   std::uint64_t& misses) {
  ++counters_.accesses;
  const std::uint64_t set = line_addr & (sets_ - 1);
  const std::uint64_t tag = line_addr >> tag_shift_;
  Way* row = &ways_[static_cast<std::size_t>(set) * assoc_];
  std::uint32_t& mru = mru_[static_cast<std::size_t>(set)];

  // MRU way hint: repeat hits on the hottest line of a set skip the
  // associativity scan entirely (the dominant event in a traced sweep).
  const std::uint64_t want = match_meta(tag);
  if (Way& h = row[mru]; (h.meta & ~std::uint64_t{1}) == want) {
    ++counters_.hits;
    h.lru = ++stamp_;
    h.meta |= static_cast<std::uint64_t>(is_write);
    return &h;
  }

  // One pass doubles as hit scan and victim pre-selection (first invalid
  // way, else strict-LRU with lowest-index tie-break — identical choice to
  // a separate victim scan).
  std::size_t victim = 0;
  bool found_invalid = false;
  std::uint64_t oldest = ~std::uint64_t{0};
  for (std::size_t w = 0; w < assoc_; ++w) {
    if (!valid(row[w])) {
      if (!found_invalid) {
        victim = w;
        found_invalid = true;
      }
      continue;
    }
    if ((row[w].meta & ~std::uint64_t{1}) == want) {
      ++counters_.hits;
      row[w].lru = ++stamp_;
      row[w].meta |= static_cast<std::uint64_t>(is_write);
      mru = static_cast<std::uint32_t>(w);
      return &row[w];
    }
    if (!found_invalid && row[w].lru < oldest) {
      oldest = row[w].lru;
      victim = w;
    }
  }

  // Miss: forward to the lower level, then fill (write-allocate).
  ++counters_.misses;
  ++misses;
  if (lower_ != nullptr)
    lower_->access(line_addr << line_shift_, line_bytes_, is_write);

  if (!found_invalid) {
    ++counters_.evictions;
    if (way_dirty(row[victim])) {
      ++counters_.writebacks;
      // Dirty victim written back to the lower level.
      if (lower_ != nullptr) {
        const std::uint64_t victim_line =
            (way_tag(row[victim]) << tag_shift_) | set;
        lower_->access(victim_line << line_shift_, line_bytes_, true);
      }
    }
  }
  row[victim] = Way{pack_meta(tag, gen_, is_write), ++stamp_};
  mru = static_cast<std::uint32_t>(victim);
  return &row[victim];
}

std::uint64_t CacheSim::access(std::uintptr_t addr, std::size_t bytes, bool is_write) {
  if (bytes == 0) return 0;
  const std::uint64_t first = static_cast<std::uint64_t>(addr) >> line_shift_;
  const std::uint64_t last =
      static_cast<std::uint64_t>(addr + bytes - 1) >> line_shift_;
  std::uint64_t misses = 0;
  for (std::uint64_t line = first; line <= last; ++line)
    touch_way(line, is_write, misses);
  return misses;
}

void CacheSim::flush() {
  // O(1): advancing the generation invalidates every line; ways are
  // lazily reclaimed (an out-of-generation way reads as invalid). The
  // stored generation is only kGenMask bits wide, so on wrap every way is
  // hard-invalidated (once per 65536 flushes — amortized free) and the
  // masked generation 0, which cleared ways carry, is skipped; lines from
  // a previous epoch can therefore never read as valid.
  ++gen_;
  if ((gen_ & kGenMask) == 0) {
    std::fill(ways_.begin(), ways_.end(), Way{});
    ++gen_;
  }
}

void CacheSim::reset_counters() { counters_ = CacheCounters{}; }

}  // namespace hwc
