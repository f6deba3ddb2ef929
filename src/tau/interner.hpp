#pragma once
// tau::NameInterner — an open-addressing string interner (FNV-1a,
// power-of-two buckets holding id+1, linear probing, load factor kept
// under 1/2) for every dense-id name table:
//
//  * Registry::timer() interns timer names to dense TimerIds (the MPI hook
//    adapter looks a timer up by name on every hook);
//  * Registry::trace_string() interns slice-argument names and instant
//    labels;
//  * core::TelemetryHub interns session names to dense SessionIds.
//
// The interner is deliberately *not* internally synchronized ("shard-safe"
// rather than thread-safe): a single-owner consumer (the per-rank
// Registry) pays no locking, and a shared consumer (the hub's session
// table) guards it with the same mutex that protects the id-indexed state
// the interner keys — one lock for both, no torn id/state views.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tau {

/// FNV-1a over the name bytes — cheap, allocation-free, good enough for
/// tables whose keys are dozens-to-thousands of distinct names.
inline std::uint64_t intern_hash(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

class NameInterner {
 public:
  /// Dense id for `name`, interning it on first sight. Ids are assigned
  /// 0, 1, 2, ... in first-sight order and are stable forever.
  std::uint32_t intern(std::string_view name) {
    if (buckets_.empty()) rehash(64);
    std::size_t b = probe(name);
    if (buckets_[b] != 0) return buckets_[b] - 1;
    const std::uint32_t id = static_cast<std::uint32_t>(names_.size());
    names_.emplace_back(name);
    // Keep load factor under 1/2 so probes stay short.
    if ((names_.size() + 1) * 2 > buckets_.size()) {
      rehash(buckets_.size() * 2);
      b = probe(name);
    }
    buckets_[b] = id + 1;
    return id;
  }

  /// Id of an already-interned name, or kNotFound.
  static constexpr std::uint32_t kNotFound = 0xffffffffu;
  std::uint32_t find(std::string_view name) const {
    if (buckets_.empty()) return kNotFound;
    const std::uint32_t v = buckets_[probe(name)];
    return v == 0 ? kNotFound : v - 1;
  }

  bool contains(std::string_view name) const { return find(name) != kNotFound; }

  const std::string& name(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }
  const std::vector<std::string>& names() const { return names_; }

 private:
  /// Bucket holding `name`, or the empty bucket where it would insert.
  /// Requires a non-empty, non-full table.
  std::size_t probe(std::string_view name) const {
    const std::size_t mask = buckets_.size() - 1;
    std::size_t b = static_cast<std::size_t>(intern_hash(name)) & mask;
    while (true) {
      const std::uint32_t v = buckets_[b];
      if (v == 0 || names_[v - 1] == name) return b;
      b = (b + 1) & mask;
    }
  }

  void rehash(std::size_t capacity) {
    buckets_.assign(capacity, 0);
    for (std::uint32_t id = 0; id < names_.size(); ++id)
      buckets_[probe(names_[id])] = id + 1;
  }

  std::vector<std::string> names_;
  std::vector<std::uint32_t> buckets_;  // id + 1; 0 = empty
};

}  // namespace tau
