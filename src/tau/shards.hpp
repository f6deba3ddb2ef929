#pragma once
// tau::RegistryShards — per-thread measurement shards for one rank
// (DESIGN.md §9).
//
// A Registry is single-threaded by design, so a multi-threaded rank gets
// one *shard* Registry per pool lane: lane 0 uses the rank's primary
// registry directly, lanes 1..N-1 time into private shards with no
// synchronization on the measurement hot path. At every region barrier
// (the thread pool's region-end hook) the shards fold into the primary in
// lane order — plain additions in a fixed order, so merged call counts
// and counter sums are exactly the values a serial run would produce, and
// the primary's per-timer generation stamps make the merge visible to
// the telemetry lines' timers_changed count unchanged.
//
// Tracing: shards mirror the primary's ring capacity and epoch, so each
// lane records its own balanced event stream on the shared time axis.
// Shard traces are exported as extra per-thread tracks
// (core::collect_rank_trace(shard, rank, lane)), not merged into the
// primary's ring.

#include <memory>
#include <vector>

#include "support/error.hpp"
#include "tau/registry.hpp"

namespace tau {

class RegistryShards {
 public:
  /// `lanes` counts the primary: lanes == 1 means no worker shards (the
  /// single-threaded configuration; merge_into_primary is then a no-op).
  RegistryShards(Registry& primary, int lanes) : primary_(primary) {
    CCAPERF_REQUIRE(lanes >= 1, "RegistryShards: need at least one lane");
    shards_.reserve(static_cast<std::size_t>(lanes - 1));
    for (int l = 1; l < lanes; ++l)
      shards_.push_back(std::make_unique<Registry>());
  }

  int lanes() const { return 1 + static_cast<int>(shards_.size()); }

  /// Lane 0 is the rank's primary registry; worker lanes get private
  /// shards. Each lane must only ever touch its own registry.
  Registry& shard(int lane) {
    CCAPERF_REQUIRE(lane >= 0 && lane < lanes(), "RegistryShards: bad lane");
    return lane == 0 ? primary_ : *shards_[static_cast<std::size_t>(lane - 1)];
  }

  const Registry& primary() const { return primary_; }

  /// Folds every worker shard's timers and events into the primary, in
  /// lane order, and resets the shards' accumulators. Must run with all
  /// lanes idle (the pool's region-end hook on the rank thread).
  void merge_into_primary() {
    for (std::unique_ptr<Registry>& s : shards_) {
      for (const TimerStats& row : s->drain()) primary_.absorb(row);
      if (!s->events().empty()) primary_.absorb_events(s->take_events());
    }
  }

  /// Mirrors the primary's tracing state onto the shards: same ring
  /// capacity, same epoch (so merged tracks share a time axis). Call
  /// after arming tracing on the primary; re-arming resets shard rings.
  void mirror_tracing() {
    for (std::unique_ptr<Registry>& s : shards_) {
      if (primary_.tracing()) {
        s->set_trace_capacity(primary_.trace().capacity());
        s->set_tracing_from_epoch(primary_.trace_epoch());
      } else if (s->tracing()) {
        s->set_tracing(false);
      }
    }
  }

 private:
  Registry& primary_;
  std::vector<std::unique_ptr<Registry>> shards_;
};

}  // namespace tau
