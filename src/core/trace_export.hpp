#pragma once
// core::TraceMerger — merges the per-rank tau::TraceBuffer flight
// recorders into a single Chrome-trace-event JSON file that
// ui.perfetto.dev (or chrome://tracing) renders directly:
//
//  * every rank becomes a process (pid = rank) with a named track;
//  * timer activations become duration slices ("B"/"E"), monitored method
//    invocations carrying a slice argument (e.g. Q) keep it as args;
//  * hardware-counter samples become counter tracks ("C");
//  * matched point-to-point message endpoints become flow arrows
//    ("s"/"f"), drawn from inside the sender's MPI_Isend slice
//    to inside the receiver's completion slice. Matching is exact, by the
//    fabric's (src, dst, seq) identity — never inferred from timestamps.
//
// Ranks run as threads of one process, so all trace epochs come from the
// same steady clock; the merger aligns them by shifting each rank onto
// the earliest epoch.
//
// collect_rank_trace() must run on the rank thread while its Registry is
// still alive (inside Runtime::run); the merger itself is thread-safe and
// outlives the fabric, so export can happen after the ranks join.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "tau/registry.hpp"

namespace core {

/// One rank's trace, lifted out of its Registry (which dies with the
/// rank's framework) into plain data the merger can keep.
struct RankTrace {
  int rank = 0;
  int thread = 0;                        ///< 0 = rank thread, >0 = pool lane
  tau::Clock::time_point epoch{};        ///< steady-clock instant of t_us == 0
  std::vector<tau::TraceRecord> events;  ///< balanced (via snapshot_trace)
  std::vector<std::string> timer_names;  ///< index = TimerId
  std::vector<std::string> counter_names;
  std::vector<std::string> strings;      ///< trace-string table
  std::uint64_t total_events = 0;        ///< pushed ever (retained + dropped)
  std::uint64_t dropped_events = 0;      ///< lost to the ring bound
  std::uint64_t suppressed_messages = 0; ///< endpoints a coarser tier skipped
};

/// Snapshots `reg`'s trace and name tables for rank `rank`. For a
/// multi-threaded rank, pass each registry shard with its pool lane as
/// `thread`; the merged trace shows one named track per thread inside the
/// rank's process (thread 0 keeps the rank's own track, byte-identical to
/// the single-threaded export).
RankTrace collect_rank_trace(const tau::Registry& reg, int rank, int thread = 0);

/// What the merge produced / lost — callers gate acceptance on this
/// (e.g. "every retained send must have found its recv").
struct MergeStats {
  std::size_t ranks = 0;            ///< distinct ranks (threads don't add)
  std::size_t events = 0;           ///< JSON trace events written
  std::size_t slices = 0;           ///< complete begin/end slice pairs
  std::size_t flows = 0;            ///< matched send/recv pairs
  std::size_t unmatched_sends = 0;  ///< peer endpoint missing (ring drop)
  std::size_t unmatched_recvs = 0;
  std::size_t orphan_exits = 0;     ///< exits whose enters were overwritten
  std::uint64_t dropped = 0;        ///< ring drops summed over ranks
  /// Message endpoints skipped below the `full` trace tier, summed over
  /// ranks: each may leave its peer's endpoint unmatched.
  std::uint64_t suppressed_messages = 0;

  bool fully_matched() const { return unmatched_sends == 0 && unmatched_recvs == 0; }
};

class TraceMerger {
 public:
  /// Registers one rank's trace. Thread-safe: rank threads call this
  /// concurrently right before the parallel region ends.
  void add_rank(RankTrace trace);

  std::size_t num_ranks() const;

  /// Writes the merged Chrome trace event JSON. Deterministic for a given
  /// set of ranks (ranks sorted, events kept in per-rank order).
  MergeStats write_chrome_trace(std::ostream& os) const;

 private:
  mutable std::mutex mu_;
  std::vector<RankTrace> ranks_;
};

/// The CCAPERF_TRACE environment switch:
///   CCAPERF_TRACE       unset/""/"0"/"off" disable; "1"/"on" enable with
///                       the default path; anything else enables and names
///                       the output file.
///   CCAPERF_TRACE_EVENTS  ring capacity in events; read only when
///                       tracing is on, and raises when it is not an
///                       integer >= 1.
struct TraceEnv {
  bool enabled = false;
  std::string path = "trace.json";
  std::size_t capacity = tau::TraceBuffer::kDefaultCapacity;
};
TraceEnv trace_env();

}  // namespace core
