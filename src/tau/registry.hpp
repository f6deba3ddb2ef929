#pragma once
// tau::Registry — the measurement core (our stand-in for the TAU library).
//
// Mirrors the capabilities the paper uses (Section 4.1):
//  * timing interface: create/name/start/stop/group timers; a per-rank
//    callstack yields aggregate *inclusive* and *exclusive* wall-clock time
//    per timer, plus call counts;
//  * event interface: named atomic events recording min/max/mean/stddev/N;
//  * timer control: enable/disable whole groups at runtime (e.g. all "MPI"
//    timers via their group identifier);
//  * query interface: mid-run snapshots of cumulative metrics — the
//    Mastermind differences group totals and counter values taken at
//    start and stop to attribute cost to a single method invocation
//    (Section 4.3);
//  * hardware counters: named sources registered from the hwc substrate,
//    included in every snapshot.
//
// Hot-path design (§3.2 requirement 2, non-intrusiveness): timer names are
// interned once through an open-addressing hash table (no per-call
// std::map node traffic), groups are interned to dense ids with a running
// per-group inclusive accumulator so group_inclusive_us() costs O(stack
// depth) instead of O(#timers), and every timer carries a generation
// stamp, so telemetry can count the timers that fired since its previous
// line (timers_changed_since) without copying their rows.
//
// One Registry per rank; instances are NOT thread-safe by design (SCMD
// gives each rank thread its own, exactly like per-process TAU).

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hwc/counters.hpp"
#include "support/error.hpp"
#include "support/stats.hpp"
#include "tau/interner.hpp"
#include "tau/trace_buffer.hpp"

namespace tau {

using TimerId = std::size_t;
using GroupId = std::size_t;
using Generation = std::uint64_t;
using Clock = std::chrono::steady_clock;

/// Default timer group (TAU's TAU_DEFAULT).
inline constexpr const char* kDefaultGroup = "TAU_DEFAULT";
/// Group used by the mpp hook adapter for message-passing timers.
inline constexpr const char* kMpiGroup = "MPI";

/// Cumulative data for one named timer.
struct TimerStats {
  std::string name;
  std::string group;
  std::uint64_t calls = 0;
  double inclusive_us = 0.0;  ///< time in timer + callees
  double exclusive_us = 0.0;  ///< time in timer minus instrumented callees
};

/// Atomic event: TAU records min/max/mean/stddev/count per event name.
using AtomicEvent = ccaperf::RunningStats;

/// Trace verbosity ladder (DESIGN.md §12). Ordered: every tier emits a
/// subset of the tier above it, so the OverheadGovernor can walk down the
/// ladder monotonically. `full` is the historical behavior and the default.
///  * full     — enter/exit slices + slice args + message endpoints +
///               counter samples + instants
///  * slices   — enter/exit only (args and messages dropped)
///  * counters — counter samples only (no slices)
///  * off      — instants only (the governor's own audit marks survive)
enum class TraceTier : int { full = 0, slices = 1, counters = 2, off = 3 };

/// Stable lowercase name for telemetry/JSON output.
const char* trace_tier_name(TraceTier t);

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  // --- timing interface ----------------------------------------------------

  /// Returns the id for `name`, creating the timer on first use. The group
  /// is fixed at creation; later calls may pass any group value. Interned:
  /// repeated lookups hash the name once, with no allocation.
  TimerId timer(std::string_view name, std::string_view group = kDefaultGroup);

  /// True if a timer with this exact name exists.
  bool has_timer(std::string_view name) const;

  void start(TimerId id);
  /// Stops the innermost running timer, which must be `id` (LIFO
  /// discipline). Returns the elapsed inclusive time of the activation
  /// just closed (whether or not the timer's group is enabled) — the
  /// Mastermind uses this as the invocation's wall time instead of taking
  /// two more clock readings of its own.
  double stop(TimerId id);

  /// Number of timers created.
  std::size_t num_timers() const { return timers_.size(); }
  /// Depth of the running-timer stack (0 when idle).
  std::size_t stack_depth() const { return stack_.size(); }

  // --- timer control ---------------------------------------------------------

  /// Enables/disables every timer in `group`, now and in the future.
  /// Disabled timers record nothing and their time folds into the nearest
  /// enabled ancestor's exclusive time (as if uninstrumented).
  void set_group_enabled(std::string_view group, bool enabled);
  bool group_enabled(std::string_view group) const;

  /// Dense id of a group, interning it on first use. Stable for the
  /// registry's lifetime; useful to hoist group queries out of hot loops.
  GroupId group_id(std::string_view group);

  /// Groups interned so far (telemetry walks them for per-group time).
  std::size_t num_groups() const { return groups_.size(); }
  const std::string& group_name(GroupId gid) const {
    CCAPERF_REQUIRE(gid < groups_.size(), "Registry: bad group id");
    return groups_[gid].name;
  }

  // --- event interface -------------------------------------------------------

  /// Records one sample of the named atomic event.
  void trigger(const std::string& event_name, double value);
  const std::map<std::string, AtomicEvent>& events() const { return events_; }

  // --- hardware counters -------------------------------------------------------

  hwc::CounterRegistry& counters() { return counters_; }
  const hwc::CounterRegistry& counters() const { return counters_; }

  // --- query interface ---------------------------------------------------------

  /// Cumulative inclusive time, *including* the partial elapsed time of
  /// currently-running activations (so mid-run queries are meaningful).
  double inclusive_us(TimerId id) const;
  /// Cumulative exclusive time with the running partial included.
  double exclusive_us(TimerId id) const;
  std::uint64_t calls(TimerId id) const { return stats_at(id).calls; }
  const TimerStats& stats_at(TimerId id) const {
    CCAPERF_REQUIRE(id < timers_.size(), "Registry: bad timer id");
    return timers_[id];
  }

  /// Sum of inclusive time over every timer in `group` (running partials
  /// included). Assumes group members do not nest within one another —
  /// true for the MPI wrappers, which is what the Mastermind queries.
  /// Maintained incrementally: O(stack depth), not O(#timers).
  double group_inclusive_us(std::string_view group) const;
  /// Same, by pre-interned id (the Mastermind hoists the lookup).
  double group_inclusive_us(GroupId gid) const;

  /// Full cumulative snapshot (rows for every timer, partials included).
  std::vector<TimerStats> snapshot() const;

  // --- change counting ---------------------------------------------------------
  // Timers carry a generation stamp, refreshed on every start/stop. A
  // consumer records generation() and later asks how many timers fired
  // since — the telemetry lines' `timers_changed` field.

  /// Current generation. Advances on the first timer activity after each
  /// timers_changed_since() call, so repeated idle queries are free.
  Generation generation() const { return gen_; }

  /// Number of timers that started or stopped at a generation >= `since`
  /// (`since` from generation(), so never 0: a never-run timer's stamp).
  std::size_t timers_changed_since(Generation since) const;

  // --- shard merging -----------------------------------------------------------
  // Per-thread registry shards (tau::RegistryShards, DESIGN.md §9) fold
  // their accumulated stats into the rank's primary registry at region
  // barriers. Folding is plain addition in a fixed order, so the merged
  // view is deterministic and the generation stamps see the absorbed
  // timers exactly as if they had fired here.

  /// Folds one completed-stats row into this registry: the timer is
  /// created on first sight (keeping the row's group), its calls and
  /// inclusive/exclusive sums are added, the per-group accumulator is
  /// advanced, and the timer is stamped so timers_changed_since/telemetry
  /// consumers see the merge. Rows with no activity are ignored.
  void absorb(const TimerStats& row);

  /// Folds another registry's atomic events into this one's
  /// (ccaperf::RunningStats::merge per event name).
  void absorb_events(const std::map<std::string, AtomicEvent>& events);

  /// Returns the rows with any accumulated activity and zeroes every
  /// timer's stats and every group accumulator (interned names and ids
  /// survive, so re-use after a drain stays allocation-free). The timer
  /// stack must be empty — shards are only drained between regions.
  std::vector<TimerStats> drain();

  /// Moves the atomic events out (the map is left empty).
  std::map<std::string, AtomicEvent> take_events();

 private:
  struct Frame {
    TimerId id;
    Clock::time_point start;
    double child_us = 0.0;  ///< time of enabled instrumented callees
    bool enabled = true;
    bool traced = false;  ///< an enter event is open for this frame
  };

  struct Group {
    std::string name;
    bool enabled = true;
    double inclusive_us = 0.0;  ///< completed outermost activations
  };

  double now_partial_inclusive(TimerId id) const;
  GroupId intern_group(std::string_view group);
  const Group* find_group(std::string_view group) const;
  void touch(TimerId id);

  std::vector<TimerStats> timers_;
  std::vector<std::uint64_t> active_depth_;  // per timer
  std::vector<GroupId> timer_group_;         // per timer
  std::vector<Generation> timer_gen_;        // per timer: last start/stop
  NameInterner timer_names_;                 // timer name -> TimerId
  std::vector<Group> groups_;
  std::vector<Frame> stack_;
  std::map<std::string, AtomicEvent> events_;
  hwc::CounterRegistry counters_;
  std::vector<std::uint64_t> counters_scratch_;  // trace_counter_samples()

  mutable Generation gen_ = 1;
  mutable bool gen_dirty_ = false;  ///< activity since the last timers_changed_since

  // --- tracing interface -------------------------------------------------------
  // "The TAU implementation of this generic performance component
  // interface supports both profiling and tracing measurement options"
  // (§4.1). When tracing is enabled every start/stop of an *enabled*
  // timer appends a compact event to a bounded ring (tau::TraceBuffer) —
  // plus message endpoints, counter samples and slice arguments pushed by
  // the hook adapter / Mastermind. Traces stay balanced at the edges:
  // enabling tracing emits synthetic enter events (at the epoch) for
  // activations already open, disabling it emits synthetic closing exits,
  // and dump_trace/snapshot_trace close activations still running.

 public:
  /// Enables/disables event tracing (disabled by default). Enabling resets
  /// the trace and its epoch and emits synthetic enter events for every
  /// enabled activation currently on the timer stack; disabling emits
  /// synthetic exits for those still open, keeping the buffer balanced.
  void set_tracing(bool enabled);
  bool tracing() const { return tracing_; }

  /// Like set_tracing(true), but with a caller-provided epoch: per-thread
  /// shard registries adopt the primary's epoch so their tracks line up
  /// on the same time axis when merged (core::TraceMerger).
  void set_tracing_from_epoch(Clock::time_point epoch);

  /// Bound of the trace ring in events; raises on 0. Resets the trace.
  void set_trace_capacity(std::size_t events);

  // --- trace tiers (governor actuation, DESIGN.md §12) -----------------------
  // Verbosity can be throttled without toggling tracing itself. One
  // registry-wide tier gates every record kind: slices, slice args,
  // messages and counter samples. A change that turns slices off or on
  // while frames are open emits balanced synthetic exits/enters, so the
  // stream never unbalances. Instants always record while tracing — the
  // governor's own audit marks must survive `off`. Defaults (`full`)
  // reproduce historical behavior exactly.

  /// Sets the trace tier. Crossing the `slices` boundary while tracing
  /// closes every open traced frame (innermost first) or re-opens every
  /// open enabled frame (outermost first), stamped now.
  void set_trace_tier(TraceTier t);
  TraceTier trace_tier() const { return trace_tier_; }

  const TraceBuffer& trace() const { return trace_; }
  /// Steady-clock instant of trace time 0 (cross-rank merge alignment).
  Clock::time_point trace_epoch() const { return trace_epoch_; }

  /// Appends a message endpoint event (kind msg_send / msg_recv). `peer`
  /// is the other endpoint's world rank, `seq` the fabric's per-(src,dst)
  /// sequence number. No-op unless tracing; below the `full` tier the
  /// endpoint is skipped and counted in trace_messages_suppressed().
  void trace_message(bool send, int peer, int tag, std::uint64_t bytes,
                     std::uint64_t seq);
  /// Message endpoints skipped by a coarser trace tier since tracing was
  /// last enabled. Ranks change tier at different instants, so a
  /// suppressed endpoint can leave its peer's endpoint unmatched.
  std::uint64_t trace_messages_suppressed() const { return trace_msgs_suppressed_; }

  /// Samples every registered hardware counter into the trace (one counter
  /// record each, id = counter index). No-op unless tracing.
  void trace_counter_samples();

  /// Interns an auxiliary trace string (slice-argument names, instant
  /// labels); returns its stable index. Safe to call when not tracing.
  /// Hashed through the shared tau::NameInterner, so a label can be
  /// re-resolved every emission without an O(strings) scan.
  std::uint32_t trace_string(std::string_view s) { return trace_strings_.intern(s); }
  const std::vector<std::string>& trace_strings() const {
    return trace_strings_.names();
  }

  /// Attaches (name, value) as the slice argument of the most recent enter
  /// event (e.g. the monitored method's Q). No-op unless that event is
  /// still in the buffer.
  void trace_arg(std::uint32_t name_string, double value);

  /// Appends an instant annotation (id = trace-string index).
  void trace_instant(std::uint32_t name_string);

  /// Copy of the retained events plus synthetic closing exits for
  /// activations still open — always balanced, ready for export.
  std::vector<TraceRecord> snapshot_trace() const;

  /// Writes the trace as tab-separated lines (`t_us<TAB>kind<TAB>...`),
  /// unambiguous for timer names containing spaces, with synthetic closing
  /// exits appended for activations still open.
  void dump_trace(std::ostream& os) const;

 private:
  void trace_push_open_frames(bool as_exit, double t_us);

  bool tracing_ = false;
  TraceTier trace_tier_ = TraceTier::full;
  bool slices_ok_ = true;  ///< cached `trace_tier_ <= slices` for the hot path
  std::uint64_t trace_msgs_suppressed_ = 0;
  Clock::time_point trace_epoch_{};
  TraceBuffer trace_;
  NameInterner trace_strings_;
};

/// RAII start/stop.
class ScopedTimer {
 public:
  ScopedTimer(Registry& reg, TimerId id) : reg_(reg), id_(id) { reg_.start(id_); }
  ~ScopedTimer() { reg_.stop(id_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Registry& reg_;
  TimerId id_;
};

}  // namespace tau
