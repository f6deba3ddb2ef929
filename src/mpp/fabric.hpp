#pragma once
// The Fabric is the shared-memory "interconnect" behind mpp::Comm.
//
// Design (see DESIGN.md, src/mpp):
//  * Ranks are threads. Each communicator context owns one `Mailbox` per
//    rank, holding a queue of posted receives and a queue of
//    unexpected messages (standard MPI matching structure).
//  * Every point-to-point message enters through `Fabric::send` and is
//    delivered by `route`, the one place a message meets the posted
//    receives: a clean message borrows the sender's buffer and is copied
//    once, into the matching posted receive or, if none is posted, into a
//    slab from the fabric's BufferPool parked in the unexpected queue (the
//    matching receive returns the slab, so steady-state traffic allocates
//    nothing). Under a fault plan every message is staged first, since
//    it may outlive the send call in the fault layer. A modeled delivery
//    time is stamped (NetworkModel) on send.
//  * Sends below kRendezvousBytes complete at the send call. Larger sends
//    are staged the same way but acknowledged at match: the send request
//    stays incomplete until a receive takes the message, and dropping its
//    handle de-parks it.
//  * Receive requests (and ack-at-match sends) complete when (a) matched
//    and (b) the modeled delivery time has passed; waits sleep until
//    then, which is how network cost becomes visible wall-clock time in
//    profiles.
//  * Matching preserves MPI's non-overtaking order per (source, tag).
//  * Collectives run over per-(context, rank) `HopSlot` relays: O(log n)
//    tree algorithms (dissemination barrier, binomial reduce + bcast for
//    allreduce and dup; DESIGN.md §10). One modeled delay is applied per
//    rank on exit from every collective call.
//
// The Fabric is internal; user code talks to mpp::Comm / mpp::Runtime.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "mpp/fault.hpp"
#include "mpp/netmodel.hpp"
#include "support/rng.hpp"

namespace mpp {

class Fabric;
struct FaultEvent;  // hooks.hpp

/// Wildcards (match MPI semantics).
inline constexpr int any_source = -1;
inline constexpr int any_tag = -1;

/// Completion information for a receive.
struct Status {
  int source = any_source;      ///< rank of the sender
  int tag = any_tag;            ///< message tag
  std::size_t bytes = 0;        ///< payload size in bytes
};

using Clock = std::chrono::steady_clock;

namespace detail {

class Mailbox;

/// Shared state behind a Request handle.
struct ReqState {
  enum class Kind { send, recv };
  Kind kind = Kind::send;
  /// Set (release) once the message is matched and copied. Eager sends
  /// set it before the request is returned, ack-at-match sends at match.
  std::atomic<bool> matched{false};
  /// Delivery time; completion is gated on Clock::now() >= deliver_at.
  Clock::time_point deliver_at{};
  Status status;
  /// Message identity for hook/trace reporting: world ranks of the two
  /// endpoints and the per-(src,dst) sequence number. Stamped by the
  /// sender before `matched` is released; src_world < 0 means "no message
  /// attached yet" (e.g. an unmatched receive).
  int src_world = -1;
  int dst_world = -1;
  std::uint64_t seq = 0;
  /// Identity of the posted receive inside its mailbox (for cancellation).
  std::uint64_t post_id = 0;
  Mailbox* mailbox = nullptr;           ///< mailbox the recv was posted to
  class RankSignal* signal = nullptr;   ///< wakeup channel of the owning rank
  const std::atomic<bool>* abort_flag = nullptr;  ///< fabric-wide failure flag
  Fabric* fabric = nullptr;             ///< owning fabric (wait-loop polling)
  /// Nonzero when the operation failed permanently: 1 + CommErrc value.
  /// Set (release) before the owner's signal is notified.
  std::atomic<std::uint8_t> failed{0};

  bool aborted() const {
    return abort_flag && abort_flag->load(std::memory_order_acquire);
  }

  /// True when the request is complete *now*.
  bool ready() const {
    return matched.load(std::memory_order_acquire) && Clock::now() >= deliver_at;
  }
};

/// A message parked in the unexpected queue (or held by the fault layer).
/// Its payload is a pooled copy of the sender's data; `ack` is set for
/// ack-at-match sends, whose request completes only when a receive takes
/// the message. Messages queue in send order, so matching stays
/// non-overtaking per (source, tag) regardless of message size.
struct ParkedMessage {
  int src = 0;
  int tag = 0;
  std::vector<std::byte> payload;
  Clock::time_point deliver_at{};
  int src_world = -1;         ///< message identity (see ReqState)
  int dst_world = -1;
  std::uint64_t seq = 0;
  /// Dedupe stream position (1-based, contiguous per (context, source,
  /// destination mailbox)); 0 on the clean path. Injected duplicates and
  /// retries carry the original's value, which is how the DedupeWindow
  /// recognizes them.
  std::uint64_t dseq = 0;
  std::shared_ptr<ReqState> ack;  ///< sender completed at match (ack-at-match)
  std::uint64_t park_id = 0;      ///< cancellation identity (ack-at-match only)
};

/// Size-classed free list of message payload slabs (pow2 classes, 64 B up
/// to kRendezvousBytes; larger slabs are allocated per park and freed on
/// release). Thread-safe; a leaf lock — never held while taking another
/// fabric lock.
class BufferPool {
 public:
  struct Stats {
    std::uint64_t acquires = 0;  ///< total acquire() calls
    std::uint64_t reuses = 0;    ///< acquires served from a free list
    std::uint64_t releases = 0;  ///< slabs handed back
    std::uint64_t discards = 0;  ///< handed-back slabs dropped (no class/full)
  };

  /// Returns a slab resized to exactly `bytes` (capacity may be larger).
  std::vector<std::byte> acquire(std::size_t bytes);
  /// Hands a slab back for reuse (freed if it fits no class or the class
  /// free list is full).
  void release(std::vector<std::byte>&& slab);
  Stats stats() const;

 private:
  static constexpr std::size_t kMinClassLog2 = 6;   // 64 B
  static constexpr std::size_t kMaxClassLog2 = 16;  // 64 KiB: ack-at-match cutoff
  static constexpr std::size_t kClasses = kMaxClassLog2 - kMinClassLog2 + 1;
  static constexpr std::size_t kMaxFreePerClass = 64;

  static int acquire_class(std::size_t bytes);     // smallest class holding bytes
  static int release_class(std::size_t capacity);  // largest class within capacity

  mutable std::mutex mu_;
  std::vector<std::vector<std::byte>> free_[kClasses];
  Stats stats_;
};

/// True when a receive for (want_src, want_tag), wildcards allowed,
/// takes a message from `src` tagged `tag`.
inline bool matches(int want_src, int want_tag, int src, int tag) {
  return (want_src == any_source || want_src == src) &&
         (want_tag == any_tag || want_tag == tag);
}

/// A receive posted before its message arrived.
struct PostedRecv {
  int src = any_source;
  int tag = any_tag;
  std::byte* buffer = nullptr;
  std::size_t capacity = 0;
  std::uint64_t post_id = 0;
  std::shared_ptr<ReqState> state;
};

/// Per-rank wakeup channel: every completion that might unblock rank r
/// notifies r's signal. Waits (wait/wait_all/wait_some) block here.
class RankSignal {
 public:
  std::mutex mu;
  std::condition_variable cv;
  void notify() {
    std::scoped_lock lock(mu);
    cv.notify_all();
  }
};

/// Per-source duplicate filter with O(1) membership and bounded memory: a
/// watermark (every dedupe sequence number <= it has been accepted) plus a
/// bitset window covering the out-of-order span just above it. Replaces the
/// per-pair std::set of every delivered sequence number, whose memory and
/// lookup cost grew with total message history instead of in-flight faults.
class DedupeWindow {
 public:
  /// Hard cap on the out-of-order span. Reaching it would mean a source
  /// raced 64Ki sends past a still-undelivered message, which the bounded
  /// retry ledger (exponential backoff, capped attempts) cannot produce.
  static constexpr std::uint64_t kMaxWindowBits = std::uint64_t{1} << 16;

  /// True when `seq` (1-based, contiguous per source) was already accepted.
  bool contains(std::uint64_t seq) const {
    if (seq <= watermark_) return true;
    const std::uint64_t off = seq - watermark_ - 1;
    return off < span() && bit(off);
  }

  /// Accepts `seq` and advances the watermark over the now-contiguous
  /// prefix. Returns false when `seq` was already present (a duplicate).
  bool insert(std::uint64_t seq);

  std::uint64_t watermark() const { return watermark_; }
  /// Bits currently spanned beyond the watermark (memory ~ span/8 bytes).
  std::uint64_t span() const {
    return static_cast<std::uint64_t>(words_.size()) * 64 - head_;
  }
  /// Widest out-of-order extent retained after any insert (zero for a
  /// fully in-order stream) — the bounded-memory witness.
  std::uint64_t peak_span() const { return peak_span_; }

 private:
  bool bit(std::uint64_t off) const {
    const std::uint64_t g = head_ + off;
    return (words_[static_cast<std::size_t>(g / 64)] >> (g % 64)) & 1u;
  }

  std::uint64_t watermark_ = 0;
  std::uint64_t head_ = 0;  ///< bit offset of watermark_+1 inside words_[0]
  std::deque<std::uint64_t> words_;
  std::uint64_t peak_span_ = 0;
};

/// Matching queues for one (context, rank).
class Mailbox {
 public:
  std::mutex mu;
  std::deque<ParkedMessage> unexpected;
  std::deque<PostedRecv> posted;
  std::uint64_t next_post_id = 1;
  /// Duplicate filters, one per sender, maintained only while a FaultPlan
  /// is active. Keyed by the per-(context, source, this-mailbox) dedupe
  /// stream (`dedupe_next`, assigned at send time): the global pair
  /// sequence is shared by every context of a rank pair, so only this
  /// stream is contiguous here — which is what lets a watermark replace
  /// the delivered-set.
  std::map<int, DedupeWindow> dedupe;
  std::map<int, std::uint64_t> dedupe_next;
};

/// A message captured by the fault layer: either held for later release
/// (delay/duplicate/reorder) or sitting in the retransmission ledger after
/// a drop. Routing metadata is kept alongside so `Fabric::fault_poll` can
/// re-inject it without a Comm.
struct FaultedMessage {
  std::uint64_t context = 0;
  int dest = 0;
  ParkedMessage msg;
  std::uint64_t release_step = 0;  ///< held: release once progress reaches this
  bool release_on_next = false;    ///< reorder: release when the pair's next message routes
  std::uint32_t attempt = 0;       ///< ledger: delivery attempts so far (>= 1)
};

/// Per-(context, rank) relay slot for collectives. Peers deposit
/// per-round payloads here, keyed by (generation, round): every rank
/// executes the same collective sequence on a context, so the owner's
/// generation counter and each sender's counter agree without shared
/// state. Deposits never block (the map buffers early arrivals); receives
/// wait on `cv`.
struct HopSlot {
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::pair<std::uint64_t, int>, std::vector<std::byte>> arrived;
  /// Collective calls the owning rank has entered on this context; touched
  /// only by the owner's thread (no lock needed).
  std::uint64_t generation = 0;
};

}  // namespace detail

/// The interconnect. One Fabric per Runtime::run invocation.
class Fabric {
 public:
  Fabric(int world_size, NetworkModel net);

  int world_size() const { return world_size_; }
  const NetworkModel& net() const { return net_; }

  double wtime_seconds() const {
    return std::chrono::duration<double>(Clock::now() - epoch_).count();
  }

  /// Modeled delay for `bytes` charged to sending world-rank `world_rank`.
  double delay_us(int world_rank, std::size_t bytes) {
    if (net_.is_null()) return 0.0;
    return net_.delay_us(bytes, rngs_[static_cast<std::size_t>(world_rank)]);
  }

  /// The one point-to-point send entry. In order: fault-layer progress
  /// and a stall probe (fault plan active only), the modeled delay draw,
  /// the message identity stamped on `sender` (world ranks and the
  /// per-(src,dst) sequence number), then `route` (clean) or the fault
  /// plan's decision. Sends below kRendezvousBytes complete here; larger
  /// ones when a receive takes them. `data` is read only during the call.
  void send(std::uint64_t context, int src, int dest, int tag,
            const void* data, std::size_t bytes,
            const std::shared_ptr<detail::ReqState>& sender);

  /// Reserves a fresh context id (thread-safe).
  std::uint64_t allocate_context() {
    return next_context_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Ensures mailboxes and hop slots exist for `context`, one per rank.
  /// Idempotent; thread-safe.
  void ensure_context(std::uint64_t context);

  detail::Mailbox& mailbox(std::uint64_t context, int rank);
  /// The hop slots of `context`, indexed by rank. The array lives as
  /// long as the fabric and never moves once the context exists.
  const std::unique_ptr<detail::HopSlot>* hop_slots(std::uint64_t context);
  detail::BufferPool& pool() { return pool_; }
  detail::RankSignal& signal(int world_rank) {
    return *signals_[static_cast<std::size_t>(world_rank)];
  }

  /// Marks the fabric dead and wakes every blocked wait/collective so rank
  /// failures propagate instead of deadlocking the remaining ranks.
  void abort();
  bool is_aborted() const { return aborted_.load(std::memory_order_acquire); }
  const std::atomic<bool>* abort_flag() const { return &aborted_; }

  // --- fault injection & recovery (see fault.hpp, DESIGN.md §8) ----------

  /// Installs a fault schedule. Call before rank threads start (the
  /// Runtime does this); not thread-safe against in-flight traffic.
  void set_fault_spec(const FaultSpec& spec);
  const FaultPlan& fault_plan() const { return fault_plan_; }
  bool faults_active() const { return fault_plan_.active(); }

  /// Wait timeout / no-progress bound, microseconds; 0 disables. Set
  /// before rank threads start. The no-progress bound defaults on so a
  /// wait for a message that never comes fails instead of hanging forever.
  void set_wait_timeout_us(double us) { wait_timeout_us_ = us; }
  double wait_timeout_us() const { return wait_timeout_us_; }
  void set_idle_limit_us(double us) { idle_limit_us_ = us; }
  double idle_limit_us() const { return idle_limit_us_; }
  static constexpr double kDefaultIdleLimitUs = 60e6;

  /// Monotone "anything moved" counter: bumped whenever a message is
  /// routed, matched, or parked anywhere in the fabric. Wait loops watch it
  /// for the no-progress bound.
  std::uint64_t activity() const { return activity_.load(std::memory_order_acquire); }
  void note_activity() { activity_.fetch_add(1, std::memory_order_release); }

  /// Fault-layer progress driver: advances the global step counter, routes
  /// held messages whose release step arrived, and retransmits ledger
  /// entries whose backoff expired. Called from wait quanta, test(), and
  /// sends; no-op when no plan is active. Never call while holding a
  /// signal or mailbox lock.
  void fault_poll();
  std::uint64_t progress_step() const {
    return progress_step_.load(std::memory_order_acquire);
  }

  /// Snapshot of fault/recovery counters plus delivery-state gauges (the
  /// dedupe fields walk the mailboxes, so this is a test/report call, not
  /// a hot-path one).
  FaultStats fault_stats();
  /// Recovery accounting fed from Comm / amr: wait timeouts and stale-ghost
  /// fallbacks (the events themselves are fired by the caller's hooks).
  void count_timeout() { timeouts_.fetch_add(1, std::memory_order_relaxed); }
  void count_stale_fallback() {
    stale_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Context id of the world communicator.
  static constexpr std::uint64_t world_context = 0;

  /// Sends of at least this many bytes are acknowledged at match: the send
  /// request completes when a receive takes the message (and fails if
  /// the fault layer exhausts its retries), not at the send call.
  static constexpr std::size_t kRendezvousBytes = 64 * 1024;

 private:
  struct ContextState {
    std::vector<std::unique_ptr<detail::Mailbox>> mailboxes;
    std::vector<std::unique_ptr<detail::HopSlot>> hop_slots;
  };

  /// Next per-(src,dst) point-to-point sequence number (1-based, send
  /// order). Ranks are single threads, so sends for a given ordered pair
  /// are already serialized; the atomic makes cross-pair access safe.
  std::uint64_t next_pair_seq(int src_world, int dst_world) {
    auto& c = pair_seq_[static_cast<std::size_t>(src_world) *
                            static_cast<std::size_t>(world_size_) +
                        static_cast<std::size_t>(dst_world)];
    return c.fetch_add(1, std::memory_order_relaxed) + 1;
  }
  /// Per-send stall probe: deterministically stalls the calling rank for
  /// spec().stall_us when the plan says so.
  void maybe_stall(int world_rank);
  /// Match-or-park, the only code that matches a message against the
  /// posted receives: dedupe filter (fault-layer messages), then copy into
  /// the first matching posted receive, else park a pooled copy in the
  /// unexpected queue. `borrowed`, when non-empty, is a clean message's
  /// payload still in the sender's buffer (`msg.payload` is empty then).
  /// An `ack` sender completes at match, at the message's deliver_at.
  void route(std::uint64_t context, int dest, detail::ParkedMessage&& msg,
             std::span<const std::byte> borrowed = {});
  /// Applies the plan's first-attempt decision to a staged message:
  /// route, drop into the retry ledger, hold, duplicate or reorder.
  void fault_send(std::uint64_t context, int dest, detail::ParkedMessage&& msg);
  /// Holds `msg` for `steps` progress steps (delay/duplicate), or until the
  /// pair's next message routes (reorder).
  void fault_hold(std::uint64_t context, int dest,
                  detail::ParkedMessage&& msg, int steps, bool release_on_next);
  /// Drops `msg` into the retransmission ledger (first attempt already
  /// counted as injected).
  void fault_lose(std::uint64_t context, int dest,
                  detail::ParkedMessage&& msg);
  /// Releases reorder-held messages of (src, dst) after a later message of
  /// that pair routed.
  void flush_reorder(int src_world, int dst_world);
  /// Files a captured message into the in-flight store and its indexes.
  void fault_enqueue(detail::FaultedMessage&& fm);
  /// Records an accepted dedupe-stream position (watermark/window update)
  /// for `src_world` in the given mailbox; caller holds no mailbox lock.
  void dedupe_tombstone(std::uint64_t context, int dest, int src_world,
                        std::uint64_t dseq);
  /// Fires a fault event on the calling rank's hooks (if any).
  static void fire_fault(const FaultEvent& e);

  int world_size_;
  NetworkModel net_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<ccaperf::Rng> rngs_;  // one jitter stream per world rank
  std::vector<std::unique_ptr<detail::RankSignal>> signals_;
  /// world_size^2 ordered-pair message counters (row = src, col = dst).
  std::unique_ptr<std::atomic<std::uint64_t>[]> pair_seq_;

  detail::BufferPool pool_;
  std::mutex contexts_mu_;
  std::map<std::uint64_t, ContextState> contexts_;
  std::atomic<std::uint64_t> next_context_{1};
  std::atomic<bool> aborted_{false};

  // Fault layer. `fault_mu_` is a leaf lock guarding the in-flight fault
  // store and its two indexes; it is never held while taking a mailbox or
  // signal lock (entries are moved out first, then routed).
  //
  // Every captured message (held *or* ledgered) lives once in
  // `fault_items_` under a monotone id. `fault_due_` indexes ids by
  // release step so a progress poll pops exactly the due prefix —
  // O(due + log size) — instead of scanning every in-flight entry.
  // `fault_reorder_` indexes reorder-held ids by (src, dst) world-rank
  // pair so the routing of the pair's next message releases predecessors
  // without a scan. An id can sit in both indexes (reorder entries keep a
  // step fallback); whichever trigger fires first wins, and the loser's
  // stale index entry is skipped because the id is gone from the store.
  FaultPlan fault_plan_;
  double wait_timeout_us_ = 0.0;
  double idle_limit_us_ = kDefaultIdleLimitUs;
  std::atomic<std::uint64_t> progress_step_{0};
  std::atomic<std::uint64_t> activity_{0};
  std::mutex fault_mu_;
  std::uint64_t next_fault_id_ = 1;
  std::map<std::uint64_t, detail::FaultedMessage> fault_items_;
  std::multimap<std::uint64_t, std::uint64_t> fault_due_;
  std::map<std::pair<int, int>, std::deque<std::uint64_t>> fault_reorder_;
  std::uint64_t fault_items_peak_ = 0;
  std::unique_ptr<std::atomic<std::uint64_t>[]> stall_checks_;
  std::atomic<std::uint64_t> injected_drops_{0};
  std::atomic<std::uint64_t> injected_delays_{0};
  std::atomic<std::uint64_t> injected_duplicates_{0};
  std::atomic<std::uint64_t> injected_reorders_{0};
  std::atomic<std::uint64_t> injected_stalls_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retries_exhausted_{0};
  std::atomic<std::uint64_t> duplicates_suppressed_{0};
  std::atomic<std::uint64_t> dedupe_span_peak_{0};
  std::atomic<std::uint64_t> timeouts_{0};
  std::atomic<std::uint64_t> stale_fallbacks_{0};
};

}  // namespace mpp
