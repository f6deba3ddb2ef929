#pragma once
// core::TelemetryHub — a long-running in-process multi-tenant telemetry
// service (DESIGN.md §14).
//
// Everything before this subsystem was single-tenant: one app, one
// Mastermind, one telemetry sink, one process lifetime. The hub turns the
// same measurement stack into a *service*: many concurrent sessions (each
// an independent instrumented app run — fig01 AMR at some (ranks, threads,
// fault plan), or the HPL-style dense-LU workload) register with
// open_session() and publish their telemetry JSONL through isolated
// handles into one shared, bounded store.
//
// Architecture:
//
//   session rank threads ──publish──▶ shard rings ──drainer──▶ retained
//                                     (per-shard     (one        per-session
//                                      mutex, MPSC    ServiceThread) line deques,
//                                      ring, drop                  bounded total
//                                      accounting)                 memory)
//
//  * Sessions intern their names through a tau::NameInterner (the same
//    open-addressing pattern the Registry's timer table uses), so a
//    reopened session name maps to the same dense SessionId; an
//    incarnation counter distinguishes lives so stale ring items from a
//    previous life are discarded, never misattributed.
//  * publish() is the producers' fast path: lock one shard mutex, append
//    to that shard's ring (or bump the session's dropped_ring counter if
//    the ring is full), nudge the drainer past the high-water mark.
//    Sessions map to shards by id, so one session's lines live in one
//    ring and per-session FIFO order survives the trip.
//  * The drainer thread sweeps all shards each tick, moves items into
//    per-session retained deques, stamps a global sequence, and enforces
//    the two memory bounds: a per-session line cap (oldest lines of that
//    session fall off) and a hub-wide byte budget (globally-oldest
//    retained lines fall off first, whoever owns them). Every dropped
//    line is accounted to its session — nothing vanishes silently.
//  * Aggregate telemetry: the hub itself emits a JSONL line per
//    aggregate interval (sessions/sec, rows/sec, drops, retained/peak
//    bytes, per-scenario session counts and overhead_pct statistics
//    scraped from the sessions' own lines).
//  * Per-session Perfetto export: sessions hand their RankTraces to the
//    handle; export_session_trace() merges them with the existing
//    TraceMerger.
//
// Identity guarantee: the hub transports and stores lines verbatim — it
// never rewrites, reorders (within a session), or merges them, so a
// session's drained stream is byte-identical to the same app writing to a
// private ostream, which is what the soak harness and the HubProperty
// tests gate on.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace_export.hpp"
#include "support/service_thread.hpp"
#include "tau/interner.hpp"

namespace core {

class TelemetryHub;

/// Dense hub-wide session identity (interned from the session name).
using SessionId = std::uint32_t;
inline constexpr SessionId kInvalidSession = 0xffffffffu;

/// One retained telemetry line, in drain order.
struct SessionLine {
  std::uint64_t seq = 0;  ///< hub-global drain sequence (monotone)
  std::string text;       ///< verbatim JSONL line, no trailing newline
};

/// Per-session accounting, all monotone over a session's lifetime.
struct SessionStats {
  std::uint64_t published = 0;       ///< lines accepted into a shard ring
  std::uint64_t drained = 0;         ///< lines moved into the retained deque
  std::uint64_t dropped_ring = 0;    ///< rejected at publish (ring full)
  std::uint64_t dropped_evicted = 0; ///< drained, later evicted by a bound
  std::uint64_t retained = 0;        ///< currently queryable lines
  std::uint64_t retained_bytes = 0;
  bool open = false;
};

/// Hub-wide counters for the aggregate stream and the soak gates.
struct HubStats {
  std::uint64_t sessions_opened = 0;
  std::uint64_t sessions_closed = 0;
  std::uint64_t sessions_open = 0;
  std::uint64_t published = 0;
  std::uint64_t drained = 0;
  std::uint64_t dropped_ring = 0;
  std::uint64_t dropped_evicted = 0;
  std::uint64_t bytes_retained = 0;
  std::uint64_t bytes_peak = 0;   ///< high-water mark of bytes_retained
  std::uint64_t drain_ticks = 0;
  std::uint64_t aggregate_lines = 0;
};

/// A session's handle on the hub: move-only RAII (close() on destruction).
/// The handle is the only way to publish — sessions never see the hub's
/// shards or each other.
class SessionHandle {
 public:
  SessionHandle() = default;
  SessionHandle(SessionHandle&& o) noexcept { *this = std::move(o); }
  SessionHandle& operator=(SessionHandle&& o) noexcept;
  SessionHandle(const SessionHandle&) = delete;
  SessionHandle& operator=(const SessionHandle&) = delete;
  ~SessionHandle() { close(); }

  bool valid() const { return hub_ != nullptr; }
  SessionId id() const { return id_; }
  const std::string& name() const { return name_; }
  const std::string& scenario() const { return scenario_; }

  /// The session's default telemetry sink — an ostream whose lines are
  /// published into the hub (split on '\n', each line one publish). Feed
  /// it to TelemetryPort::start_telemetry(). Lazily created; lives until
  /// close().
  std::ostream& sink();

  /// An additional publishing ostream for the same session — concurrent
  /// producers (per-rank Mastermind instances) each take their own so
  /// line buffering never interleaves partial lines. The handle keeps
  /// ownership; all sinks flush on close().
  std::ostream& make_sink();

  /// Publishes one complete line directly (no buffering).
  void publish(std::string_view line);

  /// Registers one rank's trace for later export_session_trace().
  void add_trace(RankTrace trace);

  /// Flushes sinks, publishes any unterminated tail, and closes the
  /// session in the hub (final drain included). Idempotent.
  void close();

 private:
  friend class TelemetryHub;
  SessionHandle(TelemetryHub* hub, SessionId id, std::uint32_t incarnation,
                std::string name, std::string scenario)
      : hub_(hub), id_(id), incarnation_(incarnation),
        name_(std::move(name)), scenario_(std::move(scenario)) {}

  TelemetryHub* hub_ = nullptr;
  SessionId id_ = kInvalidSession;
  std::uint32_t incarnation_ = 0;
  std::string name_;
  std::string scenario_;
  std::mutex sinks_mu_;  ///< guards sinks_ growth (make_sink from rank threads)
  std::vector<std::unique_ptr<std::ostream>> sinks_;
};

class TelemetryHub {
 public:
  struct Config {
    std::size_t shards = 8;              ///< rounded up to a power of two
    std::size_t shard_capacity = 1024;   ///< ring slots per shard
    std::size_t memory_budget_bytes = 8u << 20;  ///< retained-line bound
    std::size_t session_line_cap = 4096; ///< retained lines per session
    std::chrono::microseconds drain_interval{2000};
    std::chrono::microseconds aggregate_interval{0};  ///< 0 = every drain tick
  };

  TelemetryHub();  ///< default Config
  explicit TelemetryHub(Config cfg);
  /// Stops the drainer (final drain included) and emits a last aggregate
  /// line if an aggregate sink is attached. Outstanding SessionHandles
  /// must not outlive the hub.
  ~TelemetryHub();
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Registers (or revives) a session. Names intern to stable SessionIds;
  /// reopening a name reuses its id with a fresh incarnation and resets
  /// the retained stream. `scenario` labels the aggregate breakdown
  /// (e.g. "amr", "lu"); `fault_plan` is recorded for the session query
  /// surface (the session itself applies it via mpp::RunOptions).
  SessionHandle open_session(std::string name, std::string scenario,
                             std::string fault_plan = "");

  /// Live aggregate JSONL sink (borrowed; null to detach). One line per
  /// aggregate interval while attached.
  void set_aggregate_sink(std::ostream* os);

  /// Runs a synchronous drain cycle on the caller (same exclusion as the
  /// drainer's tick). Tests and close paths use this to make "everything
  /// published is drained or accounted" hold at a point they choose.
  void drain_now();

  /// Blocks every drain cycle (the drainer's tick and drain_now() alike)
  /// while the returned lock is held — publishes keep landing in the
  /// shard rings but nothing moves to the retained store. Tests hold
  /// this to make ring-full rejection deterministic: without it a
  /// high-water nudge can wake the drainer mid-burst.
  std::unique_lock<std::mutex> pause_draining() {
    return std::unique_lock<std::mutex>(drain_mu_);
  }

  // --- session-scoped queries (any thread) ---------------------------------
  /// Retained lines of one session, in drain order.
  std::vector<SessionLine> session_lines(SessionId id) const;
  /// Retained lines joined with '\n' (one trailing newline) — the
  /// byte-identity comparand against a solo run's ostream contents.
  std::string session_text(SessionId id) const;
  SessionStats session_stats(SessionId id) const;
  /// Dense id for a name, or kInvalidSession.
  SessionId find_session(std::string_view name) const;
  std::string session_fault_plan(SessionId id) const;

  /// Merged Chrome-trace JSON of the session's registered RankTraces.
  MergeStats export_session_trace(SessionId id, std::ostream& os) const;

  HubStats stats() const;
  const Config& config() const { return cfg_; }

  /// Writes one aggregate JSONL line now (also called on the aggregate
  /// cadence by the drainer).
  void emit_aggregate(std::ostream& os);

 private:
  friend class SessionHandle;
  friend class HubSinkBuf;

  struct ShardItem {
    SessionId session = kInvalidSession;
    std::uint32_t incarnation = 0;
    std::string text;
  };
  /// (session, incarnation) — tallies are per life so a reopened name
  /// never inherits counts from items published by its previous life.
  using SessionKey = std::pair<SessionId, std::uint32_t>;
  struct ShardTally {
    std::uint64_t accepted = 0;  ///< entered the ring
    std::uint64_t dropped = 0;   ///< rejected, ring full
  };
  struct Shard {
    mutable std::mutex mu;
    std::vector<ShardItem> ring;  ///< fixed capacity, head/count window
    std::size_t head = 0;
    std::size_t count = 0;
    /// Publish-side per-session counters, folded into Session state at
    /// drain — producers only ever touch shard state, never state_mu_.
    std::map<SessionKey, ShardTally> tally;
  };

  struct Session {
    std::string name;
    std::string scenario;
    std::string fault_plan;
    std::uint32_t incarnation = 0;
    bool open = false;
    std::deque<SessionLine> lines;   ///< retained, drain order
    std::uint64_t bytes = 0;
    std::uint64_t published = 0;     ///< accepted into a ring (atomic mirror)
    std::uint64_t drained = 0;
    std::uint64_t dropped_ring = 0;
    std::uint64_t dropped_evicted = 0;
    std::vector<RankTrace> traces;
    // Scenario aggregate scrape state: overhead_pct sum/count this interval.
    double agg_overhead_sum = 0.0;
    std::uint64_t agg_overhead_n = 0;
  };

  void publish(SessionId id, std::uint32_t incarnation, std::string line);
  void close_session(SessionId id, std::uint32_t incarnation);
  void add_trace(SessionId id, std::uint32_t incarnation, RankTrace trace);
  void drain_cycle();
  /// Moves ring items into retained deques. Caller holds drain_mu_.
  void drain_shards_locked();
  /// Enforces the per-session cap and the global byte budget. Caller
  /// holds state_mu_.
  void enforce_bounds_unlocked();
  void evict_front_unlocked(Session& s);
  void emit_aggregate_unlocked(std::ostream& os);
  Shard& shard_for(SessionId id) { return *shards_[id & shard_mask_]; }

  Config cfg_;
  std::size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  // Publish-side counters that must not take state_mu_ (producers only
  // ever touch their shard mutex + these).
  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> dropped_ring_{0};

  mutable std::mutex state_mu_;  ///< sessions_, interner, retained bytes
  tau::NameInterner names_;      ///< session name -> dense SessionId
  std::deque<Session> sessions_; ///< index = SessionId (deque: stable refs)
  std::uint64_t bytes_retained_ = 0;
  std::uint64_t bytes_peak_ = 0;
  std::uint64_t dropped_evicted_total_ = 0;
  std::uint64_t drained_total_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t sessions_closed_ = 0;
  std::uint64_t drain_ticks_ = 0;
  std::ostream* aggregate_sink_ = nullptr;
  std::uint64_t aggregate_lines_ = 0;
  // Aggregate interval deltas (rates are per aggregate interval).
  std::chrono::steady_clock::time_point agg_epoch_;
  std::chrono::steady_clock::time_point agg_last_;
  std::uint64_t agg_last_drained_ = 0;
  std::uint64_t agg_last_opened_ = 0;

  std::mutex drain_mu_;  ///< serializes drain cycles (drainer vs drain_now)
  std::chrono::steady_clock::time_point agg_due_;
  std::unique_ptr<ccaperf::ServiceThread> drainer_;  ///< last member: stops first
};

/// An ostream that buffers until '\n' and publishes each complete line
/// into the hub under the owning session's identity. One per producer
/// thread (SessionHandle::sink()/make_sink() hand these out).
class HubSinkBuf : public std::streambuf {
 public:
  HubSinkBuf(TelemetryHub* hub, SessionId id, std::uint32_t incarnation)
      : hub_(hub), id_(id), incarnation_(incarnation) {}
  ~HubSinkBuf() override { flush_tail(); }

  /// Publishes a non-empty unterminated tail as its own line.
  void flush_tail();

 protected:
  int_type overflow(int_type ch) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void accept(const char* s, std::size_t n);

  TelemetryHub* hub_;
  SessionId id_;
  std::uint32_t incarnation_;
  std::string pending_;
};

}  // namespace core
