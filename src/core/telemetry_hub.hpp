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
//   session rank threads ──publish──▶ retained per-session line deques
//                                     (one state mutex, bounded total
//                                      memory, exact eviction accounting)
//
//  * Sessions intern their names through a tau::NameInterner (the same
//    open-addressing pattern the Registry's timer table uses), so a
//    reopened session name maps to the same dense SessionId; an
//    incarnation counter distinguishes lives so a stale line from a
//    previous life is discarded, never misattributed.
//  * publish() does the whole job on the producer, under the hub's one
//    state mutex: it stamps a global sequence, appends the line to its
//    session's retained deque, and enforces the two memory bounds: a
//    per-session line cap (oldest lines of that session fall off) and a
//    hub-wide byte budget (globally-oldest retained lines fall off
//    first, whoever owns them). Every evicted line is accounted to its
//    session, so retained == published - dropped_evicted at every
//    instant — nothing vanishes silently.
//  * Aggregate telemetry: emit_aggregate() writes one JSONL line
//    (sessions/sec, rows/sec, evictions, retained/peak bytes,
//    per-scenario session counts and overhead_pct statistics scraped
//    from the sessions' own lines) whenever the hub's owner calls it.
//  * Per-session Perfetto export: sessions hand their RankTraces to the
//    handle; export_session_trace() merges them with the existing
//    TraceMerger.
//
// Identity guarantee: the hub transports and stores lines verbatim — it
// never rewrites, reorders (within a session), or merges them, so a
// session's retained stream is byte-identical to the same app writing to a
// private ostream, which is what the soak harness and the HubProperty
// tests gate on.

#include <chrono>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "core/trace_export.hpp"
#include "tau/interner.hpp"

namespace core {

class TelemetryHub;

/// Dense hub-wide session identity (interned from the session name).
using SessionId = std::uint32_t;
inline constexpr SessionId kInvalidSession = 0xffffffffu;

/// One retained telemetry line, in publish order.
struct SessionLine {
  std::uint64_t seq = 0;  ///< hub-global publish sequence (monotone)
  std::string text;       ///< verbatim JSONL line, no trailing newline
};

/// Per-session accounting, all monotone over a session's lifetime except
/// the retained figures. retained == published - dropped_evicted holds at
/// every instant.
struct SessionStats {
  std::uint64_t published = 0;       ///< lines published, evicted or not
  std::uint64_t dropped_ring = 0;    ///< always 0: publish never rejects a line
  std::uint64_t dropped_evicted = 0; ///< published, later evicted by a bound
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
  std::uint64_t dropped_evicted = 0;
  std::uint64_t bytes_retained = 0;
  std::uint64_t bytes_peak = 0;   ///< high-water mark of bytes_retained
  std::uint64_t aggregate_lines = 0;
};

/// A session's handle on the hub: move-only RAII (close() on destruction).
/// The handle is the only way to publish — sessions never see the hub's
/// store or each other.
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

  /// A publishing ostream for this session — its lines are published
  /// into the hub (split on '\n', each line one publish). Feed it to
  /// TelemetryPort::start_telemetry(). Concurrent producers (per-rank
  /// Mastermind instances) each take their own so line buffering never
  /// interleaves partial lines. The handle keeps ownership; all sinks
  /// flush on close().
  std::ostream& make_sink();

  /// Publishes one complete line directly (no buffering).
  void publish(std::string_view line);

  /// Registers one rank's trace for later export_session_trace().
  void add_trace(RankTrace trace);

  /// Flushes sinks, publishes any unterminated tail, and closes the
  /// session in the hub. Idempotent.
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

/// Starts no thread: a line is stored before its publish returns.
/// Outstanding SessionHandles must not outlive the hub.
class TelemetryHub {
 public:
  struct Config {
    std::size_t memory_budget_bytes = 8u << 20;  ///< retained-line bound
    std::size_t session_line_cap = 4096; ///< retained lines per session
  };

  TelemetryHub();  ///< default Config
  explicit TelemetryHub(Config cfg);
  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  /// Registers (or revives) a session. Names intern to stable SessionIds;
  /// reopening a name reuses its id with a fresh incarnation and resets
  /// the retained stream. `scenario` labels the aggregate breakdown
  /// (e.g. "amr", "lu").
  SessionHandle open_session(std::string name, std::string scenario);

  // --- session-scoped queries (any thread) ---------------------------------
  /// Retained lines of one session, in publish order.
  std::vector<SessionLine> session_lines(SessionId id) const;
  /// Retained lines joined with '\n' (one trailing newline) — the
  /// byte-identity comparand against a solo run's ostream contents.
  std::string session_text(SessionId id) const;
  SessionStats session_stats(SessionId id) const;
  /// Dense id for a name, or kInvalidSession.
  SessionId find_session(std::string_view name) const;

  /// Merged Chrome-trace JSON of the session's registered RankTraces.
  MergeStats export_session_trace(SessionId id, std::ostream& os) const;

  HubStats stats() const;
  const Config& config() const { return cfg_; }

  /// Writes one aggregate JSONL line now. Rates are over the interval
  /// since the previous call, so the caller's cadence sets the interval.
  void emit_aggregate(std::ostream& os);

 private:
  friend class SessionHandle;
  friend class HubSinkBuf;

  struct Session {
    std::string name;
    std::string scenario;
    std::uint32_t incarnation = 0;
    bool open = false;
    std::deque<SessionLine> lines;   ///< retained, publish order
    std::uint64_t bytes = 0;
    std::uint64_t published = 0;
    std::uint64_t dropped_evicted = 0;
    std::vector<RankTrace> traces;
    // Scenario aggregate scrape state: overhead_pct sum/count this interval.
    double agg_overhead_sum = 0.0;
    std::uint64_t agg_overhead_n = 0;
  };

  void publish(SessionId id, std::uint32_t incarnation, std::string line);
  void close_session(SessionId id, std::uint32_t incarnation);
  void add_trace(SessionId id, std::uint32_t incarnation, RankTrace trace);
  /// Evicts a session's oldest retained line. Caller holds state_mu_.
  void evict_front_unlocked(Session& s);

  Config cfg_;

  mutable std::mutex state_mu_;  ///< everything below
  tau::NameInterner names_;      ///< session name -> dense SessionId
  std::deque<Session> sessions_; ///< index = SessionId (deque: stable refs)
  std::uint64_t bytes_retained_ = 0;
  std::uint64_t bytes_peak_ = 0;
  std::uint64_t published_total_ = 0;
  std::uint64_t dropped_evicted_total_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t sessions_opened_ = 0;
  std::uint64_t sessions_closed_ = 0;
  std::uint64_t aggregate_lines_ = 0;
  // Aggregate interval deltas (rates are per aggregate interval).
  std::chrono::steady_clock::time_point agg_epoch_;
  std::chrono::steady_clock::time_point agg_last_;
  std::uint64_t agg_last_published_ = 0;
  std::uint64_t agg_last_opened_ = 0;
};

/// An ostream that buffers until '\n' and publishes each complete line
/// into the hub under the owning session's identity. One per producer
/// thread (SessionHandle::make_sink() hands these out).
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
