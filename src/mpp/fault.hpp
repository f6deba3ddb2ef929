#pragma once
// Deterministic fault injection for the mpp fabric.
//
// A FaultPlan turns a seed into a schedule of per-message faults: drop,
// delay-by-N-progress-steps, duplicate, reorder, and rank stalls. The key
// property is that decisions are *pure hashes* of the message identity
// (seed, src, dst, seq, attempt) — not draws from a shared RNG stream — so
// the schedule is independent of thread interleaving: two runs with the
// same seed inject exactly the same faults on exactly the same messages,
// which is what makes record/replay of a faulty run byte-deterministic.
//
// Time is measured in *progress steps*, not wall clock: every fabric poll
// (wait quantum, test, send) advances a global step counter, and held or
// dropped messages are released/retried at step thresholds. This keeps the
// fault schedule deterministic under scheduler noise and sanitizers.
//
// Recovery lives in Comm/Fabric (see DESIGN.md §8): dropped messages sit in
// a retry ledger and are retransmitted with exponential backoff in steps;
// duplicates are suppressed by a per-sender DedupeWindow watermark; waits
// carry a configurable timeout plus an always-on no-progress bound, both of
// which surface a typed CommError instead of hanging.

#include <cstdint>
#include <string>
#include <string_view>

#include "support/error.hpp"

namespace mpp {

enum class FaultKind : std::uint8_t;  // hooks.hpp

/// Error category for recoverable communication failures. Waits throw
/// CommError so callers (e.g. amr::exchange) can distinguish "give up and
/// degrade" from programming errors.
enum class CommErrc : std::uint8_t {
  aborted,          ///< a peer rank failed and the fabric was torn down
  timeout,          ///< a configured wait timeout expired
  no_progress,      ///< the progress bound tripped (nothing moved for too long)
  retry_exhausted,  ///< a dropped message ran out of retransmission attempts
};

class CommError : public ccaperf::Error {
 public:
  CommError(CommErrc code, const std::string& what)
      : ccaperf::Error(what), code_(code) {}
  CommErrc code() const { return code_; }

 private:
  CommErrc code_;
};

/// Fault rates and recovery tuning. Rates are per fresh message and must
/// sum to <= 1; all-zero rates mean the plan is inactive and the fabric
/// runs its unmodified fast path.
struct FaultSpec {
  std::uint64_t seed = 0xFA57C0DEULL;
  double drop = 0.0;       ///< P(message is lost; recovered by retransmission)
  double delay = 0.0;      ///< P(message is held for 1..max_delay_steps polls)
  double duplicate = 0.0;  ///< P(message arrives twice; dedupe filters it)
  double reorder = 0.0;    ///< P(message is overtaken by the pair's next message)
  double stall = 0.0;      ///< P(a send briefly stalls its rank for stall_us)
  int max_delay_steps = 4;
  double stall_us = 100.0;
  /// Retransmission: attempt k is re-sent retry_base_steps << (k-1) polls
  /// after the previous loss, up to retry_max_attempts total attempts.
  int retry_base_steps = 2;
  int retry_max_attempts = 8;
  /// When true, retransmissions are themselves subject to drop faults
  /// (realistic chaos); when false the first retry always delivers
  /// (loss-free, used by the determinism property tests).
  bool retry_faults = true;

  /// True when any fault can ever fire.
  bool any() const {
    return drop > 0.0 || delay > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           stall > 0.0;
  }

  /// The preset used by the chaos soak: lossy but always recoverable.
  static FaultSpec moderate(std::uint64_t seed = 0xFA57C0DEULL);
  /// Parses "drop=0.1,delay=0.2,dup=0.05,reorder=0.05,stall=0.02,..." or
  /// the presets "moderate" / "off". Unknown keys raise.
  static FaultSpec parse(std::string_view text);
  /// Reads CCAPERF_FAULT_PLAN (parse() syntax) and CCAPERF_FAULT_SEED
  /// (decimal or 0x hex; overrides the plan's seed). Returns an inactive
  /// spec when the plan variable is unset/empty.
  static FaultSpec from_env();
};

/// The decision for one (message, attempt).
struct FaultDecision {
  FaultKind kind;
  int delay_steps = 0;  ///< for FaultKind::delay
};

/// A seeded, stateless fault schedule. Copyable; all methods are const and
/// thread-safe (pure functions of the spec).
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultSpec& spec) : spec_(spec), active_(spec.any()) {}

  bool active() const { return active_; }
  const FaultSpec& spec() const { return spec_; }

  /// Fault decision for delivery attempt `attempt` (1-based) of message
  /// (src, dst, seq). Attempts >= 2 are retransmissions: only `drop` can
  /// re-fire on them (and only when spec().retry_faults).
  FaultDecision decide(int src, int dst, std::uint64_t seq,
                       std::uint32_t attempt) const;

  /// True when the `check`-th stall probe on `rank` (a per-rank counter
  /// maintained by the fabric) should stall.
  bool stall_at(int rank, std::uint64_t check) const;

 private:
  FaultSpec spec_;
  bool active_ = false;
};

/// Aggregate fault/recovery accounting, mirrored from the fabric's atomics.
/// `injected_*` count faults applied to fresh sends; the rest count what the
/// recovery machinery did about them.
struct FaultStats {
  std::uint64_t injected_drops = 0;
  std::uint64_t injected_delays = 0;
  std::uint64_t injected_duplicates = 0;
  std::uint64_t injected_reorders = 0;
  std::uint64_t injected_stalls = 0;
  std::uint64_t retries = 0;
  std::uint64_t retries_exhausted = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t stale_fallbacks = 0;
  /// Delivery-state gauges (see detail::DedupeWindow): the largest
  /// out-of-order span any duplicate filter ever buffered (bits; bounded
  /// by DedupeWindow::kMaxWindowBits), the smallest watermark among
  /// sources that delivered at least one message (nonzero == every filter
  /// advanced past its first message instead of accumulating history),
  /// and the peak number of in-flight captured messages in the fault
  /// store (what a progress poll's cost now tracks).
  std::uint64_t dedupe_span_peak = 0;
  std::uint64_t dedupe_watermark_min = 0;
  std::uint64_t fault_items_peak = 0;

  std::uint64_t injected_total() const {
    return injected_drops + injected_delays + injected_duplicates +
           injected_reorders + injected_stalls;
  }
};

}  // namespace mpp
