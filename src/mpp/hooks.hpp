#pragma once
// PMPI-style interposition for the mpp fabric.
//
// Every public communication call is bracketed by `on_begin`/`on_end` on the
// hooks object installed for the calling rank (thread). The TAU adapter in
// src/tau installs hooks that start/stop timers named after the equivalent
// MPI routine ("MPI_Waitsome()", "MPI_Allreduce()", ...) in the "MPI" timer
// group — exactly how the paper obtains "the total inclusive time spent in
// MPI during a method invocation" (Section 3.2, requirement 2).
//
// Hooks are per-thread (per-rank in SCMD); installation is RAII via
// `HooksInstaller` so an exception cannot leave a dangling pointer.

#include <cstddef>
#include <cstdint>

namespace mpp {

/// One point-to-point message endpoint, reported to hooks on both sides.
/// `seq` is the fabric's per-(src,dst) ordered-pair sequence number
/// (1-based, send order): (src, dst, seq) identifies a message uniquely
/// across the whole run, which is what makes cross-rank trace matching
/// deterministic.
struct MsgEvent {
  int src = -1;            ///< sender's world rank
  int dst = -1;            ///< receiver's world rank
  int tag = 0;
  std::size_t bytes = 0;
  std::uint64_t seq = 0;
};

/// Fault taxonomy of the injection layer (see fault.hpp). `none` means the
/// message was delivered untouched.
enum class FaultKind : std::uint8_t { none, drop, delay, duplicate, reorder, stall };

/// One fault-layer event, reported to the hooks of the rank on whose thread
/// the event fired (the sender for injections, the polling rank for retries
/// and releases, the waiting rank for timeouts). (src, dst, seq) is the same
/// message identity MsgEvent carries, so a fault can be correlated with the
/// message it perturbed.
struct FaultEvent {
  enum class Type : std::uint8_t {
    injected,              ///< a fault was applied to a fresh send
    retry,                 ///< a dropped message was retransmitted
    retry_exhausted,       ///< retransmission gave up (send fails)
    duplicate_suppressed,  ///< a duplicate arrival was deduplicated
    timeout,               ///< a wait surfaced CommError instead of blocking
    stale_fallback,        ///< amr::exchange reused stale ghost data
  };
  Type type = Type::injected;
  FaultKind kind = FaultKind::none;  ///< which fault, for `injected`
  int src = -1;                      ///< sender world rank (-1 if n/a)
  int dst = -1;                      ///< receiver world rank (-1 if n/a)
  std::uint64_t seq = 0;             ///< per-(src,dst) message sequence
  std::uint32_t detail = 0;          ///< delay steps / retry attempt / stale segments
};

/// One internal hop of a collective (every collective runs over the
/// fabric's hop relays): reported on the rank initiating the hop, inside
/// the enclosing collective's hook bracket. `op` is the outer MPI name
/// ("MPI_Allreduce()", ...), `round` the hop's key within the call (the
/// 0-based algorithm round), `peer` the rank the payload is handed to, `bytes` the payload carried by this hop. Hops are not
/// messages: they fire no MsgEvent and draw no modeled delay. The tree
/// collectives make O(log size) hops per rank, which is what makes the
/// algorithm observable from the hooks.
struct HopEvent {
  const char* op = nullptr;
  int round = 0;
  int peer = -1;
  std::size_t bytes = 0;
};

/// Interface implemented by measurement systems (see tau::MpiHookAdapter).
class CommHooks {
 public:
  virtual ~CommHooks() = default;
  /// Called on entry to a communication routine. `mpi_name` is a static
  /// string like "MPI_Isend()".
  virtual void on_begin(const char* mpi_name) = 0;
  /// Called on exit. `bytes` is the payload size where meaningful, else 0.
  virtual void on_end(const char* mpi_name, std::size_t bytes) = 0;
  /// Message endpoints: fired on the sending rank when a send is initiated
  /// (inside the MPI_Isend bracket) and on the receiving rank when the
  /// matching receive completes (inside the wait/test/waitsome bracket).
  /// Default no-ops keep byte-counting hooks source-compatible.
  virtual void on_message_send(const MsgEvent&) {}
  virtual void on_message_recv(const MsgEvent&) {}
  /// Fault-layer event (injection, retry, timeout, staleness). Only fired
  /// when a FaultPlan is active or a wait times out; default no-op.
  virtual void on_fault(const FaultEvent&) {}
  /// Per-hop progress of a collective; default no-op so byte-counting
  /// adapters (and the merged-counter goldens they feed) are unaffected.
  virtual void on_collective_hop(const HopEvent&) {}
};

namespace detail {
inline thread_local CommHooks* t_hooks = nullptr;
}

/// Currently installed hooks for this thread (nullptr if none).
inline CommHooks* hooks() { return detail::t_hooks; }

/// Installs hooks for the current thread for the lifetime of this object.
class HooksInstaller {
 public:
  explicit HooksInstaller(CommHooks* h) : prev_(detail::t_hooks) { detail::t_hooks = h; }
  ~HooksInstaller() { detail::t_hooks = prev_; }
  HooksInstaller(const HooksInstaller&) = delete;
  HooksInstaller& operator=(const HooksInstaller&) = delete;

 private:
  CommHooks* prev_;
};

/// RAII bracket used inside mpp entry points.
class HookScope {
 public:
  explicit HookScope(const char* name) : name_(name), active_(detail::t_hooks != nullptr) {
    if (active_) detail::t_hooks->on_begin(name_);
  }
  ~HookScope() {
    if (active_) detail::t_hooks->on_end(name_, bytes_);
  }
  HookScope(const HookScope&) = delete;
  HookScope& operator=(const HookScope&) = delete;
  void set_bytes(std::size_t b) { bytes_ = b; }

 private:
  const char* name_;
  bool active_;
  std::size_t bytes_ = 0;
};

}  // namespace mpp
