#pragma once
// PMM (performance measurement and modeling) port interfaces — the
// infrastructure contribution of the paper (§4).
//
// Three component types cooperate:
//  * the TAU component provides MeasurementPort (timing, events, control,
//    query — §4.1);
//  * proxies use MonitorPort to report intercepted invocations (§4.2);
//  * the Mastermind provides MonitorPort, owns the per-method Records and
//    builds models (§4.3).
//
// Monitoring must stay invisible on the very path it measures (§3.2
// requirement 2), so MonitorPort moves all naming to registration time: a
// proxy registers each monitored method once (register_method interns the
// key and its parameter names), then reports invocations by MethodHandle
// with the parameter values in a stack-resident ParamSpan — no allocation,
// no string hashing per call.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "cca/framework.hpp"
#include "tau/registry.hpp"

namespace tau {
class RegistryShards;
}

namespace core {

/// Interned identity of a monitored method (dense index, valid for the
/// lifetime of the MonitorPort provider that issued it).
using MethodHandle = std::uint32_t;
inline constexpr MethodHandle kInvalidMethodHandle = 0xffffffffu;

/// Most parameters a method can pre-register for the handle fast path.
/// The paper's proxies extract at most two (Q and mode / level and cells).
inline constexpr std::size_t kMaxMethodParams = 4;

/// Non-owning view of the performance-relevant parameter values a proxy
/// extracts before forwarding one invocation (e.g. Q = array size, mode =
/// 0/1 for sequential/strided) — "these parameters must be selected by
/// someone with a knowledge of the algorithm implemented in the component."
/// Positionally keyed by the names passed to register_method. Values are
/// copied during start(), so a stack array is the intended storage ({} for
/// no params).
struct ParamSpan {
  const double* data = nullptr;
  std::size_t size = 0;

  ParamSpan() = default;
  ParamSpan(const double* d, std::size_t n) : data(d), size(n) {}
};

/// Access to the measurement substrate (the TAU component's port).
class MeasurementPort : public cca::Port {
 public:
  /// The rank-local TAU registry (timing/event/control/query interfaces).
  virtual tau::Registry& registry() = 0;

  /// Per-thread registry shards for multi-threaded ranks (DESIGN.md §9),
  /// or nullptr when the provider is single-threaded-only. When non-null,
  /// shard(0) is registry() and worker pool lanes time into their own
  /// shards, merged back at region barriers.
  virtual tau::RegistryShards* shards() { return nullptr; }
};

/// Monitoring interface used by proxies (the paper's "MonUF port").
/// start() is called with the extracted parameters before the invocation
/// is forwarded; stop() after it returns. Nesting is allowed (LIFO).
class MonitorPort : public cca::Port {
 public:
  /// Interns `method_key` (which doubles as the method's TAU timer name,
  /// e.g. "sc_proxy::compute()") and its parameter names; idempotent for a
  /// given key. Resolve once, then report invocations by handle.
  virtual MethodHandle register_method(const std::string& method_key,
                                       const std::vector<std::string>& param_names) = 0;

  /// Allocation-free start/stop: `params` carries one value per registered
  /// parameter name, in registration order.
  virtual void start(MethodHandle method, ParamSpan params) = 0;
  virtual void stop(MethodHandle method) = 0;
};

/// Live telemetry out of the Mastermind: while active, one JSON object per
/// line (JSONL) is appended to the sink every `interval_records` completed
/// monitored invocations — completed-record throughput, the count of
/// timers that fired since the previous line, per-group inclusive time
/// (cumulative and delta), hardware-counter deltas, trace-ring fill/drop
/// counts, and the monitor's own accumulated self-overhead. Emission piggybacks on
/// the outermost monitoring stop; there is no background thread.
class TelemetryPort : public cca::Port {
 public:
  /// Starts emission into `sink` (borrowed; must outlive telemetry).
  /// `interval_records` < 1 is clamped to 1 (a line per invocation).
  virtual void start_telemetry(std::ostream& sink,
                               std::uint64_t interval_records) = 0;
  /// Emits a final line and detaches the sink.
  virtual void stop_telemetry() = 0;
  /// Forces one line now (no-op when inactive).
  virtual void emit_telemetry() = 0;
  virtual std::uint64_t telemetry_lines() const = 0;
  /// Monitoring + emission time (µs) spent while telemetry was active —
  /// the self-overhead the paper's requirement 2 says must stay visible.
  virtual double telemetry_self_us() const = 0;
};

}  // namespace core
