#pragma once
// Per-layer time ledger of the fig01 step benchmark.
//
// Every interposer, the chaining CommHooks and the timed hub sink open a
// span on the calling thread's SpanStack around the call they forward. A
// span's self time is its duration minus the time its child spans cover,
// so the self times of all layers on one thread never overlap and, added
// to the time no span covers ("unattributed"), give back the wall time of
// the interval they were taken over. That is the closure the benchmark
// reports for every coarse step.
//
// One SpanStack per thread, created on first use and owned by a process
// registry, so a stack outlives the pool worker that filled it. A stack is
// written only by its own thread and read by others only at points where
// that thread is idle behind a join or a pool barrier.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace fig01bench {

/// Layers of one fig01 step, named after the src/ module that owns them.
enum class Layer : std::uint8_t {
  rk2,             ///< components: IntegratorPort (stable_dt, advance)
  invflux,         ///< components: FluxDivergencePort
  states,          ///< euler: StatesPort
  flux,            ///< euler: FluxPort
  ghost_update,    ///< amr: MeshPort::ghost_update
  prolong,         ///< amr: MeshPort::prolong
  restrict_level,  ///< amr: MeshPort::restrict_level
  regrid,          ///< amr: MeshPort::regrid
  monitor,         ///< core: proxy + Mastermind + TAU (outer minus inner)
  hub_publish,     ///< core: TelemetryHub publish of one JSONL line
  mpi_wait,        ///< mpp: waits and blocking receives
  mpi_collective,  ///< mpp: collectives
  mpi_post,        ///< mpp: sends, receive posts, tests, wtime, comm mgmt
  tau_mpi_hook,    ///< tau: the MPI hook adapter the bench hook chains to
};
inline constexpr std::size_t kLayers = 14;

/// Cumulative per-thread totals. Plain sums: subtracting two snapshots of
/// one stack gives the totals of the interval between them.
struct Totals {
  std::array<double, kLayers> self_ns{};
  std::array<double, kLayers> total_ns{};
  std::array<std::uint64_t, kLayers> calls{};
  std::uint64_t msgs = 0;        ///< point-to-point messages sent
  std::uint64_t msg_bytes = 0;   ///< their payload bytes
  double modeled_delay_us = 0.0; ///< latency + bytes/bandwidth, summed
  std::uint64_t collectives = 0; ///< outermost collective calls
  std::uint64_t hub_lines = 0;   ///< lines through the timed hub sink

  Totals& operator+=(const Totals& o);
  Totals operator-(const Totals& o) const;
};

/// Span bookkeeping of one thread, with explicit timestamps so the
/// self-time rule can be checked on synthetic intervals.
class SpanStack {
 public:
  static constexpr int kMaxDepth = 32;

  void begin(Layer l, double t_ns);
  /// Closes the innermost open span at `t_ns`.
  void end(double t_ns);

  int depth() const { return depth_; }
  /// Layer of the innermost open span; only valid when depth() > 0.
  Layer top() const { return frames_[static_cast<std::size_t>(depth_ - 1)].layer; }

  Totals& totals() { return totals_; }
  const Totals& totals() const { return totals_; }

 private:
  struct Frame {
    Layer layer = Layer::rk2;
    double t0_ns = 0.0;
    double child_ns = 0.0;
  };
  std::array<Frame, kMaxDepth> frames_{};
  int depth_ = 0;
  Totals totals_;
};

/// Nanoseconds on the steady clock (the span time base).
inline double now_ns() {
  return static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                 std::chrono::steady_clock::now().time_since_epoch())
                                 .count());
}

/// The calling thread's stack (created and registered on first use).
SpanStack& thread_stack();

/// Sum of the totals of every stack any thread has created so far.
Totals all_stacks_totals();

/// RAII span on the calling thread's stack.
class Span {
 public:
  explicit Span(Layer l) : stack_(thread_stack()) { stack_.begin(l, now_ns()); }
  ~Span() { stack_.end(now_ns()); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanStack& stack_;
};

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least p% of the sample at or below it.
double percentile(const std::vector<double>& sorted, double p);

/// The highest of the candidate percentiles (50, 90, 99, 99.9) that leaves
/// at least `min_beyond` samples above it in a sample of `n`; 0 when not
/// even the median does.
double highest_supported_percentile(std::size_t n, std::size_t min_beyond = 10);

}  // namespace fig01bench
