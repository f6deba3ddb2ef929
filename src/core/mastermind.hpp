#pragma once
// MastermindComponent — gathering, storing and reporting of measurement
// data (paper §4.3).
//
// For each monitored method a Record holds one row per call: the
// proxy-extracted parameters, wall-clock time, MPI time (difference of the
// TAU "MPI" group inclusive sum queried before and after the invocation —
// "TAU measurements are made cumulatively, so in order to obtain the
// measurements for a single invocation, measurements must be made prior to
// the invocation and again after"), compute time (wall - MPI), and
// hardware-counter deltas. On destruction (or on demand) records dump
// their data to CSV files.
//
// Storage is columnar (structure-of-arrays): each metric, parameter and
// counter lives in its own chunked append-only column, so the per-call
// append is a handful of doubles pushed into pre-grown chunks — no
// per-invocation structs, maps or strings — and dump_csv/samples stream a
// column instead of walking heap-heavy rows. Readers index rows through
// the columnar accessors (wall_us(i), param_at(i, name), ...).

#include <cmath>
#include <atomic>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "core/governor.hpp"
#include "core/ports.hpp"
#include "tau/shards.hpp"

namespace core {

/// Append-only column of doubles stored in fixed-size chunks: appends are
/// amortized O(1) with no reallocation-copies, reads are stable, and one
/// allocation buys kChunk further zero-allocation appends.
class ChunkedColumn {
 public:
  static constexpr std::size_t kChunk = 4096;

  std::size_t size() const { return size_; }

  void push_back(double v) {
    const std::size_t slot = size_ % kChunk;
    if (slot == 0) chunks_.push_back(std::make_unique<double[]>(kChunk));
    chunks_.back()[slot] = v;
    ++size_;
  }

  double operator[](std::size_t i) const { return chunks_[i / kChunk][i % kChunk]; }

  /// Pads with `fill` up to `n` entries (used to mark rows where an
  /// optional column has no value).
  void pad_to(std::size_t n, double fill) {
    while (size_ < n) push_back(fill);
  }

 private:
  std::vector<std::unique_ptr<double[]>> chunks_;
  std::size_t size_ = 0;
};

/// All invocations of one monitored method, stored column-wise: one row
/// per call. compute = wall - mpi (requirement 3 of §3.2). Absent values
/// (a parameter or counter that did not apply to a row) are NaN.
class Record {
 public:
  explicit Record(std::string method) : method_(std::move(method)) {}

  const std::string& method() const { return method_; }
  std::size_t count() const { return wall_.size(); }

  // --- columnar access -------------------------------------------------------

  double wall_us(std::size_t i) const { return wall_[i]; }
  double mpi_us(std::size_t i) const { return mpi_[i]; }
  double compute_us(std::size_t i) const { return wall_[i] - mpi_[i]; }

  /// Names of the parameter / counter columns, in creation order.
  std::vector<std::string> param_names() const;
  std::vector<std::string> counter_names() const;

  /// Column index for a parameter/counter, creating the column (NaN
  /// backfilled for existing rows) on first use.
  std::size_t ensure_param_column(std::string_view name);
  std::size_t ensure_counter_column(std::string_view name);

  /// Value at row `i` of the named column; NaN when absent.
  double param_at(std::size_t i, std::string_view name) const;
  double counter_at(std::size_t i, std::string_view name) const;

  // --- appending (one row = one invocation) ----------------------------------
  // add_times() opens row count()-1; set_param/set_counter fill optional
  // columns of that row; finish_row() NaN-pads the columns left unset.

  void add_times(double wall_us, double mpi_us);
  void set_param(std::size_t column, double value);
  void set_counter(std::size_t column, double value);
  void finish_row();

  // --- consumption -----------------------------------------------------------

  /// CSV: one row per invocation; params and counters become columns.
  void dump_csv(std::ostream& os) const;

  /// Samples (param value, metric) for model fitting. `metric` selects
  /// wall/compute/mpi time; invocations lacking the parameter are skipped.
  enum class Metric { wall, compute, mpi };
  std::vector<std::pair<double, double>> samples(const std::string& param,
                                                 Metric metric = Metric::wall) const;

  /// Same, with the metric source named: "wall", "compute", "mpi", or any
  /// hardware-counter column (e.g. "PAPI_L2_DCM" for the Fig. 5
  /// cache-access-ratio models). Unknown counters yield no samples.
  std::vector<std::pair<double, double>> samples(const std::string& param,
                                                 const std::string& metric_source) const;

 private:
  struct NamedColumn {
    std::string name;
    ChunkedColumn data;
  };

  const NamedColumn* find_param(std::string_view name) const;
  const NamedColumn* find_counter(std::string_view name) const;
  double metric_at(std::size_t i, Metric m) const;
  /// Rows fully appended — excludes the row opened by add_times() until
  /// finish_row() closes it (new columns backfill to this length).
  std::size_t completed_rows() const { return in_row_ ? count() - 1 : count(); }

  std::string method_;
  ChunkedColumn wall_, mpi_;  ///< compute is derived: wall - mpi
  std::vector<NamedColumn> params_;
  std::vector<NamedColumn> counters_;
  bool in_row_ = false;
};

class MastermindComponent final : public cca::Component,
                                  public MonitorPort,
                                  public TelemetryPort {
 public:
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<MonitorPort*>(this)),
                          "monitor", "pmm.MonitorPort");
    svc.add_provides_port(cca::non_owning(static_cast<TelemetryPort*>(this)),
                          "telemetry", "pmm.TelemetryPort");
    svc.register_uses_port("measurement", "pmm.MeasurementPort");
  }

  // pmm.MonitorPort (allocation-free in steady state).
  MethodHandle register_method(const std::string& method_key,
                               const std::vector<std::string>& param_names) override;
  void start(MethodHandle method, ParamSpan params) override;
  void stop(MethodHandle method) override;

  // Live telemetry (pmm.TelemetryPort).
  void start_telemetry(std::ostream& sink, std::uint64_t interval_records) override;
  void stop_telemetry() override;
  void emit_telemetry() override;
  std::uint64_t telemetry_lines() const override { return telem_lines_; }
  double telemetry_self_us() const override { return telem_self_us_; }

  const Record* record(const std::string& method_key) const;
  std::vector<std::string> method_keys() const;

  // --- overhead governor (DESIGN.md §12) -------------------------------------
  // The Mastermind is the governor's plumbing: it accounts measurement
  // self-cost (clock brackets around its own monitoring work plus any
  // registered cost sources), feeds (wall, self, records) windows to the
  // controller at outermost-stop boundaries, and applies the returned
  // Settings — telemetry interval, registry trace tier and monitor record
  // sampling. Nothing here runs unless a governor is attached, so
  // ungoverned runs stay byte-identical.

  /// Attaches the controller (borrowed; must outlive the component) and
  /// registers the GOVERNOR_* counter sources with the registry. Requires
  /// the measurement port to be connected.
  void attach_governor(OverheadGovernor* gov);
  OverheadGovernor* governor() const { return gov_; }

  /// Registers a cumulative measurement-cost source (monotone microsecond
  /// total, e.g. the priced cache-sim access count) folded into every
  /// governor window's self-cost.
  void add_cost_source(std::string name, std::function<double()> cumulative_us);

  /// Surfaces the chosen hardware-counter backend ("sim", "perf", ...) as
  /// an `hwc` metadata field on every telemetry line.
  void set_telemetry_hwc(std::string backend);

  /// Tags every telemetry line with a `session` metadata field — the
  /// TelemetryHub sets this to the owning session's name so cross-session
  /// leakage is detectable from the lines themselves (a retained line in
  /// session S must carry S's marker). Empty = omit the field.
  void set_telemetry_session(std::string name);

  /// Monitored-call recording fraction for one method: rows recorded /
  /// invocations seen (1.0 while unsampled). Counts taken from recorded
  /// rows scale back to calls by its inverse. The governor bench reports
  /// it beside its sampled-fit exponent gate; test_governor checks it.
  double realized_fraction(const std::string& method_key) const;

  /// Current governor-applied monitor sampling stride (1 = record all).
  std::uint32_t monitor_stride() const { return gov_monitor_stride_; }

  /// Caller->callee invocation counts among *monitored* methods, detected
  /// from monitoring nesting (paper §6: "a call trace (detected and
  /// recorded by the performance infrastructure)" feeds the composite
  /// model). An edge ("", child) counts top-level invocations.
  struct CallEdge {
    std::string caller;  ///< empty for top-level
    std::string callee;
    std::uint64_t count = 0;
  };
  const std::vector<CallEdge>& call_edges() const { return edges_; }
  /// Count for one specific edge (0 if absent).
  std::uint64_t call_count(const std::string& caller, const std::string& callee) const;

  /// Writes every record to `<dir>/<sanitized method>.rank<r>.csv`.
  void dump_all(const std::string& dir, int rank) const;

  /// If set, records are dumped on destruction (the paper's "when a record
  /// object is destroyed, it outputs to a file all of the measurement
  /// data").
  void set_dump_on_destroy(std::string dir, int rank) {
    dump_dir_ = std::move(dir);
    dump_rank_ = rank;
  }

  ~MastermindComponent() override;

 private:
  struct Method {
    std::string key;
    std::vector<std::string> param_names;   ///< positional parameter names
    std::vector<std::size_t> param_cols;    ///< record columns, same order
    std::unique_ptr<Record> record;
    tau::TimerId timer = 0;
    bool timer_resolved = false;
    // Counter columns for the registry's current counter layout, resolved
    // lazily and re-resolved only when counters are added.
    std::vector<std::size_t> counter_cols;
    // Trace-string index of the first parameter's name, attached to the
    // method's trace slice as its argument (e.g. "Q") while tracing.
    std::uint32_t arg_string = 0;
    bool arg_string_resolved = false;
    // Threaded mode (DESIGN.md §9): worker lanes time into their own
    // registry shards, so timer ids and trace-string ids are per lane.
    // Each lane only ever touches its own slot (sized before any region).
    std::vector<tau::TimerId> lane_timer;
    std::vector<char> lane_timer_ok;
    std::vector<std::uint32_t> lane_arg_string;
    std::vector<char> lane_arg_ok;
    std::size_t thread_col = 0;  ///< "thread" param column (threaded only)
    // Monitor-sampling tallies (governor actuation): every invocation is
    // seen; only sampled ones append a row. Their ratio is the realized
    // recording fraction that keeps downstream fits unbiased.
    std::uint64_t calls_seen = 0;
    std::uint64_t calls_recorded = 0;
  };

  /// In-flight monitored call. Pooled: popped entries keep their buffers,
  /// so steady-state start/stop never allocates.
  struct Open {
    MethodHandle method = kInvalidMethodHandle;
    double param_vals[kMaxMethodParams] = {};
    std::uint32_t n_params = 0;
    double mpi_us_start = 0.0;
    std::vector<std::uint64_t> counters_start;
    /// False when monitor sampling elides this activation's row (the timer
    /// still runs; snapshots and the record append are skipped).
    bool sampled = true;
  };

  /// Per-lane LIFO of in-flight calls. Lane 0 is the rank thread; worker
  /// lanes get their own stacks so monitored calls inside a parallel
  /// region nest independently (each lane only touches its own state).
  struct LaneState {
    std::vector<Open> open;  // pooled
    std::size_t depth = 0;
  };

  tau::Registry& registry();
  tau::Registry& resolve_measurement();
  void init_method_lane_state(Method& m);
  MethodHandle intern_method(std::string_view key);
  Method& method_ref(MethodHandle h);
  Open& push_open(LaneState& lane, MethodHandle h);
  void refresh_counter_columns(Method& m);
  void count_edge(MethodHandle caller, MethodHandle callee);
  void start_on_lane(MethodHandle method, ParamSpan params, int lane);
  void stop_on_lane(MethodHandle method, int lane);
  void emit_telemetry_unlocked();
  /// Deterministic 1-in-N monitor sampling decision for the n-th seen call.
  bool sample_decision(std::uint64_t nth_call) const {
    return gov_monitor_stride_ <= 1 ||
           (nth_call - 1 + gov_seed_) % gov_monitor_stride_ == 0;
  }
  double self_total_unlocked() const;
  void governor_window_unlocked(tau::Registry& reg);
  void apply_governor_settings_unlocked(tau::Registry& reg);
  void emit_governor_line_unlocked(const OverheadGovernor::Decision& d);
  std::uint32_t governor_instant_string(tau::Registry& reg, bool throttle,
                                        int level);

  cca::Services* svc_ = nullptr;
  tau::Registry* reg_ = nullptr;          // resolved once through the port
  tau::GroupId mpi_group_ = 0;            // interned with the registry
  tau::RegistryShards* shards_ = nullptr;  // borrowed from MeasurementPort
  bool threaded_ = false;                  // lanes > 1 once resolved
  std::atomic<bool> resolved_{false};      // measurement port resolved
  mutable std::mutex mu_;                  // guards shared state (threaded only)
  std::deque<Method> methods_;             // deque: stable refs under growth
  std::atomic<std::size_t> methods_count_{0};
  std::vector<LaneState> lanes_{1};        // [0] = rank thread
  std::vector<std::uint64_t> counters_scratch_;
  std::vector<CallEdge> edges_;
  std::vector<std::pair<MethodHandle, MethodHandle>> edge_ids_;  // parallel
  std::optional<std::string> dump_dir_;
  int dump_rank_ = 0;

  // Telemetry state. All clock reads for self-overhead accounting are
  // gated on telem_sink_ so the monitoring fast path is untouched when
  // telemetry is off.
  void maybe_emit_telemetry();
  std::ostream* telem_sink_ = nullptr;       // borrowed; null = inactive
  std::uint64_t telem_interval_ = 1;
  std::uint64_t telem_lines_ = 0;
  std::uint64_t telem_records_ = 0;          // rows finished while active
  std::uint64_t telem_records_last_ = 0;     // at the previous line
  tau::Generation telem_gen_ = 0;            // generation of the previous line
  tau::Clock::time_point telem_start_{};
  tau::Clock::time_point telem_last_{};
  double telem_self_us_ = 0.0;
  double telem_self_last_ = 0.0;             // at the previous line (overhead_pct)
  std::uint64_t telem_interval_base_ = 1;    // before the governor multiplier
  std::string hwc_backend_;                  // "" = omit the metadata field
  std::string session_label_;                // "" = omit the metadata field
  std::vector<std::uint64_t> telem_counters_last_;
  std::vector<double> telem_group_last_;     // per-GroupId inclusive_us

  // Governor state (all inert while gov_ == nullptr). Windows are counted
  // in monitored invocations (sampled or not) so a heavily-thinned monitor
  // still reaches decision points; self-cost markers are cumulative so a
  // window's cost is a difference of two monotone totals.
  OverheadGovernor* gov_ = nullptr;
  std::uint64_t gov_seed_ = 0;
  std::uint32_t gov_monitor_stride_ = 1;
  std::uint64_t gov_calls_ = 0;              // lane-0 outermost stops
  std::uint64_t gov_calls_last_ = 0;
  double gov_self_last_ = 0.0;
  tau::Clock::time_point gov_last_{};
  std::vector<std::pair<std::string, std::function<double()>>> cost_sources_;
  // Interned instant labels per (direction, level), resolved lazily.
  std::vector<std::uint32_t> gov_instant_ids_;
  std::vector<char> gov_instant_ok_;
};

}  // namespace core
