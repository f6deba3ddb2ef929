#include "core/mastermind.hpp"

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <ostream>

#include "support/json.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace core {

namespace {
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double us_between(tau::Clock::time_point a, tau::Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
}

// --- Record: columns ---------------------------------------------------------

const Record::NamedColumn* Record::find_param(std::string_view name) const {
  for (const NamedColumn& c : params_)
    if (c.name == name) return &c;
  return nullptr;
}

const Record::NamedColumn* Record::find_counter(std::string_view name) const {
  for (const NamedColumn& c : counters_)
    if (c.name == name) return &c;
  return nullptr;
}

std::vector<std::string> Record::param_names() const {
  std::vector<std::string> out;
  out.reserve(params_.size());
  for (const NamedColumn& c : params_) out.push_back(c.name);
  return out;
}

std::vector<std::string> Record::counter_names() const {
  std::vector<std::string> out;
  out.reserve(counters_.size());
  for (const NamedColumn& c : counters_) out.push_back(c.name);
  return out;
}

std::size_t Record::ensure_param_column(std::string_view name) {
  for (std::size_t i = 0; i < params_.size(); ++i)
    if (params_[i].name == name) return i;
  params_.push_back(NamedColumn{std::string(name), {}});
  params_.back().data.pad_to(completed_rows(), kNaN);
  return params_.size() - 1;
}

std::size_t Record::ensure_counter_column(std::string_view name) {
  for (std::size_t i = 0; i < counters_.size(); ++i)
    if (counters_[i].name == name) return i;
  counters_.push_back(NamedColumn{std::string(name), {}});
  counters_.back().data.pad_to(completed_rows(), kNaN);
  return counters_.size() - 1;
}

double Record::param_at(std::size_t i, std::string_view name) const {
  const NamedColumn* c = find_param(name);
  return (c != nullptr && i < c->data.size()) ? c->data[i] : kNaN;
}

double Record::counter_at(std::size_t i, std::string_view name) const {
  const NamedColumn* c = find_counter(name);
  return (c != nullptr && i < c->data.size()) ? c->data[i] : kNaN;
}

double Record::metric_at(std::size_t i, Metric m) const {
  return m == Metric::wall ? wall_[i] : m == Metric::compute ? compute_us(i) : mpi_[i];
}

// --- Record: appending -------------------------------------------------------

void Record::add_times(double wall_us, double mpi_us) {
  wall_.push_back(wall_us);
  mpi_.push_back(mpi_us);
  in_row_ = true;
}

void Record::set_param(std::size_t column, double value) {
  params_[column].data.push_back(value);
}

void Record::set_counter(std::size_t column, double value) {
  counters_[column].data.push_back(value);
}

void Record::finish_row() {
  const std::size_t n = count();
  for (NamedColumn& c : params_) c.data.pad_to(n, kNaN);
  for (NamedColumn& c : counters_) c.data.pad_to(n, kNaN);
  in_row_ = false;
}

// --- Record: consumption -----------------------------------------------------

void Record::dump_csv(std::ostream& os) const {
  // Stable column set: sorted union of parameter / counter names (the
  // pre-columnar dump used std::set ordering).
  std::vector<std::string> pnames = param_names();
  std::vector<std::string> cnames = counter_names();
  std::sort(pnames.begin(), pnames.end());
  std::sort(cnames.begin(), cnames.end());

  ccaperf::CsvWriter csv(os);
  std::vector<std::string> header{"method", "wall_us", "mpi_us", "compute_us"};
  for (const auto& p : pnames) header.push_back("param:" + p);
  for (const auto& c : cnames) header.push_back("hw:" + c);
  csv.row(header);

  std::vector<const NamedColumn*> pcols, ccols;
  for (const auto& p : pnames) pcols.push_back(find_param(p));
  for (const auto& c : cnames) ccols.push_back(find_counter(c));

  std::vector<std::string> row;
  for (std::size_t i = 0; i < count(); ++i) {
    row.assign({method_, ccaperf::fmt_double(wall_[i], 10),
                ccaperf::fmt_double(mpi_[i], 10), ccaperf::fmt_double(compute_us(i), 10)});
    for (const NamedColumn* c : pcols) {
      const double v = c->data[i];
      row.push_back(std::isnan(v) ? "" : ccaperf::fmt_double(v, 10));
    }
    for (const NamedColumn* c : ccols) {
      const double v = c->data[i];
      row.push_back(std::isnan(v) ? "" : ccaperf::fmt_double(v, 10));
    }
    csv.row(row);
  }
}

std::vector<std::pair<double, double>> Record::samples(const std::string& param,
                                                       Metric metric) const {
  std::vector<std::pair<double, double>> out;
  const NamedColumn* p = find_param(param);
  if (p == nullptr) return out;
  out.reserve(count());
  for (std::size_t i = 0; i < count(); ++i) {
    const double q = p->data[i];
    if (std::isnan(q)) continue;
    out.emplace_back(q, metric_at(i, metric));
  }
  return out;
}

std::vector<std::pair<double, double>> Record::samples(
    const std::string& param, const std::string& metric_source) const {
  if (metric_source == "wall") return samples(param, Metric::wall);
  if (metric_source == "compute") return samples(param, Metric::compute);
  if (metric_source == "mpi") return samples(param, Metric::mpi);
  std::vector<std::pair<double, double>> out;
  const NamedColumn* p = find_param(param);
  const NamedColumn* c = find_counter(metric_source);
  if (p == nullptr || c == nullptr) return out;
  out.reserve(count());
  for (std::size_t i = 0; i < count(); ++i) {
    const double q = p->data[i];
    const double v = c->data[i];
    if (std::isnan(q) || std::isnan(v)) continue;
    out.emplace_back(q, v);
  }
  return out;
}

// --- MastermindComponent -----------------------------------------------------

tau::Registry& MastermindComponent::registry() {
  if (resolved_.load(std::memory_order_acquire)) return *reg_;
  return resolve_measurement();
}

tau::Registry& MastermindComponent::resolve_measurement() {
  std::lock_guard<std::mutex> lk(mu_);
  if (!resolved_.load(std::memory_order_relaxed)) {
    MeasurementPort* port = svc_->get_port_as<MeasurementPort>("measurement");
    reg_ = &port->registry();
    mpi_group_ = reg_->group_id(tau::kMpiGroup);
    // Threading (DESIGN.md §9): when the measurement provider exposes
    // per-lane registry shards, worker pool lanes time into their own
    // shard; the rank thread (lane 0) keeps the primary registry, so with
    // one lane every path below is byte-identical to the serial build.
    shards_ = port->shards();
    const int lanes = shards_ != nullptr ? shards_->lanes() : 1;
    threaded_ = lanes > 1;
    lanes_.resize(static_cast<std::size_t>(lanes));
    for (Method& m : methods_) init_method_lane_state(m);
    resolved_.store(true, std::memory_order_release);
  }
  return *reg_;
}

void MastermindComponent::init_method_lane_state(Method& m) {
  const std::size_t n = lanes_.size();
  m.lane_timer.assign(n, 0);
  m.lane_timer_ok.assign(n, 0);
  m.lane_arg_string.assign(n, 0);
  m.lane_arg_ok.assign(n, 0);
  // The per-row lane id is only materialized for threaded ranks, so
  // single-threaded CSVs keep their exact pre-threading column set.
  if (threaded_) m.thread_col = m.record->ensure_param_column("thread");
}

MastermindComponent::Method& MastermindComponent::method_ref(MethodHandle h) {
  // Deque references are stable under push_back, but the deque's internal
  // block map is not: when other lanes may intern concurrently, take the
  // lock for the lookup itself (the returned reference stays valid).
  if (!threaded_) return methods_[h];
  std::lock_guard<std::mutex> lk(mu_);
  return methods_[h];
}

// Called with mu_ held on threaded ranks.
MethodHandle MastermindComponent::intern_method(std::string_view key) {
  const std::size_t n = methods_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i)
    if (methods_[i].key == key) return static_cast<MethodHandle>(i);
  Method m;
  m.key = std::string(key);
  m.record = std::make_unique<Record>(m.key);
  methods_.push_back(std::move(m));
  init_method_lane_state(methods_.back());
  methods_count_.store(methods_.size(), std::memory_order_release);
  return static_cast<MethodHandle>(methods_.size() - 1);
}

MethodHandle MastermindComponent::register_method(
    const std::string& method_key, const std::vector<std::string>& param_names) {
  CCAPERF_REQUIRE(param_names.size() <= kMaxMethodParams,
                  "Mastermind::register_method: too many parameters for '" +
                      method_key + "'");
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  const MethodHandle h = intern_method(method_key);
  Method& m = methods_[h];
  if (m.param_names.empty() && !param_names.empty()) {
    m.param_names = param_names;
    m.param_cols.clear();
    for (const std::string& n : param_names)
      m.param_cols.push_back(m.record->ensure_param_column(n));
  } else {
    CCAPERF_REQUIRE(param_names.empty() || param_names == m.param_names,
                    "Mastermind::register_method: conflicting parameter names for '" +
                        method_key + "'");
  }
  return h;
}

MastermindComponent::Open& MastermindComponent::push_open(LaneState& lane,
                                                          MethodHandle h) {
  if (lane.depth == lane.open.size()) lane.open.emplace_back();
  Open& o = lane.open[lane.depth++];
  o.method = h;
  o.n_params = 0;
  return o;
}

void MastermindComponent::start(MethodHandle method, ParamSpan params) {
  const int lane = ccaperf::ThreadPool::current_lane();
  if (lane != 0) {
    start_on_lane(method, params, lane);
    return;
  }
  // Self-overhead clock reads only when telemetry or the governor wants
  // the accounting: the bare monitoring fast path must not pay for them.
  const bool acct = telem_sink_ != nullptr || gov_ != nullptr;
  const tau::Clock::time_point t0 = acct ? tau::Clock::now() : tau::Clock::time_point{};
  tau::Registry& reg = registry();
  CCAPERF_REQUIRE(method < methods_count_.load(std::memory_order_acquire),
                  "Mastermind::start: bad method handle");
  Method& m = method_ref(method);
  CCAPERF_REQUIRE(params.size == m.param_names.size(),
                  "Mastermind::start: wrong parameter count for '" + m.key + "'");
  LaneState& L = lanes_[0];
  Open& o = push_open(L, method);
  o.n_params = static_cast<std::uint32_t>(params.size);
  for (std::size_t i = 0; i < params.size; ++i) o.param_vals[i] = params.data[i];
  // Call-path detection: the enclosing monitored method (if any) is the
  // caller of this invocation.
  const MethodHandle caller =
      L.depth >= 2 ? L.open[L.depth - 2].method : kInvalidMethodHandle;
  {
    std::unique_lock<std::mutex> lk;
    if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
    count_edge(caller, method);
    o.sampled = sample_decision(++m.calls_seen);
  }
  // Parameter capture and snapshots happen OUTSIDE the method timer, so
  // "these timings do not include the cost of the work done in the
  // proxies" (§5). Unsampled activations skip the snapshots entirely —
  // that's most of what monitor sampling saves.
  if (o.sampled) {
    o.mpi_us_start = reg.group_inclusive_us(mpi_group_);
    reg.counters().read_values(o.counters_start);
  }
  if (!m.timer_resolved) {
    m.timer = reg.timer(m.key, "PROXY");
    m.timer_resolved = true;
  }
  reg.start(m.timer);
  if (reg.tracing() && params.size > 0) {
    // The method's trace slice carries its first parameter (e.g. Q) as a
    // Perfetto slice argument.
    if (!m.arg_string_resolved) {
      m.arg_string = reg.trace_string(m.param_names[0]);
      m.arg_string_resolved = true;
    }
    reg.trace_arg(m.arg_string, params.data[0]);
  }
  if (acct) telem_self_us_ += us_between(t0, tau::Clock::now());
}

void MastermindComponent::stop(MethodHandle method) {
  const int lane = ccaperf::ThreadPool::current_lane();
  if (lane != 0) {
    stop_on_lane(method, lane);
    return;
  }
  const bool acct = telem_sink_ != nullptr || gov_ != nullptr;
  const tau::Clock::time_point t0 = acct ? tau::Clock::now() : tau::Clock::time_point{};
  tau::Registry& reg = registry();
  CCAPERF_REQUIRE(method < methods_count_.load(std::memory_order_acquire),
                  "Mastermind::stop: bad method handle");
  Method& m = method_ref(method);
  // The method timer's own activation is the invocation wall time — no
  // extra clock readings beyond the two the registry already takes.
  const double wall_us = m.timer_resolved ? reg.stop(m.timer) : 0.0;
  LaneState& L = lanes_[0];
  CCAPERF_REQUIRE(L.depth > 0 && L.open[L.depth - 1].method == method,
                  "Mastermind::stop: mismatched monitoring stop for '" + m.key + "'");
  Open& o = L.open[--L.depth];

  // Record append through telemetry shares the columns with worker-lane
  // rows, so the whole tail is one critical section on threaded ranks
  // (and lock-free when single-threaded).
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  if (o.sampled) {
    Record& rec = *m.record;
    const double mpi_us = reg.group_inclusive_us(mpi_group_) - o.mpi_us_start;
    rec.add_times(wall_us, mpi_us);
    for (std::size_t i = 0; i < o.n_params; ++i)
      rec.set_param(m.param_cols[i], o.param_vals[i]);
    if (threaded_) rec.set_param(m.thread_col, 0.0);

    reg.counters().read_values(counters_scratch_);
    if (counters_scratch_.size() != m.counter_cols.size()) refresh_counter_columns(m);
    for (std::size_t i = 0; i < counters_scratch_.size(); ++i) {
      // A counter registered mid-invocation has no before-value: treat as 0.
      const double before =
          i < o.counters_start.size() ? static_cast<double>(o.counters_start[i]) : 0.0;
      rec.set_counter(m.counter_cols[i], static_cast<double>(counters_scratch_[i]) - before);
    }
    rec.finish_row();
    ++m.calls_recorded;
  }

  if (acct) {
    if (o.sampled) ++telem_records_;
    telem_self_us_ += us_between(t0, tau::Clock::now());
    if (L.depth == 0) {
      if (gov_ != nullptr) {
        ++gov_calls_;
        governor_window_unlocked(reg);
      }
      if (telem_sink_ != nullptr) maybe_emit_telemetry();
    }
  }
}

void MastermindComponent::start_on_lane(MethodHandle method, ParamSpan params,
                                        int lane) {
  // Worker lanes never resolve ports or grow the lane table themselves:
  // the rank thread must have monitored (or at least resolved) once before
  // any in-region monitoring, so everything here is sized and immutable.
  CCAPERF_REQUIRE(resolved_.load(std::memory_order_acquire) && shards_ != nullptr,
                  "Mastermind: the first monitored call on a rank must happen on "
                  "the rank thread, before any parallel-region monitoring");
  CCAPERF_REQUIRE(method < methods_count_.load(std::memory_order_acquire),
                  "Mastermind::start: bad method handle");
  CCAPERF_REQUIRE(static_cast<std::size_t>(lane) < lanes_.size(),
                  "Mastermind::start: pool lane outside the measurement shard set");
  Method& m = method_ref(method);
  CCAPERF_REQUIRE(params.size == m.param_names.size(),
                  "Mastermind::start: wrong parameter count for '" + m.key + "'");
  tau::Registry& sreg = shards_->shard(lane);
  LaneState& L = lanes_[lane];
  Open& o = push_open(L, method);
  o.n_params = static_cast<std::uint32_t>(params.size);
  for (std::size_t i = 0; i < params.size; ++i) o.param_vals[i] = params.data[i];
  o.mpi_us_start = 0.0;  // no MPI happens on worker lanes
  {
    std::lock_guard<std::mutex> lk(mu_);
    count_edge(L.depth >= 2 ? L.open[L.depth - 2].method : kInvalidMethodHandle,
               method);
  }
  if (!m.lane_timer_ok[lane]) {
    m.lane_timer[lane] = sreg.timer(m.key, "PROXY");
    m.lane_timer_ok[lane] = 1;
  }
  sreg.start(m.lane_timer[lane]);
  if (sreg.tracing() && params.size > 0) {
    if (!m.lane_arg_ok[lane]) {
      m.lane_arg_string[lane] = sreg.trace_string(m.param_names[0]);
      m.lane_arg_ok[lane] = 1;
    }
    sreg.trace_arg(m.lane_arg_string[lane], params.data[0]);
  }
}

void MastermindComponent::stop_on_lane(MethodHandle method, int lane) {
  CCAPERF_REQUIRE(resolved_.load(std::memory_order_acquire) && shards_ != nullptr,
                  "Mastermind::stop: monitoring stop on an unresolved rank");
  CCAPERF_REQUIRE(method < methods_count_.load(std::memory_order_acquire),
                  "Mastermind::stop: bad method handle");
  Method& m = method_ref(method);
  tau::Registry& sreg = shards_->shard(lane);
  const double wall_us = m.lane_timer_ok[lane] ? sreg.stop(m.lane_timer[lane]) : 0.0;
  LaneState& L = lanes_[lane];
  CCAPERF_REQUIRE(L.depth > 0 && L.open[L.depth - 1].method == method,
                  "Mastermind::stop: mismatched monitoring stop for '" + m.key + "'");
  Open& o = L.open[--L.depth];

  std::lock_guard<std::mutex> lk(mu_);
  Record& rec = *m.record;
  rec.add_times(wall_us, 0.0);  // compute == wall off the rank thread
  for (std::size_t i = 0; i < o.n_params; ++i)
    rec.set_param(m.param_cols[i], o.param_vals[i]);
  rec.set_param(m.thread_col, static_cast<double>(lane));
  // Hardware counters are rank-level state read on the rank thread only;
  // worker rows leave the counter columns NaN.
  rec.finish_row();
  // Worker lanes are never monitor-sampled (their rows are the parallel
  // region's ground truth), but they still tally into the realized
  // fraction so it stays a true recorded/seen ratio for the method.
  ++m.calls_seen;
  ++m.calls_recorded;
  // Telemetry emission and generation retirement stay on lane 0; worker
  // rows still count toward the emission interval.
  if (telem_sink_ != nullptr) ++telem_records_;
}

// --- telemetry ---------------------------------------------------------------

void MastermindComponent::start_telemetry(std::ostream& sink,
                                          std::uint64_t interval_records) {
  tau::Registry& reg = registry();
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  telem_sink_ = &sink;
  telem_interval_base_ = interval_records < 1 ? 1 : interval_records;
  telem_interval_ = telem_interval_base_;
  if (gov_ != nullptr)
    telem_interval_ = telem_interval_base_ * gov_->settings().telem_interval_mult;
  telem_gen_ = reg.generation();
  telem_records_ = 0;
  telem_records_last_ = 0;
  telem_self_us_ = 0.0;
  telem_self_last_ = 0.0;
  telem_start_ = telem_last_ = tau::Clock::now();
  if (gov_ != nullptr) {
    // Re-anchor the governor's cumulative self-cost marker: the telemetry
    // component of self_total just reset to zero.
    gov_self_last_ = self_total_unlocked();
    gov_calls_last_ = gov_calls_;
    gov_last_ = telem_start_;
  }
  reg.counters().read_values(telem_counters_last_);
  telem_group_last_.assign(reg.num_groups(), 0.0);
  for (std::size_t g = 0; g < telem_group_last_.size(); ++g)
    telem_group_last_[g] = reg.group_inclusive_us(g);
}

void MastermindComponent::stop_telemetry() {
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  if (telem_sink_ == nullptr) return;
  emit_telemetry_unlocked();  // final line, so short runs never end up empty
  telem_sink_ = nullptr;
}

// Called with mu_ held on threaded ranks (from the lane-0 stop path).
void MastermindComponent::maybe_emit_telemetry() {
  if (telem_sink_ != nullptr &&
      telem_records_ - telem_records_last_ >= telem_interval_)
    emit_telemetry_unlocked();
}

void MastermindComponent::emit_telemetry() {
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  emit_telemetry_unlocked();
}

void MastermindComponent::emit_telemetry_unlocked() {
  if (telem_sink_ == nullptr) return;
  const tau::Clock::time_point t0 = tau::Clock::now();
  tau::Registry& reg = registry();

  // Count the timers that fired since the previous line, then advance the
  // low-water mark.
  const std::size_t timers_changed = reg.timers_changed_since(telem_gen_);
  telem_gen_ = reg.generation();

  const double dt_s = us_between(telem_last_, t0) / 1e6;
  const std::uint64_t drec = telem_records_ - telem_records_last_;

  std::ostream& os = *telem_sink_;
  os << "{\"t_us\":" << ccaperf::json_number(us_between(telem_start_, t0), 3)
     << ",\"records\":" << telem_records_
     << ",\"records_per_s\":"
     << ccaperf::json_number(dt_s > 0.0 ? static_cast<double>(drec) / dt_s : 0.0, 3)
     << ",\"timers_changed\":" << timers_changed;

  const std::size_t ngroups = reg.num_groups();
  telem_group_last_.resize(ngroups, 0.0);
  std::vector<double> group_now(ngroups, 0.0);
  for (std::size_t g = 0; g < ngroups; ++g) group_now[g] = reg.group_inclusive_us(g);
  os << ",\"group_us\":{";
  for (std::size_t g = 0; g < ngroups; ++g)
    os << (g ? "," : "") << "\"" << ccaperf::json_escape(reg.group_name(g))
       << "\":" << ccaperf::json_number(group_now[g], 3);
  os << "},\"group_delta_us\":{";
  for (std::size_t g = 0; g < ngroups; ++g) {
    os << (g ? "," : "") << "\"" << ccaperf::json_escape(reg.group_name(g))
       << "\":" << ccaperf::json_number(group_now[g] - telem_group_last_[g], 3);
    telem_group_last_[g] = group_now[g];
  }
  os << "}";

  reg.counters().read_values(counters_scratch_);
  const std::vector<std::string> counter_names = reg.counters().names();
  telem_counters_last_.resize(counters_scratch_.size(), 0);
  os << ",\"counter_delta\":{";
  for (std::size_t i = 0; i < counters_scratch_.size(); ++i) {
    os << (i ? "," : "") << "\"" << ccaperf::json_escape(counter_names[i]) << "\":"
       << (counters_scratch_[i] - telem_counters_last_[i]);
    telem_counters_last_[i] = counters_scratch_[i];
  }
  os << "}";

  const tau::TraceBuffer& tb = reg.trace();
  os << ",\"trace\":{\"retained\":" << tb.size() << ",\"total\":" << tb.total()
     << ",\"dropped\":" << tb.dropped() << "}";

  // Optional metadata: the resolved hardware-counter backend and, when the
  // governor is attached, its current throttle level.
  if (!hwc_backend_.empty())
    os << ",\"hwc\":\"" << ccaperf::json_escape(hwc_backend_) << "\"";
  if (!session_label_.empty())
    os << ",\"session\":\"" << ccaperf::json_escape(session_label_) << "\"";
  if (gov_ != nullptr) os << ",\"governor_level\":" << gov_->level();

  ++telem_lines_;
  telem_records_last_ = telem_records_;
  const tau::Clock::time_point prev_line = telem_last_;
  telem_last_ = tau::Clock::now();
  telem_self_us_ += us_between(t0, telem_last_);
  // Realized measurement overhead over the interval this line closes:
  // self-cost delta (including this emission) against wall-clock delta.
  const double interval_wall = us_between(prev_line, telem_last_);
  const double interval_self = telem_self_us_ - telem_self_last_;
  telem_self_last_ = telem_self_us_;
  os << ",\"overhead_pct\":"
     << ccaperf::json_number(
            interval_wall > 0.0
                ? 100.0 * std::max(0.0, interval_self) / interval_wall
                : 0.0,
            3)
     << ",\"self_us\":" << ccaperf::json_number(telem_self_us_, 3) << "}\n";
}

// --- overhead governor (DESIGN.md §12) ---------------------------------------

void MastermindComponent::attach_governor(OverheadGovernor* gov) {
  CCAPERF_REQUIRE(gov != nullptr, "Mastermind::attach_governor: null governor");
  tau::Registry& reg = registry();
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  gov_ = gov;
  gov_seed_ = gov->config().seed;
  gov_monitor_stride_ = gov->settings().monitor_stride;
  gov_calls_last_ = gov_calls_;
  gov_self_last_ = self_total_unlocked();
  gov_last_ = tau::Clock::now();
  // The controller's own decisions become observable state: a GOVERNOR_*
  // counter group sampled into telemetry deltas and the Perfetto counter
  // track like any hardware counter. Registered only on attach, so
  // ungoverned runs keep their exact counter layout.
  hwc::CounterRegistry& cr = reg.counters();
  cr.add_source("GOVERNOR_LEVEL",
                [gov] { return static_cast<std::uint64_t>(gov->level()); });
  cr.add_source("GOVERNOR_DECISIONS", [gov] { return gov->decisions(); });
  cr.add_source("GOVERNOR_THROTTLES", [gov] { return gov->throttles(); });
  cr.add_source("GOVERNOR_UNTHROTTLES", [gov] { return gov->unthrottles(); });
  cr.add_source("GOVERNOR_OVERHEAD_BP", [gov] { return gov->last_overhead_bp(); });
}

void MastermindComponent::add_cost_source(std::string name,
                                          std::function<double()> cumulative_us) {
  CCAPERF_REQUIRE(cumulative_us != nullptr, "Mastermind: null cost source");
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  cost_sources_.emplace_back(std::move(name), std::move(cumulative_us));
}

void MastermindComponent::set_telemetry_hwc(std::string backend) {
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  hwc_backend_ = std::move(backend);
}

void MastermindComponent::set_telemetry_session(std::string name) {
  std::unique_lock<std::mutex> lk;
  if (threaded_) lk = std::unique_lock<std::mutex>(mu_);
  session_label_ = std::move(name);
}

double MastermindComponent::realized_fraction(const std::string& method_key) const {
  const std::size_t n = methods_count_.load(std::memory_order_acquire);
  for (std::size_t i = 0; i < n; ++i) {
    const Method& m = methods_[i];
    if (m.key != method_key) continue;
    if (m.calls_seen == 0) return 1.0;
    return static_cast<double>(m.calls_recorded) /
           static_cast<double>(m.calls_seen);
  }
  return 1.0;
}

double MastermindComponent::self_total_unlocked() const {
  double total = telem_self_us_;
  for (const auto& [name, fn] : cost_sources_) total += fn();
  return total;
}

std::uint32_t MastermindComponent::governor_instant_string(tau::Registry& reg,
                                                           bool throttle,
                                                           int level) {
  // Bounded label set (2 directions x kMaxLevel+1 levels), interned lazily
  // so the trace-string table never grows with decision count.
  const std::size_t count =
      2 * static_cast<std::size_t>(OverheadGovernor::kMaxLevel + 1);
  const std::size_t idx = (throttle ? 1u : 0u) *
                              static_cast<std::size_t>(OverheadGovernor::kMaxLevel + 1) +
                          static_cast<std::size_t>(level);
  if (gov_instant_ids_.size() < count) {
    gov_instant_ids_.assign(count, 0);
    gov_instant_ok_.assign(count, 0);
  }
  if (!gov_instant_ok_[idx]) {
    char buf[48];
    std::snprintf(buf, sizeof(buf), "governor: %s to L%d",
                  throttle ? "throttle" : "relax", level);
    gov_instant_ids_[idx] = reg.trace_string(buf);
    gov_instant_ok_[idx] = 1;
  }
  return gov_instant_ids_[idx];
}

// Called with mu_ held on threaded ranks (from the lane-0 stop path).
void MastermindComponent::governor_window_unlocked(tau::Registry& reg) {
  const GovernorConfig& cfg = gov_->config();
  if (gov_calls_ - gov_calls_last_ < cfg.window_records) return;
  const tau::Clock::time_point now = tau::Clock::now();
  OverheadGovernor::Window w;
  w.wall_us = us_between(gov_last_, now);
  const double self = self_total_unlocked();
  w.self_us = self - gov_self_last_;
  w.records = gov_calls_ - gov_calls_last_;
  const OverheadGovernor::Decision d = gov_->observe(w);
  if (!d.evaluated) return;  // degenerate window: keep accumulating
  gov_last_ = now;
  gov_self_last_ = self;
  gov_calls_last_ = gov_calls_;
  if (d.changed) {
    // Audit trail: sample the counter track (GOVERNOR_LEVEL already holds
    // the new level) under the *outgoing* verbosity, actuate, then drop an
    // instant marker — instants survive every tier.
    reg.trace_counter_samples();
    apply_governor_settings_unlocked(reg);
    reg.trace_instant(
        governor_instant_string(reg, d.level > d.prev_level, d.level));
    emit_governor_line_unlocked(d);
  }
}

void MastermindComponent::apply_governor_settings_unlocked(tau::Registry& reg) {
  const OverheadGovernor::Settings s = gov_->settings();
  reg.set_trace_tier(s.trace_tier);
  telem_interval_ = telem_interval_base_ * s.telem_interval_mult;
  if (telem_interval_ < 1) telem_interval_ = 1;
  gov_monitor_stride_ = s.monitor_stride;
}

void MastermindComponent::emit_governor_line_unlocked(
    const OverheadGovernor::Decision& d) {
  if (telem_sink_ == nullptr) return;
  const OverheadGovernor::Settings s = gov_->settings();
  std::ostream& os = *telem_sink_;
  os << "{\"t_us\":"
     << ccaperf::json_number(us_between(telem_start_, tau::Clock::now()), 3)
     << ",\"governor\":{\"event\":\"tier\",\"level\":" << d.level
     << ",\"prev\":" << d.prev_level
     << ",\"overhead_pct\":" << ccaperf::json_number(d.overhead_pct, 3)
     << ",\"budget_pct\":" << ccaperf::json_number(gov_->config().budget_pct, 3)
     << ",\"headroom_pct\":" << ccaperf::json_number(d.headroom_pct, 3)
     << ",\"trace_tier\":\"" << tau::trace_tier_name(s.trace_tier)
     << "\",\"monitor_stride\":" << s.monitor_stride
     << ",\"telem_interval\":" << telem_interval_ << "}}\n";
  ++telem_lines_;
}

void MastermindComponent::refresh_counter_columns(Method& m) {
  m.counter_cols.clear();
  for (const std::string& n : reg_->counters().names())
    m.counter_cols.push_back(m.record->ensure_counter_column(n));
}

void MastermindComponent::count_edge(MethodHandle caller, MethodHandle callee) {
  for (std::size_t i = 0; i < edge_ids_.size(); ++i) {
    if (edge_ids_[i].first == caller && edge_ids_[i].second == callee) {
      ++edges_[i].count;
      return;
    }
  }
  edge_ids_.emplace_back(caller, callee);
  edges_.push_back(CallEdge{
      caller == kInvalidMethodHandle ? std::string{} : methods_[caller].key,
      methods_[callee].key, 1});
}

std::uint64_t MastermindComponent::call_count(const std::string& caller,
                                              const std::string& callee) const {
  for (const CallEdge& e : edges_)
    if (e.caller == caller && e.callee == callee) return e.count;
  return 0;
}

const Record* MastermindComponent::record(const std::string& method_key) const {
  for (const Method& m : methods_)
    if (m.key == method_key && m.record->count() > 0) return m.record.get();
  return nullptr;
}

std::vector<std::string> MastermindComponent::method_keys() const {
  std::vector<std::string> keys;
  keys.reserve(methods_.size());
  for (const Method& m : methods_)
    if (m.record->count() > 0) keys.push_back(m.key);
  return keys;
}

void MastermindComponent::dump_all(const std::string& dir, int rank) const {
  std::filesystem::create_directories(dir);
  for (const Method& m : methods_) {
    if (m.record->count() == 0) continue;
    std::string name = m.key;
    for (char& ch : name)
      if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
    std::ofstream os(dir + "/" + name + ".rank" + std::to_string(rank) + ".csv");
    m.record->dump_csv(os);
  }
}

MastermindComponent::~MastermindComponent() {
  if (dump_dir_) dump_all(*dump_dir_, dump_rank_);
}

}  // namespace core
