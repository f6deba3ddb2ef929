#include "core/telemetry_hub.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "support/error.hpp"
#include "support/json.hpp"

namespace core {
namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

double us_since(std::chrono::steady_clock::time_point from,
                std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Scrapes `"overhead_pct":<number>` out of a telemetry line. Returns
/// false when the line carries no such field (governor events, aggregate
/// lines, synthetic test payloads).
bool scrape_overhead_pct(const std::string& line, double* out) {
  static constexpr char kKey[] = "\"overhead_pct\":";
  const std::size_t at = line.find(kKey);
  if (at == std::string::npos) return false;
  const char* start = line.c_str() + at + sizeof(kKey) - 1;
  char* end = nullptr;
  const double v = std::strtod(start, &end);
  if (end == start) return false;
  *out = v;
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// HubSinkBuf

void HubSinkBuf::accept(const char* s, std::size_t n) {
  std::size_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (s[i] != '\n') continue;
    pending_.append(s + begin, i - begin);
    hub_->publish(id_, incarnation_, std::move(pending_));
    pending_.clear();
    begin = i + 1;
  }
  pending_.append(s + begin, n - begin);
}

void HubSinkBuf::flush_tail() {
  if (pending_.empty()) return;
  hub_->publish(id_, incarnation_, std::move(pending_));
  pending_.clear();
}

HubSinkBuf::int_type HubSinkBuf::overflow(int_type ch) {
  if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
  const char c = traits_type::to_char_type(ch);
  accept(&c, 1);
  return ch;
}

std::streamsize HubSinkBuf::xsputn(const char* s, std::streamsize n) {
  accept(s, static_cast<std::size_t>(n));
  return n;
}

namespace {

/// ostream owning its HubSinkBuf. The buf is a *base* so it is constructed
/// before std::ostream sees it and destroyed after (flushing its tail).
class HubSinkStream : private HubSinkBuf, public std::ostream {
 public:
  HubSinkStream(TelemetryHub* hub, SessionId id, std::uint32_t incarnation)
      : HubSinkBuf(hub, id, incarnation),
        std::ostream(static_cast<HubSinkBuf*>(this)) {}
};

}  // namespace

// ---------------------------------------------------------------------------
// SessionHandle

SessionHandle& SessionHandle::operator=(SessionHandle&& o) noexcept {
  if (this == &o) return *this;
  close();
  // Handles are moved before concurrent sink use begins, so stealing the
  // sink list without o.sinks_mu_ is fine.
  hub_ = o.hub_;
  id_ = o.id_;
  incarnation_ = o.incarnation_;
  name_ = std::move(o.name_);
  scenario_ = std::move(o.scenario_);
  sinks_ = std::move(o.sinks_);
  o.hub_ = nullptr;
  o.id_ = kInvalidSession;
  return *this;
}

std::ostream& SessionHandle::sink() {
  std::lock_guard<std::mutex> lk(sinks_mu_);
  CCAPERF_REQUIRE(hub_ != nullptr, "SessionHandle::sink on a closed handle");
  if (sinks_.empty())
    sinks_.push_back(std::make_unique<HubSinkStream>(hub_, id_, incarnation_));
  return *sinks_.front();
}

std::ostream& SessionHandle::make_sink() {
  std::lock_guard<std::mutex> lk(sinks_mu_);
  CCAPERF_REQUIRE(hub_ != nullptr, "SessionHandle::make_sink on a closed handle");
  sinks_.push_back(std::make_unique<HubSinkStream>(hub_, id_, incarnation_));
  return *sinks_.back();
}

void SessionHandle::publish(std::string_view line) {
  CCAPERF_REQUIRE(hub_ != nullptr, "SessionHandle::publish on a closed handle");
  hub_->publish(id_, incarnation_, std::string(line));
}

void SessionHandle::add_trace(RankTrace trace) {
  CCAPERF_REQUIRE(hub_ != nullptr, "SessionHandle::add_trace on a closed handle");
  hub_->add_trace(id_, incarnation_, std::move(trace));
}

void SessionHandle::close() {
  if (hub_ == nullptr) return;
  {
    // Destroying the sink streams flushes any unterminated tails through
    // HubSinkBuf::~HubSinkBuf while the hub is still reachable.
    std::lock_guard<std::mutex> lk(sinks_mu_);
    sinks_.clear();
  }
  hub_->close_session(id_, incarnation_);
  hub_ = nullptr;
  id_ = kInvalidSession;
}

// ---------------------------------------------------------------------------
// TelemetryHub

TelemetryHub::TelemetryHub() : TelemetryHub(Config{}) {}

TelemetryHub::TelemetryHub(Config cfg) : cfg_(cfg) {
  CCAPERF_REQUIRE(cfg_.shards > 0, "TelemetryHub: zero shards");
  CCAPERF_REQUIRE(cfg_.shard_capacity > 0, "TelemetryHub: zero shard capacity");
  cfg_.shards = round_up_pow2(cfg_.shards);
  shard_mask_ = cfg_.shards - 1;
  shards_.reserve(cfg_.shards);
  for (std::size_t i = 0; i < cfg_.shards; ++i)
    shards_.push_back(std::make_unique<Shard>());
  agg_epoch_ = agg_last_ = agg_due_ = std::chrono::steady_clock::now();
  drainer_ = std::make_unique<ccaperf::ServiceThread>(
      "hub-drainer", cfg_.drain_interval, [this] { drain_cycle(); });
}

TelemetryHub::~TelemetryHub() {
  drainer_->stop();  // final drain runs on this thread
  std::lock_guard<std::mutex> lk(state_mu_);
  if (aggregate_sink_ != nullptr) emit_aggregate_unlocked(*aggregate_sink_);
}

SessionHandle TelemetryHub::open_session(std::string name, std::string scenario,
                                         std::string fault_plan) {
  CCAPERF_REQUIRE(!name.empty(), "TelemetryHub: empty session name");
  std::lock_guard<std::mutex> lk(state_mu_);
  const SessionId id = names_.intern(name);
  if (id == sessions_.size()) sessions_.emplace_back();
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: interner out of sync");
  Session& s = sessions_[id];
  CCAPERF_REQUIRE(!s.open, "TelemetryHub: session name already open");
  // Reopening a name reuses its dense id under a fresh incarnation; the
  // previous life's retained stream and accounting are released.
  bytes_retained_ -= s.bytes;
  const std::uint32_t incarnation = s.incarnation + 1;
  s = Session{};
  s.name = name;
  s.scenario = std::move(scenario);
  s.fault_plan = std::move(fault_plan);
  s.incarnation = incarnation;
  s.open = true;
  ++sessions_opened_;
  return SessionHandle(this, id, incarnation, std::move(name), s.scenario);
}

void TelemetryHub::set_aggregate_sink(std::ostream* os) {
  std::lock_guard<std::mutex> lk(state_mu_);
  aggregate_sink_ = os;
}

void TelemetryHub::publish(SessionId id, std::uint32_t incarnation,
                           std::string line) {
  Shard& sh = shard_for(id);
  bool nudge = false;
  {
    std::lock_guard<std::mutex> lk(sh.mu);
    if (sh.ring.empty()) sh.ring.resize(cfg_.shard_capacity);
    auto& tally = sh.tally[{id, incarnation}];
    if (sh.count == sh.ring.size()) {
      // Backpressure: reject the new line, never stall the producer.
      ++tally.dropped;
      dropped_ring_.fetch_add(1, std::memory_order_relaxed);
      nudge = true;
    } else {
      ShardItem& it = sh.ring[(sh.head + sh.count) % sh.ring.size()];
      it.session = id;
      it.incarnation = incarnation;
      it.text = std::move(line);
      ++sh.count;
      ++tally.accepted;
      published_.fetch_add(1, std::memory_order_relaxed);
      nudge = sh.count * 2 >= sh.ring.size();  // high-water mark
    }
  }
  if (nudge && drainer_ != nullptr) drainer_->wake();
}

void TelemetryHub::add_trace(SessionId id, std::uint32_t incarnation,
                             RankTrace trace) {
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  Session& s = sessions_[id];
  if (s.incarnation != incarnation) return;  // stale life, discard
  s.traces.push_back(std::move(trace));
}

void TelemetryHub::close_session(SessionId id, std::uint32_t incarnation) {
  // Drain first so everything the session published is folded into its
  // retained stream and accounting before the session reads as closed.
  drain_now();
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  Session& s = sessions_[id];
  if (s.incarnation != incarnation || !s.open) return;
  s.open = false;
  ++sessions_closed_;
}

void TelemetryHub::drain_now() { drain_cycle(); }

void TelemetryHub::drain_cycle() {
  std::lock_guard<std::mutex> drain_lk(drain_mu_);
  drain_shards_locked();
  // Aggregate cadence: 0 means every drain cycle.
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lk(state_mu_);
  ++drain_ticks_;
  if (aggregate_sink_ != nullptr &&
      (cfg_.aggregate_interval.count() == 0 || now >= agg_due_)) {
    emit_aggregate_unlocked(*aggregate_sink_);
    agg_due_ = now + cfg_.aggregate_interval;
  }
}

void TelemetryHub::drain_shards_locked() {
  // Phase 1: lift items and tallies out of every shard under only that
  // shard's mutex, preserving per-shard FIFO order (= per-session order,
  // since a session maps to exactly one shard).
  std::vector<ShardItem> items;
  std::vector<std::pair<SessionKey, ShardTally>> tallies;
  for (auto& shp : shards_) {
    Shard& sh = *shp;
    std::lock_guard<std::mutex> lk(sh.mu);
    for (std::size_t i = 0; i < sh.count; ++i)
      items.push_back(std::move(sh.ring[(sh.head + i) % sh.ring.size()]));
    sh.head = sh.count = 0;
    for (auto& kv : sh.tally) tallies.emplace_back(kv.first, kv.second);
    sh.tally.clear();
  }

  // Phase 2: fold into retained state under state_mu_.
  std::lock_guard<std::mutex> lk(state_mu_);
  for (auto& [key, tally] : tallies) {
    const auto [id, incarnation] = key;
    if (id >= sessions_.size()) continue;
    Session& s = sessions_[id];
    if (s.incarnation != incarnation) continue;  // a dead life's tallies
    s.published += tally.accepted;
    s.dropped_ring += tally.dropped;
  }
  for (ShardItem& it : items) {
    if (it.session >= sessions_.size()) continue;
    Session& s = sessions_[it.session];
    if (s.incarnation != it.incarnation) continue;  // stale, never misfiled
    double pct = 0.0;
    if (scrape_overhead_pct(it.text, &pct)) {
      s.agg_overhead_sum += pct;
      ++s.agg_overhead_n;
    }
    bytes_retained_ += it.text.size();
    s.bytes += it.text.size();
    s.lines.push_back(SessionLine{next_seq_++, std::move(it.text)});
    ++s.drained;
    ++drained_total_;
  }
  enforce_bounds_unlocked();
  bytes_peak_ = std::max(bytes_peak_, bytes_retained_);
}

void TelemetryHub::evict_front_unlocked(Session& s) {
  const std::uint64_t sz = s.lines.front().text.size();
  s.lines.pop_front();
  s.bytes -= sz;
  bytes_retained_ -= sz;
  ++s.dropped_evicted;
  ++dropped_evicted_total_;
}

void TelemetryHub::enforce_bounds_unlocked() {
  // Per-session line cap: a chatty session sheds its own oldest lines.
  for (Session& s : sessions_)
    while (s.lines.size() > cfg_.session_line_cap) evict_front_unlocked(s);
  // Hub-wide byte budget: evict the globally oldest retained line until
  // under budget. O(sessions) scan per eviction — sessions are dozens to
  // hundreds, evictions amortize against the lines they free.
  while (bytes_retained_ > cfg_.memory_budget_bytes) {
    Session* oldest = nullptr;
    for (Session& s : sessions_) {
      if (s.lines.empty()) continue;
      if (oldest == nullptr || s.lines.front().seq < oldest->lines.front().seq)
        oldest = &s;
    }
    if (oldest == nullptr) break;  // budget smaller than nothing retained
    evict_front_unlocked(*oldest);
  }
}

std::vector<SessionLine> TelemetryHub::session_lines(SessionId id) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  const Session& s = sessions_[id];
  return std::vector<SessionLine>(s.lines.begin(), s.lines.end());
}

std::string TelemetryHub::session_text(SessionId id) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  const Session& s = sessions_[id];
  std::string out;
  out.reserve(s.bytes + s.lines.size());
  for (const SessionLine& l : s.lines) {
    out += l.text;
    out += '\n';
  }
  return out;
}

SessionStats TelemetryHub::session_stats(SessionId id) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  const Session& s = sessions_[id];
  SessionStats st;
  st.published = s.published;
  st.drained = s.drained;
  st.dropped_ring = s.dropped_ring;
  st.dropped_evicted = s.dropped_evicted;
  st.retained = s.lines.size();
  st.retained_bytes = s.bytes;
  st.open = s.open;
  return st;
}

SessionId TelemetryHub::find_session(std::string_view name) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  const std::uint32_t id = names_.find(name);
  return id == tau::NameInterner::kNotFound ? kInvalidSession : id;
}

std::string TelemetryHub::session_fault_plan(SessionId id) const {
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  return sessions_[id].fault_plan;
}

MergeStats TelemetryHub::export_session_trace(SessionId id,
                                              std::ostream& os) const {
  TraceMerger merger;
  {
    std::lock_guard<std::mutex> lk(state_mu_);
    CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
    for (const RankTrace& t : sessions_[id].traces) merger.add_rank(t);
  }
  return merger.write_chrome_trace(os);
}

HubStats TelemetryHub::stats() const {
  std::lock_guard<std::mutex> lk(state_mu_);
  HubStats h;
  h.sessions_opened = sessions_opened_;
  h.sessions_closed = sessions_closed_;
  h.sessions_open = sessions_opened_ - sessions_closed_;
  h.published = published_.load(std::memory_order_relaxed);
  h.drained = drained_total_;
  h.dropped_ring = dropped_ring_.load(std::memory_order_relaxed);
  h.dropped_evicted = dropped_evicted_total_;
  h.bytes_retained = bytes_retained_;
  h.bytes_peak = bytes_peak_;
  h.drain_ticks = drain_ticks_;
  h.aggregate_lines = aggregate_lines_;
  return h;
}

void TelemetryHub::emit_aggregate(std::ostream& os) {
  std::lock_guard<std::mutex> lk(state_mu_);
  emit_aggregate_unlocked(os);
}

void TelemetryHub::emit_aggregate_unlocked(std::ostream& os) {
  const auto now = std::chrono::steady_clock::now();
  const double dt_us = us_since(agg_last_, now);
  const double dt_s = dt_us > 0.0 ? dt_us * 1e-6 : 0.0;
  const std::uint64_t d_rows = drained_total_ - agg_last_drained_;
  const std::uint64_t d_opened = sessions_opened_ - agg_last_opened_;

  os << "{\"t_us\":" << ccaperf::json_number(us_since(agg_epoch_, now), 1)
     << ",\"sessions_open\":" << (sessions_opened_ - sessions_closed_)
     << ",\"sessions_opened\":" << sessions_opened_
     << ",\"sessions_closed\":" << sessions_closed_
     << ",\"sessions_per_s\":"
     << ccaperf::json_number(dt_s > 0.0 ? d_opened / dt_s : 0.0, 3)
     << ",\"rows_per_s\":"
     << ccaperf::json_number(dt_s > 0.0 ? d_rows / dt_s : 0.0, 3)
     << ",\"published\":" << published_.load(std::memory_order_relaxed)
     << ",\"drained\":" << drained_total_
     << ",\"dropped_ring\":" << dropped_ring_.load(std::memory_order_relaxed)
     << ",\"dropped_evicted\":" << dropped_evicted_total_
     << ",\"bytes_retained\":" << bytes_retained_
     << ",\"bytes_peak\":" << bytes_peak_ << ",\"drain_ticks\":" << drain_ticks_;

  // Per-scenario breakdown: open-session counts and the overhead_pct
  // scraped from the sessions' own lines since the previous aggregate.
  struct ScenarioAgg {
    std::uint64_t sessions = 0;
    double overhead_sum = 0.0;
    std::uint64_t overhead_n = 0;
  };
  std::map<std::string, ScenarioAgg> by_scenario;
  for (Session& s : sessions_) {
    if (s.scenario.empty()) continue;
    ScenarioAgg& a = by_scenario[s.scenario];
    if (s.open) ++a.sessions;
    a.overhead_sum += s.agg_overhead_sum;
    a.overhead_n += s.agg_overhead_n;
    s.agg_overhead_sum = 0.0;
    s.agg_overhead_n = 0;
  }
  os << ",\"scenarios\":{";
  bool first = true;
  for (const auto& [scenario, a] : by_scenario) {
    if (!first) os << ",";
    first = false;
    os << "\"" << ccaperf::json_escape(scenario) << "\":{\"sessions\":"
       << a.sessions << ",\"overhead_lines\":" << a.overhead_n
       << ",\"overhead_pct_mean\":"
       << ccaperf::json_number(
              a.overhead_n > 0 ? a.overhead_sum / a.overhead_n : 0.0, 3)
       << "}";
  }
  os << "}}\n";
  os.flush();

  ++aggregate_lines_;
  agg_last_ = now;
  agg_last_drained_ = drained_total_;
  agg_last_opened_ = sessions_opened_;
}

}  // namespace core
