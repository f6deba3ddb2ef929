#include "core/telemetry_hub.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <utility>

#include "support/error.hpp"
#include "support/json.hpp"

namespace core {
namespace {

double us_since(std::chrono::steady_clock::time_point from,
                std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Scrapes `"overhead_pct":<number>` out of a telemetry line. Returns
/// false when the line carries no such field (aggregate lines, synthetic
/// test payloads). Searches from the end, where the Mastermind's periodic
/// lines carry the field: every publish pays for this scan.
bool scrape_overhead_pct(const std::string& line, double* out) {
  static constexpr char kKey[] = "\"overhead_pct\":";
  const std::size_t at = line.rfind(kKey);
  if (at == std::string::npos) return false;
  const char* start = line.data() + at + sizeof(kKey) - 1;
  return std::from_chars(start, line.data() + line.size(), *out).ec == std::errc();
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
  agg_epoch_ = agg_last_ = std::chrono::steady_clock::now();
}

SessionHandle TelemetryHub::open_session(std::string name, std::string scenario) {
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
  s.incarnation = incarnation;
  s.open = true;
  ++sessions_opened_;
  return SessionHandle(this, id, incarnation, std::move(name), s.scenario);
}

void TelemetryHub::publish(SessionId id, std::uint32_t incarnation,
                           std::string line) {
  double pct = 0.0;
  const bool has_pct = scrape_overhead_pct(line, &pct);
  const std::uint64_t size = line.size();
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  Session& s = sessions_[id];
  if (s.incarnation != incarnation) return;  // stale life, never misfiled
  if (has_pct) {
    s.agg_overhead_sum += pct;
    ++s.agg_overhead_n;
  }
  bytes_retained_ += size;
  s.bytes += size;
  s.lines.push_back(SessionLine{next_seq_++, std::move(line)});
  ++s.published;
  ++published_total_;

  // Per-session line cap: a chatty session sheds its own oldest line.
  if (s.lines.size() > cfg_.session_line_cap) evict_front_unlocked(s);
  // Hub-wide byte budget: evict the globally oldest retained line until
  // under budget. O(sessions) scan per eviction — sessions are dozens to
  // hundreds, evictions amortize against the lines they free.
  while (bytes_retained_ > cfg_.memory_budget_bytes) {
    Session* oldest = nullptr;
    for (Session& o : sessions_) {
      if (o.lines.empty()) continue;
      if (oldest == nullptr || o.lines.front().seq < oldest->lines.front().seq)
        oldest = &o;
    }
    evict_front_unlocked(*oldest);  // non-null: bytes_retained_ > 0
  }
  bytes_peak_ = std::max(bytes_peak_, bytes_retained_);
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
  std::lock_guard<std::mutex> lk(state_mu_);
  CCAPERF_REQUIRE(id < sessions_.size(), "TelemetryHub: unknown session");
  Session& s = sessions_[id];
  if (s.incarnation != incarnation || !s.open) return;
  s.open = false;
  ++sessions_closed_;
}

void TelemetryHub::evict_front_unlocked(Session& s) {
  const std::uint64_t sz = s.lines.front().text.size();
  s.lines.pop_front();
  s.bytes -= sz;
  bytes_retained_ -= sz;
  ++s.dropped_evicted;
  ++dropped_evicted_total_;
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
  h.published = published_total_;
  h.dropped_evicted = dropped_evicted_total_;
  h.bytes_retained = bytes_retained_;
  h.bytes_peak = bytes_peak_;
  h.aggregate_lines = aggregate_lines_;
  return h;
}

void TelemetryHub::emit_aggregate(std::ostream& os) {
  std::lock_guard<std::mutex> lk(state_mu_);
  const auto now = std::chrono::steady_clock::now();
  const double dt_us = us_since(agg_last_, now);
  const double dt_s = dt_us > 0.0 ? dt_us * 1e-6 : 0.0;
  const std::uint64_t d_rows = published_total_ - agg_last_published_;
  const std::uint64_t d_opened = sessions_opened_ - agg_last_opened_;

  os << "{\"t_us\":" << ccaperf::json_number(us_since(agg_epoch_, now), 1)
     << ",\"sessions_open\":" << (sessions_opened_ - sessions_closed_)
     << ",\"sessions_opened\":" << sessions_opened_
     << ",\"sessions_closed\":" << sessions_closed_
     << ",\"sessions_per_s\":"
     << ccaperf::json_number(dt_s > 0.0 ? d_opened / dt_s : 0.0, 3)
     << ",\"rows_per_s\":"
     << ccaperf::json_number(dt_s > 0.0 ? d_rows / dt_s : 0.0, 3)
     << ",\"published\":" << published_total_
     << ",\"dropped_evicted\":" << dropped_evicted_total_
     << ",\"bytes_retained\":" << bytes_retained_
     << ",\"bytes_peak\":" << bytes_peak_;

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
  agg_last_published_ = published_total_;
  agg_last_opened_ = sessions_opened_;
}

}  // namespace core
