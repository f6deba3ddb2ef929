#include "tau/registry.hpp"

#include <ostream>

namespace tau {

namespace {

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

}  // namespace

// --- timer names -------------------------------------------------------------

TimerId Registry::timer(std::string_view name, std::string_view group) {
  // The interner hands out ids densely in first-sight order, so a name seen
  // for the first time gets exactly the next timer slot.
  const TimerId id = timer_names_.intern(name);
  if (id < timers_.size()) return id;
  timers_.push_back(TimerStats{std::string(name), std::string(group), 0, 0.0, 0.0});
  active_depth_.push_back(0);
  timer_group_.push_back(intern_group(group));
  timer_gen_.push_back(0);
  return id;
}

bool Registry::has_timer(std::string_view name) const {
  return timer_names_.contains(name);
}

// --- groups ------------------------------------------------------------------

GroupId Registry::intern_group(std::string_view group) {
  // Handful of groups only (TAU_DEFAULT, MPI, PROXY, ...): linear scan.
  for (GroupId g = 0; g < groups_.size(); ++g)
    if (groups_[g].name == group) return g;
  groups_.push_back(Group{std::string(group)});
  return groups_.size() - 1;
}

GroupId Registry::group_id(std::string_view group) { return intern_group(group); }

const Registry::Group* Registry::find_group(std::string_view group) const {
  for (const Group& g : groups_)
    if (g.name == group) return &g;
  return nullptr;
}

void Registry::set_group_enabled(std::string_view group, bool enabled) {
  groups_[intern_group(group)].enabled = enabled;
}

bool Registry::group_enabled(std::string_view group) const {
  const Group* g = find_group(group);
  return g == nullptr ? true : g->enabled;
}

// --- generations -------------------------------------------------------------

void Registry::touch(TimerId id) {
  gen_dirty_ = true;
  timer_gen_[id] = gen_;
}

std::size_t Registry::timers_changed_since(Generation since) const {
  std::size_t n = 0;
  for (const Generation g : timer_gen_) n += g >= since ? 1 : 0;
  // The *next* timer activity opens a new generation, so a later count
  // taken at the returned boundary excludes what this one already saw.
  if (gen_dirty_) {
    ++gen_;
    gen_dirty_ = false;
  }
  return n;
}

// --- shard merging -----------------------------------------------------------

void Registry::absorb(const TimerStats& row) {
  if (row.calls == 0 && row.inclusive_us == 0.0 && row.exclusive_us == 0.0)
    return;
  const TimerId id = timer(row.name, row.group);
  touch(id);
  TimerStats& t = timers_[id];
  t.calls += row.calls;
  t.inclusive_us += row.inclusive_us;
  t.exclusive_us += row.exclusive_us;
  groups_[timer_group_[id]].inclusive_us += row.inclusive_us;
}

void Registry::absorb_events(const std::map<std::string, AtomicEvent>& events) {
  for (const auto& [name, ev] : events) events_[name].merge(ev);
}

std::vector<TimerStats> Registry::drain() {
  CCAPERF_REQUIRE(stack_.empty(), "Registry::drain: timers still running");
  std::vector<TimerStats> rows;
  for (TimerStats& t : timers_) {
    if (t.calls == 0 && t.inclusive_us == 0.0 && t.exclusive_us == 0.0)
      continue;
    rows.push_back(t);
    t.calls = 0;
    t.inclusive_us = 0.0;
    t.exclusive_us = 0.0;
  }
  for (Group& g : groups_) g.inclusive_us = 0.0;
  return rows;
}

std::map<std::string, AtomicEvent> Registry::take_events() {
  std::map<std::string, AtomicEvent> out;
  out.swap(events_);
  return out;
}

// --- start/stop --------------------------------------------------------------

void Registry::start(TimerId id) {
  CCAPERF_REQUIRE(id < timers_.size(), "Registry::start: bad timer id");
  Frame f;
  f.id = id;
  f.enabled = groups_[timer_group_[id]].enabled;
  touch(id);
  f.start = Clock::now();
  f.traced = tracing_ && f.enabled && slices_ok_;
  if (f.traced) {
    TraceRecord r;
    r.t_us = us_between(trace_epoch_, f.start);
    r.id = static_cast<std::uint32_t>(id);
    r.kind = TraceKind::enter;
    trace_.push(r);
  }
  stack_.push_back(f);
  ++active_depth_[id];
}

double Registry::stop(TimerId id) {
  CCAPERF_REQUIRE(!stack_.empty(), "Registry::stop: no running timer");
  CCAPERF_REQUIRE(stack_.back().id == id,
                  "Registry::stop: timers must stop in LIFO order (stopping '" +
                      timers_[id].name + "' but innermost is '" +
                      timers_[stack_.back().id].name + "')");
  const Frame frame = stack_.back();
  stack_.pop_back();
  const Clock::time_point now = Clock::now();
  if (tracing_ && frame.traced) {
    TraceRecord r;
    r.t_us = us_between(trace_epoch_, now);
    r.id = static_cast<std::uint32_t>(id);
    r.kind = TraceKind::exit;
    trace_.push(r);
  }
  const double elapsed = us_between(frame.start, now);
  CCAPERF_REQUIRE(active_depth_[id] > 0, "Registry::stop: depth underflow");
  --active_depth_[id];
  touch(id);

  if (frame.enabled) {
    TimerStats& t = timers_[id];
    ++t.calls;
    // Recursive activations only add inclusive time at the outermost level.
    if (active_depth_[id] == 0) {
      t.inclusive_us += elapsed;
      groups_[timer_group_[id]].inclusive_us += elapsed;
    }
    t.exclusive_us += elapsed - frame.child_us;
    if (!stack_.empty()) stack_.back().child_us += elapsed;
  } else if (!stack_.empty()) {
    // Disabled timer: behave as if uninstrumented — its *enabled* callee
    // time still subtracts from the nearest enabled ancestor's exclusive.
    stack_.back().child_us += frame.child_us;
  }
  return elapsed;
}

// --- events ------------------------------------------------------------------

void Registry::trigger(const std::string& event_name, double value) {
  events_[event_name].add(value);
}

// --- queries -----------------------------------------------------------------

double Registry::now_partial_inclusive(TimerId id) const {
  // Partial elapsed of the *outermost* running activation of `id`.
  if (active_depth_[id] == 0) return 0.0;
  const auto now = Clock::now();
  for (const Frame& f : stack_)
    if (f.id == id) return f.enabled ? us_between(f.start, now) : 0.0;
  return 0.0;
}

double Registry::inclusive_us(TimerId id) const {
  CCAPERF_REQUIRE(id < timers_.size(), "Registry: bad timer id");
  return timers_[id].inclusive_us + now_partial_inclusive(id);
}

double Registry::exclusive_us(TimerId id) const {
  CCAPERF_REQUIRE(id < timers_.size(), "Registry: bad timer id");
  double v = timers_[id].exclusive_us;
  // Running partials: each running activation of id contributes
  // (now - start - child_us accumulated so far), but only frames whose
  // callee is not also running... For the innermost activation the callee
  // time is exactly frame.child_us; for outer activations the currently
  // running child's time is not yet in child_us, so subtract the child
  // frame's elapsed instead. We walk the stack accumulating correctly.
  const auto now = Clock::now();
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    const Frame& f = stack_[i];
    if (f.id != id || !f.enabled) continue;
    const double elapsed = us_between(f.start, now);
    double child = f.child_us;
    if (i + 1 < stack_.size()) {
      // The running child's whole elapsed time belongs to callees.
      const Frame& kid = stack_[i + 1];
      child += us_between(kid.start, now);
    }
    v += elapsed - child;
  }
  return v;
}

double Registry::group_inclusive_us(GroupId gid) const {
  CCAPERF_REQUIRE(gid < groups_.size(), "Registry: bad group id");
  double total = groups_[gid].inclusive_us;
  if (stack_.empty()) return total;
  // Running partials: the outermost running activation of each group
  // member (recursive re-activations already fold into the outermost).
  const auto now = Clock::now();
  for (std::size_t i = 0; i < stack_.size(); ++i) {
    const Frame& f = stack_[i];
    if (!f.enabled || timer_group_[f.id] != gid) continue;
    bool outermost = true;
    for (std::size_t j = 0; j < i; ++j)
      if (stack_[j].id == f.id) {
        outermost = false;
        break;
      }
    if (outermost) total += us_between(f.start, now);
  }
  return total;
}

double Registry::group_inclusive_us(std::string_view group) const {
  const Group* g = find_group(group);
  if (g == nullptr) return 0.0;
  return group_inclusive_us(static_cast<GroupId>(g - groups_.data()));
}

// --- snapshots & tracing -----------------------------------------------------

void Registry::trace_push_open_frames(bool as_exit, double t_us) {
  // Synthetic balance events for activations currently on the stack:
  // enters (outermost first) when tracing starts or slices turn back on
  // mid-run, exits (innermost first) when tracing stops or slices turn off
  // mid-activation. The per-frame `traced` flag tracks which open
  // activations currently have an unmatched enter in the buffer.
  const std::size_t n = stack_.size();
  for (std::size_t k = 0; k < n; ++k) {
    Frame& f = stack_[as_exit ? n - 1 - k : k];
    if (as_exit) {
      if (!f.traced) continue;
      f.traced = false;
    } else {
      f.traced = f.enabled && slices_ok_;
      if (!f.traced) continue;
    }
    TraceRecord r;
    r.t_us = t_us;
    r.id = static_cast<std::uint32_t>(f.id);
    r.kind = as_exit ? TraceKind::exit : TraceKind::enter;
    r.flags = TraceRecord::kSynthetic;
    trace_.push(r);
  }
}

void Registry::set_trace_tier(TraceTier t) {
  trace_tier_ = t;
  const bool slices_ok = t <= TraceTier::slices;
  if (slices_ok == slices_ok_) return;
  slices_ok_ = slices_ok;
  if (tracing_)
    trace_push_open_frames(/*as_exit=*/!slices_ok,
                           us_between(trace_epoch_, Clock::now()));
}

const char* trace_tier_name(TraceTier t) {
  switch (t) {
    case TraceTier::full:
      return "full";
    case TraceTier::slices:
      return "slices";
    case TraceTier::counters:
      return "counters";
    case TraceTier::off:
      return "off";
  }
  return "?";
}

void Registry::set_tracing(bool enabled) {
  if (enabled) {
    trace_.clear();
    trace_msgs_suppressed_ = 0;
    trace_epoch_ = Clock::now();
    tracing_ = true;
    trace_push_open_frames(/*as_exit=*/false, 0.0);
  } else {
    // Close open activations so the retained trace stays balanced; keep
    // the events so the run can still be exported after tracing stops.
    if (tracing_)
      trace_push_open_frames(/*as_exit=*/true,
                             us_between(trace_epoch_, Clock::now()));
    tracing_ = false;
  }
}

void Registry::set_tracing_from_epoch(Clock::time_point epoch) {
  trace_.clear();
  trace_msgs_suppressed_ = 0;
  trace_epoch_ = epoch;
  tracing_ = true;
  trace_push_open_frames(/*as_exit=*/false, 0.0);
}

void Registry::set_trace_capacity(std::size_t events) {
  trace_.set_capacity(events);
}

void Registry::trace_message(bool send, int peer, int tag, std::uint64_t bytes,
                             std::uint64_t seq) {
  if (!tracing_) return;
  if (trace_tier_ != TraceTier::full) {
    ++trace_msgs_suppressed_;
    return;
  }
  TraceRecord r;
  r.t_us = us_between(trace_epoch_, Clock::now());
  r.kind = send ? TraceKind::msg_send : TraceKind::msg_recv;
  r.peer = peer;
  r.tag = tag;
  r.payload = bytes;
  r.seq = seq;
  trace_.push(r);
}

void Registry::trace_counter_samples() {
  if (!tracing_ || trace_tier_ > TraceTier::counters) return;
  const double t = us_between(trace_epoch_, Clock::now());
  counters_.read_values(counters_scratch_);
  for (std::size_t i = 0; i < counters_scratch_.size(); ++i) {
    TraceRecord r;
    r.t_us = t;
    r.id = static_cast<std::uint32_t>(i);
    r.kind = TraceKind::counter;
    r.set_value(static_cast<double>(counters_scratch_[i]));
    trace_.push(r);
  }
}

void Registry::trace_arg(std::uint32_t name_string, double value) {
  if (trace_tier_ != TraceTier::full) return;
  trace_.attach_arg(name_string, value);
}

void Registry::trace_instant(std::uint32_t name_string) {
  if (!tracing_) return;
  TraceRecord r;
  r.t_us = us_between(trace_epoch_, Clock::now());
  r.id = name_string;
  r.kind = TraceKind::instant;
  trace_.push(r);
}

std::vector<TraceRecord> Registry::snapshot_trace() const {
  std::vector<TraceRecord> out;
  out.reserve(trace_.size() + stack_.size());
  trace_.for_each([&out](const TraceRecord& r) { out.push_back(r); });
  if (tracing_) {
    const double t = us_between(trace_epoch_, Clock::now());
    for (std::size_t k = stack_.size(); k-- > 0;) {
      if (!stack_[k].traced) continue;
      TraceRecord r;
      r.t_us = t;
      r.id = static_cast<std::uint32_t>(stack_[k].id);
      r.kind = TraceKind::exit;
      r.flags = TraceRecord::kSynthetic;
      out.push_back(r);
    }
  }
  return out;
}

void Registry::dump_trace(std::ostream& os) const {
  for (const TraceRecord& e : snapshot_trace()) {
    os << e.t_us << '\t';
    switch (e.kind) {
      case TraceKind::enter:
      case TraceKind::exit:
        os << (e.is_enter() ? "enter" : "exit") << '\t' << timers_[e.id].name;
        break;
      case TraceKind::instant:
        os << "instant\t"
           << (e.id < trace_strings_.size() ? trace_strings_.name(e.id) : "?");
        break;
      case TraceKind::counter: {
        const auto names = counters_.names();
        os << "counter\t" << (e.id < names.size() ? names[e.id] : "?") << '\t'
           << e.value();
        break;
      }
      case TraceKind::msg_send:
      case TraceKind::msg_recv:
        os << (e.kind == TraceKind::msg_send ? "send" : "recv") << '\t'
           << e.peer << '\t' << e.tag << '\t' << e.payload << '\t' << e.seq;
        break;
    }
    os << '\n';
  }
}

std::vector<TimerStats> Registry::snapshot() const {
  std::vector<TimerStats> rows = timers_;
  for (TimerId id = 0; id < rows.size(); ++id) {
    rows[id].inclusive_us = inclusive_us(id);
    rows[id].exclusive_us = exclusive_us(id);
    // Count running activations as calls-in-progress? TAU reports completed
    // calls; we keep that convention.
  }
  return rows;
}

}  // namespace tau
