#include "core/trace_export.hpp"

#include <algorithm>
#include <map>
#include <ostream>
#include <tuple>

#include "support/env.hpp"
#include "support/json.hpp"

namespace core {

using tau::TraceKind;
using tau::TraceRecord;

RankTrace collect_rank_trace(const tau::Registry& reg, int rank, int thread) {
  RankTrace t;
  t.rank = rank;
  t.thread = thread;
  t.epoch = reg.trace_epoch();
  t.events = reg.snapshot_trace();
  t.timer_names.reserve(reg.num_timers());
  for (tau::TimerId id = 0; id < reg.num_timers(); ++id)
    t.timer_names.push_back(reg.stats_at(id).name);
  t.counter_names = reg.counters().names();
  t.strings = reg.trace_strings();
  t.total_events = reg.trace().total();
  t.dropped_events = reg.trace().dropped();
  t.suppressed_messages = reg.trace_messages_suppressed();
  return t;
}

void TraceMerger::add_rank(RankTrace trace) {
  std::scoped_lock lock(mu_);
  ranks_.push_back(std::move(trace));
}

std::size_t TraceMerger::num_ranks() const {
  std::scoped_lock lock(mu_);
  return ranks_.size();
}

namespace {

/// Global message identity: (sender world rank, receiver world rank,
/// per-pair sequence number) — the fabric guarantees uniqueness.
using MsgKey = std::tuple<int, int, std::uint64_t>;

MsgKey msg_key(int rank, const TraceRecord& r) {
  return r.kind == TraceKind::msg_send
             ? MsgKey{rank, r.peer, r.seq}
             : MsgKey{r.peer, rank, r.seq};
}

/// Emits one JSON object into the traceEvents array.
class EventWriter {
 public:
  explicit EventWriter(std::ostream& os) : os_(os) {}

  /// Opens the object and writes the common (ph, pid, tid, ts) prefix.
  EventWriter& begin(char ph, int pid, int tid, double ts) {
    os_ << (first_ ? "\n" : ",\n") << "{\"ph\":\"" << ph << "\",\"pid\":" << pid
        << ",\"tid\":" << tid << ",\"ts\":" << ccaperf::json_number(ts, 3);
    first_ = false;
    return *this;
  }
  EventWriter& name(std::string_view n) {
    os_ << ",\"name\":\"" << ccaperf::json_escape(n) << "\"";
    return *this;
  }
  EventWriter& raw(std::string_view fragment) {
    os_ << fragment;
    return *this;
  }
  void end() { os_ << "}"; }

  bool any() const { return !first_; }

 private:
  std::ostream& os_;
  bool first_ = true;
};

std::string_view name_or(const std::vector<std::string>& table, std::size_t i) {
  return i < table.size() ? std::string_view(table[i]) : std::string_view("?");
}

}  // namespace

MergeStats TraceMerger::write_chrome_trace(std::ostream& os) const {
  std::vector<RankTrace> ranks;
  {
    std::scoped_lock lock(mu_);
    ranks = ranks_;
  }
  std::sort(ranks.begin(), ranks.end(), [](const RankTrace& a, const RankTrace& b) {
    return a.rank != b.rank ? a.rank < b.rank : a.thread < b.thread;
  });

  MergeStats stats;
  // Thread shards share their rank's process: count distinct ranks only.
  for (std::size_t i = 0; i < ranks.size(); ++i)
    if (i == 0 || ranks[i].rank != ranks[i - 1].rank) ++stats.ranks;

  // Align every rank onto the earliest trace epoch (all epochs come from
  // the one steady clock — ranks are threads of this process).
  tau::Clock::time_point t0 = tau::Clock::time_point::max();
  for (const RankTrace& r : ranks) t0 = std::min(t0, r.epoch);

  // Deterministic flow matching by exact message identity: a flow exists
  // iff both its send and its recv endpoint survived in the rings.
  std::map<MsgKey, std::uint64_t> sends, recvs;  // key -> endpoint count
  for (const RankTrace& r : ranks) {
    stats.dropped += r.dropped_events;
    stats.suppressed_messages += r.suppressed_messages;
    for (const TraceRecord& e : r.events) {
      if (e.kind == TraceKind::msg_send) ++sends[msg_key(r.rank, e)];
      if (e.kind == TraceKind::msg_recv) ++recvs[msg_key(r.rank, e)];
    }
  }
  std::map<MsgKey, std::uint64_t> flow_ids;  // matched pairs only
  std::uint64_t next_flow = 1;
  for (const auto& [key, n] : sends) {
    if (recvs.count(key)) {
      flow_ids[key] = next_flow++;
      ++stats.flows;
    } else {
      stats.unmatched_sends += n;
    }
  }
  for (const auto& [key, n] : recvs)
    if (!sends.count(key)) stats.unmatched_recvs += n;

  os << "{\"traceEvents\":[";
  EventWriter w(os);
  for (const RankTrace& r : ranks) {
    const double offset_us =
        std::chrono::duration<double, std::micro>(r.epoch - t0).count();
    // Thread 0 is the rank's own track (tid = rank, exactly the
    // single-threaded export); pool lanes get tid 1000+lane so they sort
    // below the rank thread inside the same process.
    const int tid = r.thread == 0 ? r.rank : 1000 + r.thread;
    const std::string rank_label = "rank " + std::to_string(r.rank);
    if (r.thread == 0) {
      w.begin('M', r.rank, tid, 0.0).name("process_name");
      w.raw(",\"args\":{\"name\":\"" + ccaperf::json_escape(rank_label) + "\"}");
      w.end();
      w.begin('M', r.rank, tid, 0.0).name("thread_name");
      w.raw(",\"args\":{\"name\":\"" + ccaperf::json_escape(rank_label) + "\"}");
      w.end();
    } else {
      const std::string lane_label = rank_label + " thread " + std::to_string(r.thread);
      w.begin('M', r.rank, tid, 0.0).name("thread_name");
      w.raw(",\"args\":{\"name\":\"" + ccaperf::json_escape(lane_label) + "\"}");
      w.end();
    }

    std::vector<std::uint32_t> open;  // enter/exit balance guard
    double last_ts = 0.0;
    for (const TraceRecord& e : r.events) {
      const double ts = e.t_us + offset_us;
      last_ts = std::max(last_ts, ts);
      switch (e.kind) {
        case TraceKind::enter:
          w.begin('B', r.rank, tid, ts).name(name_or(r.timer_names, e.id));
          if (e.has_arg())
            w.raw(",\"args\":{\"" +
                  ccaperf::json_escape(
                      name_or(r.strings, static_cast<std::uint32_t>(e.tag))) +
                  "\":" + ccaperf::json_number(e.value(), 6) + "}");
          w.end();
          ++stats.events;
          open.push_back(e.id);
          break;
        case TraceKind::exit:
          if (open.empty()) {
            // Its enter was overwritten by the ring — unrepresentable as a
            // slice, so drop it rather than corrupt the nesting.
            ++stats.orphan_exits;
            break;
          }
          w.begin('E', r.rank, tid, ts).end();
          ++stats.events;
          ++stats.slices;
          open.pop_back();
          break;
        case TraceKind::instant:
          w.begin('i', r.rank, tid, ts).name(name_or(r.strings, e.id));
          w.raw(",\"s\":\"t\"");
          w.end();
          ++stats.events;
          break;
        case TraceKind::counter:
          w.begin('C', r.rank, tid, ts).name(name_or(r.counter_names, e.id));
          w.raw(",\"args\":{\"value\":" + ccaperf::json_number(e.value(), 3) + "}");
          w.end();
          ++stats.events;
          break;
        case TraceKind::msg_send:
        case TraceKind::msg_recv: {
          const auto it = flow_ids.find(msg_key(r.rank, e));
          if (it == flow_ids.end()) break;  // counted as unmatched above
          const bool send = e.kind == TraceKind::msg_send;
          w.begin(send ? 's' : 'f', r.rank, tid, ts).name("msg");
          w.raw(",\"cat\":\"msg\",\"id\":" + std::to_string(it->second));
          if (send)
            w.raw(",\"args\":{\"bytes\":" + std::to_string(e.payload) +
                  ",\"tag\":" + std::to_string(e.tag) +
                  ",\"seq\":" + std::to_string(e.seq) +
                  ",\"dst\":" + std::to_string(e.peer) + "}");
          else
            w.raw(",\"bp\":\"e\"");
          w.end();
          ++stats.events;
          break;
        }
      }
    }
    // snapshot_trace() closes open activations, so leftovers here mean a
    // caller handed us a raw (unbalanced) event list: close them anyway.
    while (!open.empty()) {
      w.begin('E', r.rank, tid, last_ts).end();
      ++stats.events;
      ++stats.slices;
      open.pop_back();
    }
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return stats;
}

TraceEnv trace_env() {
  TraceEnv env;
  const std::string s = ccaperf::env_text("CCAPERF_TRACE").value_or("0");
  if (s == "0" || s == "off" || s == "false") return env;
  env.enabled = true;
  if (s != "1" && s != "on" && s != "true") env.path = s;
  env.capacity = ccaperf::env_int<std::size_t>("CCAPERF_TRACE_EVENTS", 1)
                     .value_or(env.capacity);
  return env;
}

}  // namespace core
