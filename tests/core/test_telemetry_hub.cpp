// core::TelemetryHub — the multi-tenant telemetry service (DESIGN.md §14):
// session isolation, interned identity, exact eviction accounting, memory
// bounds, the HubProperty interleaved-equals-solo stream identity, and
// the end-to-end AMR/LU session drivers.

#include "core/telemetry_hub.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/session_workloads.hpp"
#include "support/error.hpp"

namespace {

using core::SessionHandle;
using core::SessionId;
using core::SessionLine;
using core::SessionStats;
using core::TelemetryHub;

TEST(TelemetryHub, PublishQueryRoundTrip) {
  TelemetryHub hub;
  SessionHandle a = hub.open_session("alpha", "amr");
  SessionHandle b = hub.open_session("beta", "lu");
  a.publish("a line 1");
  b.publish("b line 1");
  a.publish("a line 2");

  // A published line is retained by the time publish() returns.
  EXPECT_EQ(hub.session_text(a.id()), "a line 1\na line 2\n");
  EXPECT_EQ(hub.session_text(b.id()), "b line 1\n");
  const SessionStats sa = hub.session_stats(a.id());
  EXPECT_EQ(sa.published, 2u);
  EXPECT_EQ(sa.retained, 2u);
  EXPECT_EQ(sa.dropped_ring, 0u);
  EXPECT_TRUE(sa.open);
  // Per-session FIFO: sequence numbers are monotone within a session.
  const std::vector<SessionLine> lines = hub.session_lines(a.id());
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_LT(lines[0].seq, lines[1].seq);

  a.close();
  EXPECT_FALSE(hub.session_stats(hub.find_session("alpha")).open);
  // Retained lines stay queryable after close.
  EXPECT_EQ(hub.session_text(hub.find_session("alpha")), "a line 1\na line 2\n");
}

TEST(TelemetryHub, InternedIdsSurviveReopen) {
  TelemetryHub hub;
  SessionId first_id;
  {
    SessionHandle h = hub.open_session("recurring", "amr");
    first_id = h.id();
    h.publish("old life");
    h.close();
  }
  // Same name, same dense id, fresh stream.
  SessionHandle again = hub.open_session("recurring", "amr");
  EXPECT_EQ(again.id(), first_id);
  EXPECT_EQ(hub.session_text(first_id), "");
  again.publish("new life");
  EXPECT_EQ(hub.session_text(first_id), "new life\n");
  const SessionStats st = hub.session_stats(first_id);
  EXPECT_EQ(st.published, 1u);  // old life's counters released
  EXPECT_TRUE(st.open);
}

TEST(TelemetryHub, ReopeningAnOpenNameThrows) {
  TelemetryHub hub;
  SessionHandle h = hub.open_session("solo", "amr");
  EXPECT_THROW(hub.open_session("solo", "amr"), ccaperf::Error);
}

TEST(TelemetryHub, SinkSplitsLinesAndFlushesTailOnClose) {
  TelemetryHub hub;
  SessionHandle h = hub.open_session("sinky", "amr");
  std::ostream& sink = h.make_sink();
  sink << "one\ntwo\n";
  sink << "tail without newline";
  const SessionId id = h.id();
  h.close();  // destroys the sink: the tail publishes as its own line
  EXPECT_EQ(hub.session_text(id), "one\ntwo\ntail without newline\n");
}

// The books balance at every instant, not only at quiescence: while four
// publishers flood four sessions past a small line cap and byte budget, a
// reader's every snapshot sees retained == published - dropped_evicted
// and the retained bytes within budget.
TEST(TelemetryHub, ConcurrentAccountingBalancesAtEverySnapshot) {
  constexpr int kPublishers = 4;
  constexpr int kLines = 2000;
  TelemetryHub::Config cfg;
  cfg.session_line_cap = 32;
  cfg.memory_budget_bytes = 4u << 10;
  TelemetryHub hub(cfg);
  std::vector<SessionHandle> handles;
  std::vector<SessionId> ids;
  for (int p = 0; p < kPublishers; ++p) {
    handles.push_back(hub.open_session("acct-" + std::to_string(p), "flood"));
    ids.push_back(handles.back().id());
  }

  std::atomic<int> running{kPublishers};
  std::uint64_t snapshots = 0, unbalanced = 0, over_budget = 0;
  std::thread reader([&] {
    // One more sweep after the last publisher finishes.
    for (bool last = false; !last;) {
      last = running.load() == 0;
      for (const SessionId id : ids) {
        const SessionStats st = hub.session_stats(id);
        ++snapshots;
        if (st.retained != st.published - st.dropped_evicted) ++unbalanced;
      }
      const core::HubStats hs = hub.stats();
      if (hs.bytes_retained > cfg.memory_budget_bytes ||
          hs.bytes_peak > cfg.memory_budget_bytes)
        ++over_budget;
    }
  });
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p)
    publishers.emplace_back([&, p] {
      for (int i = 0; i < kLines; ++i)
        handles[static_cast<std::size_t>(p)].publish(
            std::string(static_cast<std::size_t>(40 + (i + p) % 80), 'a' + p));
      running.fetch_sub(1);
    });
  for (std::thread& t : publishers) t.join();
  reader.join();

  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(unbalanced, 0u);
  EXPECT_EQ(over_budget, 0u);
  std::uint64_t evicted = 0;
  for (const SessionId id : ids) {
    const SessionStats st = hub.session_stats(id);
    EXPECT_EQ(st.published, static_cast<std::uint64_t>(kLines));
    EXPECT_EQ(st.retained, st.published - st.dropped_evicted);
    EXPECT_EQ(st.dropped_ring, 0u);
    evicted += st.dropped_evicted;
  }
  EXPECT_GT(evicted, 0u);
  const core::HubStats hs = hub.stats();
  EXPECT_EQ(hs.published, static_cast<std::uint64_t>(kPublishers * kLines));
  EXPECT_EQ(hs.dropped_evicted, evicted);
}

TEST(TelemetryHub, SessionLineCapEvictsOwnOldest) {
  TelemetryHub::Config cfg;
  cfg.session_line_cap = 4;
  TelemetryHub hub(cfg);
  SessionHandle h = hub.open_session("capped", "flood");
  for (int i = 0; i < 10; ++i) h.publish("line " + std::to_string(i));
  const SessionStats st = hub.session_stats(h.id());
  EXPECT_EQ(st.retained, 4u);
  EXPECT_EQ(st.dropped_evicted, 6u);
  EXPECT_EQ(hub.session_text(h.id()), "line 6\nline 7\nline 8\nline 9\n");
}

TEST(TelemetryHub, ByteBudgetEvictsGloballyOldestFirst) {
  TelemetryHub::Config cfg;
  const std::string line(100, 'x');  // 100 bytes retained per line
  cfg.memory_budget_bytes = 450;     // 4 lines fit, a 5th forces eviction
  TelemetryHub hub(cfg);
  SessionHandle old_s = hub.open_session("older", "flood");
  SessionHandle new_s = hub.open_session("newer", "flood");
  old_s.publish(line);
  old_s.publish(line);
  new_s.publish(line);
  new_s.publish(line);
  new_s.publish(line);
  // 5 x 100 bytes against a 450-byte budget: exactly one eviction, and it
  // must hit the globally oldest line — "older"'s first — not the chatty
  // newcomer's.
  EXPECT_EQ(hub.session_stats(old_s.id()).dropped_evicted, 1u);
  EXPECT_EQ(hub.session_stats(new_s.id()).dropped_evicted, 0u);
  const core::HubStats hs = hub.stats();
  EXPECT_LE(hs.bytes_retained, cfg.memory_budget_bytes);
  EXPECT_LE(hs.bytes_peak, cfg.memory_budget_bytes);
}

// The HubProperty suite: interleaved publishes from K concurrent sessions
// produce per-session streams byte-identical to each session running
// alone, with exact counter deltas and zero drops in a no-drop config.
TEST(HubProperty, InterleavedStreamsEqualSolo) {
  constexpr int kSessions = 6;
  constexpr int kLines = 400;
  const auto line_for = [](int s, int i) {
    return "session " + std::to_string(s) + " line " + std::to_string(i) +
           " payload " + std::string(static_cast<std::size_t>(i % 17), '#');
  };
  // Solo references: each session alone in its own hub.
  std::vector<std::string> solo_text(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    TelemetryHub hub;  // default config: no-eviction capacity
    SessionHandle h = hub.open_session("p" + std::to_string(s), "prop");
    for (int i = 0; i < kLines; ++i) h.publish(line_for(s, i));
    h.close();
    solo_text[static_cast<std::size_t>(s)] =
        hub.session_text(hub.find_session("p" + std::to_string(s)));
  }
  // Interleaved: all sessions publish concurrently into one hub.
  TelemetryHub hub;
  std::vector<SessionHandle> handles;
  for (int s = 0; s < kSessions; ++s)
    handles.push_back(hub.open_session("p" + std::to_string(s), "prop"));
  {
    std::vector<std::thread> threads;
    for (int s = 0; s < kSessions; ++s)
      threads.emplace_back([&, s] {
        for (int i = 0; i < kLines; ++i)
          handles[static_cast<std::size_t>(s)].publish(line_for(s, i));
        handles[static_cast<std::size_t>(s)].close();
      });
    for (std::thread& t : threads) t.join();
  }
  for (int s = 0; s < kSessions; ++s) {
    const SessionId id = hub.find_session("p" + std::to_string(s));
    ASSERT_NE(id, core::kInvalidSession);
    EXPECT_EQ(hub.session_text(id), solo_text[static_cast<std::size_t>(s)])
        << "session " << s;
    const SessionStats st = hub.session_stats(id);
    EXPECT_EQ(st.published, static_cast<std::uint64_t>(kLines));
    EXPECT_EQ(st.retained, static_cast<std::uint64_t>(kLines));
    EXPECT_EQ(st.dropped_evicted, 0u);
  }
  const core::HubStats hs = hub.stats();
  EXPECT_EQ(hs.published, static_cast<std::uint64_t>(kSessions * kLines));
  EXPECT_EQ(hs.dropped_evicted, 0u);
}

TEST(TelemetryHub, AggregateLineCarriesRatesAndScenarios) {
  TelemetryHub hub;
  SessionHandle a = hub.open_session("agg-a", "amr");
  SessionHandle l = hub.open_session("agg-l", "lu");
  a.publish("{\"t_us\":1,\"overhead_pct\":2.500}");
  a.publish("{\"t_us\":2,\"overhead_pct\":3.500}");
  l.publish("{\"t_us\":1,\"overhead_pct\":1.000}");
  std::ostringstream os;
  hub.emit_aggregate(os);
  const std::string line = os.str();
  EXPECT_NE(line.find("\"sessions_open\":2"), std::string::npos) << line;
  EXPECT_NE(line.find("\"published\":3"), std::string::npos) << line;
  // Scenario breakdown scraped from the sessions' own overhead_pct fields.
  EXPECT_NE(line.find("\"amr\":{\"sessions\":1,\"overhead_lines\":2,"
                      "\"overhead_pct_mean\":3.000}"),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"lu\":{\"sessions\":1,\"overhead_lines\":1,"
                      "\"overhead_pct_mean\":1.000}"),
            std::string::npos)
      << line;
  EXPECT_EQ(line.back(), '\n');
  EXPECT_EQ(hub.stats().aggregate_lines, 1u);
}

TEST(HubSession, AmrSessionEndToEnd) {
  TelemetryHub hub;
  core::SessionScenario sc;  // amr 24x12, 2 ranks, 1 lane
  sc.steps = 1;
  sc.trace = true;
  SessionHandle h = hub.open_session("amr-e2e", sc.kind);
  const core::SessionResult r1 = core::run_session(h, sc);
  h.close();
  EXPECT_NE(r1.physics_digest, 0u);
  EXPECT_GT(r1.telemetry_lines, 0u);

  const SessionId id = hub.find_session("amr-e2e");
  const SessionStats st = hub.session_stats(id);
  EXPECT_EQ(st.published, r1.telemetry_lines);
  EXPECT_EQ(st.retained, st.published);
  // Every retained line is marked with this session's name — the leakage
  // invariant the soak gates on.
  for (const SessionLine& line : hub.session_lines(id))
    EXPECT_NE(line.text.find("\"session\":\"amr-e2e\""), std::string::npos);
  // Per-session Perfetto export from the registered rank traces.
  std::ostringstream trace;
  const core::MergeStats ms = hub.export_session_trace(id, trace);
  EXPECT_EQ(ms.ranks, 2u);
  EXPECT_GT(ms.events, 0u);

  // Determinism: a rerun under a different session name reproduces the
  // digest exactly (the soak compares concurrent runs to solo ones).
  SessionHandle h2 = hub.open_session("amr-e2e-2", sc.kind);
  core::SessionScenario sc2 = sc;
  sc2.trace = false;
  const core::SessionResult r2 = core::run_session(h2, sc2);
  h2.close();
  EXPECT_EQ(r2.physics_digest, r1.physics_digest);
}

TEST(HubSession, LuSessionEndToEnd) {
  TelemetryHub hub;
  core::SessionScenario sc;
  sc.kind = "lu";
  sc.lu_n = 64;
  sc.lu_block = 16;
  sc.lu_reps = 2;
  SessionHandle h = hub.open_session("lu-e2e", sc.kind);
  const core::SessionResult r1 = core::run_session(h, sc);
  h.close();
  EXPECT_NE(r1.physics_digest, 0u);
  const SessionStats st = hub.session_stats(hub.find_session("lu-e2e"));
  EXPECT_EQ(st.published, r1.telemetry_lines);
  EXPECT_EQ(st.retained, st.published);

  SessionHandle h2 = hub.open_session("lu-e2e-2", sc.kind);
  const core::SessionResult r2 = core::run_session(h2, sc);
  h2.close();
  EXPECT_EQ(r2.physics_digest, r1.physics_digest);
}

}  // namespace
