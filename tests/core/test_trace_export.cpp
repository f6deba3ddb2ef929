// core::TraceMerger / Chrome-trace export: golden two-rank merge
// (deterministic down to the byte for hand-built inputs), flow matching
// by exact (src, dst, seq) identity, unmatched-endpoint and orphan-exit
// accounting under ring drops and below the full trace tier, epoch
// alignment, and the CCAPERF_TRACE environment switch.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <sstream>
#include <string>

#include "core/trace_export.hpp"
#include "support/error.hpp"

namespace {

using core::MergeStats;
using core::RankTrace;
using core::TraceMerger;
using tau::TraceKind;
using tau::TraceRecord;

TraceRecord enter(double t, std::uint32_t timer) {
  TraceRecord r;
  r.t_us = t;
  r.id = timer;
  r.kind = TraceKind::enter;
  return r;
}

TraceRecord exit_of(double t, std::uint32_t timer) {
  TraceRecord r;
  r.t_us = t;
  r.id = timer;
  r.kind = TraceKind::exit;
  return r;
}

TraceRecord message(double t, bool send, int peer, int tag, std::uint64_t bytes,
                    std::uint64_t seq) {
  TraceRecord r;
  r.t_us = t;
  r.kind = send ? TraceKind::msg_send : TraceKind::msg_recv;
  r.peer = peer;
  r.tag = tag;
  r.payload = bytes;
  r.seq = seq;
  return r;
}

/// The golden scenario: rank 0 computes inside "solve step A()" (with a Q
/// slice argument and a counter sample) and sends one message that rank 1
/// receives; rank 1's epoch starts 10 us later, exercising alignment.
RankTrace golden_rank0() {
  RankTrace t;
  t.rank = 0;
  t.epoch = tau::Clock::time_point{};
  t.timer_names = {"main()", "solve step A()"};
  t.counter_names = {"FP_OPS"};
  t.strings = {"Q"};
  t.events.push_back(enter(0.0, 0));
  TraceRecord arg = enter(10.0, 1);
  arg.tag = 0;  // strings[0] == "Q"
  arg.set_value(5.0);
  arg.flags |= TraceRecord::kHasArg;
  t.events.push_back(arg);
  TraceRecord c;
  c.t_us = 12.0;
  c.kind = TraceKind::counter;
  c.id = 0;
  c.set_value(42.0);
  t.events.push_back(c);
  t.events.push_back(message(15.0, /*send=*/true, 1, 3, 64, 1));
  t.events.push_back(exit_of(20.0, 1));
  t.events.push_back(exit_of(30.0, 0));
  t.total_events = t.events.size();
  return t;
}

RankTrace golden_rank1() {
  RankTrace t;
  t.rank = 1;
  t.epoch = tau::Clock::time_point{} + std::chrono::microseconds(10);
  t.timer_names = {"main()"};
  t.strings = {"regrid"};
  t.events.push_back(enter(0.0, 0));
  t.events.push_back(message(8.0, /*send=*/false, 0, 3, 64, 1));
  TraceRecord inst;
  inst.t_us = 12.0;
  inst.kind = TraceKind::instant;
  inst.id = 0;
  t.events.push_back(inst);
  t.events.push_back(exit_of(25.0, 0));
  t.total_events = t.events.size();
  return t;
}

constexpr const char* kGolden =
    "{\"traceEvents\":[\n"
    "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"name\":\"process_name\",\"args\":{\"name\":\"rank 0\"}},\n"
    "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"name\":\"thread_name\",\"args\":{\"name\":\"rank 0\"}},\n"
    "{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":0.000,\"name\":\"main()\"},\n"
    "{\"ph\":\"B\",\"pid\":0,\"tid\":0,\"ts\":10.000,\"name\":\"solve step A()\",\"args\":{\"Q\":5.000000}},\n"
    "{\"ph\":\"C\",\"pid\":0,\"tid\":0,\"ts\":12.000,\"name\":\"FP_OPS\",\"args\":{\"value\":42.000}},\n"
    "{\"ph\":\"s\",\"pid\":0,\"tid\":0,\"ts\":15.000,\"name\":\"msg\",\"cat\":\"msg\",\"id\":1,\"args\":{\"bytes\":64,\"tag\":3,\"seq\":1,\"dst\":1}},\n"
    "{\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":20.000},\n"
    "{\"ph\":\"E\",\"pid\":0,\"tid\":0,\"ts\":30.000},\n"
    "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"name\":\"process_name\",\"args\":{\"name\":\"rank 1\"}},\n"
    "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"ts\":0.000,\"name\":\"thread_name\",\"args\":{\"name\":\"rank 1\"}},\n"
    "{\"ph\":\"B\",\"pid\":1,\"tid\":1,\"ts\":10.000,\"name\":\"main()\"},\n"
    "{\"ph\":\"f\",\"pid\":1,\"tid\":1,\"ts\":18.000,\"name\":\"msg\",\"cat\":\"msg\",\"id\":1,\"bp\":\"e\"},\n"
    "{\"ph\":\"i\",\"pid\":1,\"tid\":1,\"ts\":22.000,\"name\":\"regrid\",\"s\":\"t\"},\n"
    "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":35.000}\n"
    "],\"displayTimeUnit\":\"ms\"}\n";

TEST(TraceExport, TwoRankMergeMatchesGolden) {
  TraceMerger merger;
  // Registration order must not matter: ranks are sorted on write.
  merger.add_rank(golden_rank1());
  merger.add_rank(golden_rank0());
  ASSERT_EQ(merger.num_ranks(), 2u);

  std::ostringstream os;
  const MergeStats st = merger.write_chrome_trace(os);
  EXPECT_EQ(os.str(), kGolden);

  EXPECT_EQ(st.ranks, 2u);
  EXPECT_EQ(st.events, 10u);
  EXPECT_EQ(st.slices, 3u);
  EXPECT_EQ(st.flows, 1u);
  EXPECT_TRUE(st.fully_matched());
  EXPECT_EQ(st.orphan_exits, 0u);
  EXPECT_EQ(st.dropped, 0u);
}

TEST(TraceExport, WriteIsRepeatableAndIdempotent) {
  TraceMerger merger;
  merger.add_rank(golden_rank0());
  merger.add_rank(golden_rank1());
  std::ostringstream a, b;
  merger.write_chrome_trace(a);
  merger.write_chrome_trace(b);  // const: must not consume state
  EXPECT_EQ(a.str(), b.str());
}

TEST(TraceExport, UnmatchedEndpointsAreCountedNotDrawn) {
  // A send whose recv was lost to the ring (and vice versa) must not
  // produce a dangling flow arrow.
  RankTrace r0;
  r0.rank = 0;
  r0.timer_names = {"t()"};
  r0.events = {enter(0.0, 0), message(1.0, true, 1, 0, 8, 1),
               message(2.0, true, 1, 0, 8, 2), exit_of(3.0, 0)};
  RankTrace r1;
  r1.rank = 1;
  r1.events = {message(2.5, false, 0, 0, 8, 2),   // matches seq 2 only
               message(4.0, false, 2, 0, 8, 1)};  // from rank 2: never sent
  TraceMerger merger;
  merger.add_rank(r0);
  merger.add_rank(r1);

  std::ostringstream os;
  const MergeStats st = merger.write_chrome_trace(os);
  EXPECT_EQ(st.flows, 1u);
  EXPECT_EQ(st.unmatched_sends, 1u);
  EXPECT_EQ(st.unmatched_recvs, 1u);
  EXPECT_FALSE(st.fully_matched());
  // Exactly one flow-start and one flow-finish in the JSON.
  const std::string json = os.str();
  std::size_t s_count = 0, f_count = 0, at = 0;
  while ((at = json.find("\"ph\":\"s\"", at)) != std::string::npos) ++s_count, ++at;
  at = 0;
  while ((at = json.find("\"ph\":\"f\"", at)) != std::string::npos) ++f_count, ++at;
  EXPECT_EQ(s_count, 1u);
  EXPECT_EQ(f_count, 1u);
}

TEST(TraceExport, OrphanExitsAreSkippedAndOutputStaysBalanced) {
  // A ring that wrapped retains a suffix whose leading exits lost their
  // enters; the exporter must drop those rather than corrupt nesting.
  RankTrace r;
  r.rank = 0;
  r.timer_names = {"a()", "b()"};
  r.events = {exit_of(1.0, 1), exit_of(2.0, 0),  // enters overwritten
              enter(3.0, 0), exit_of(4.0, 0)};
  r.total_events = 6;
  r.dropped_events = 2;
  TraceMerger merger;
  merger.add_rank(r);

  std::ostringstream os;
  const MergeStats st = merger.write_chrome_trace(os);
  EXPECT_EQ(st.orphan_exits, 2u);
  EXPECT_EQ(st.slices, 1u);
  EXPECT_EQ(st.dropped, 2u);
  const std::string json = os.str();
  std::size_t b_count = 0, e_count = 0, at = 0;
  while ((at = json.find("\"ph\":\"B\"", at)) != std::string::npos) ++b_count, ++at;
  at = 0;
  while ((at = json.find("\"ph\":\"E\"", at)) != std::string::npos) ++e_count, ++at;
  EXPECT_EQ(b_count, 1u);
  EXPECT_EQ(e_count, 1u);
}

TEST(TraceExport, UnbalancedInputGetsDefensivelyClosed) {
  RankTrace r;
  r.rank = 0;
  r.timer_names = {"a()"};
  r.events = {enter(1.0, 0), enter(2.0, 0)};  // raw list, never closed
  TraceMerger merger;
  merger.add_rank(r);
  std::ostringstream os;
  const MergeStats st = merger.write_chrome_trace(os);
  EXPECT_EQ(st.slices, 2u);  // both closed at the trace's last timestamp
  EXPECT_EQ(st.events, 4u);
}

TEST(TraceExport, CollectRankTraceLiftsRegistryState) {
  tau::Registry reg;
  reg.set_tracing(true);
  const tau::TimerId t = reg.timer("solve step A()");
  reg.start(t);
  reg.trace_message(true, 1, 5, 256, 1);
  reg.stop(t);

  const RankTrace tr = core::collect_rank_trace(reg, 7);
  EXPECT_EQ(tr.rank, 7);
  ASSERT_GT(tr.timer_names.size(), static_cast<std::size_t>(t));
  EXPECT_EQ(tr.timer_names[t], "solve step A()");
  EXPECT_EQ(tr.total_events, 3u);
  EXPECT_EQ(tr.dropped_events, 0u);
  ASSERT_EQ(tr.events.size(), 3u);
  EXPECT_TRUE(tr.events[0].is_enter());
  EXPECT_EQ(tr.events[1].kind, TraceKind::msg_send);
  EXPECT_TRUE(tr.events[2].is_exit());

  TraceMerger merger;
  merger.add_rank(tr);
  std::ostringstream os;
  const MergeStats st = merger.write_chrome_trace(os);
  EXPECT_EQ(st.slices, 1u);
  EXPECT_EQ(st.unmatched_sends, 1u);  // single-rank trace: no recv side
}

TEST(TraceExport, EndpointsBelowTheFullTierAreCountedAndSummed) {
  // A governed rank that leaves the full tier skips message endpoints;
  // the count travels with its trace so the merge can tell a stranded
  // peer endpoint from a lost one.
  tau::Registry r0, r1;
  r0.set_tracing(true);
  r1.set_tracing(true);
  r0.trace_message(true, 1, 5, 64, 1);   // both sides recorded
  r1.trace_message(false, 0, 5, 64, 1);
  r1.set_trace_tier(tau::TraceTier::slices);
  r0.trace_message(true, 1, 5, 64, 2);   // recv skipped: send stranded
  r1.trace_message(false, 0, 5, 64, 2);
  r1.trace_message(true, 0, 5, 64, 1);   // send skipped
  EXPECT_EQ(r0.trace_messages_suppressed(), 0u);
  EXPECT_EQ(r1.trace_messages_suppressed(), 2u);

  TraceMerger merger;
  merger.add_rank(core::collect_rank_trace(r0, 0));
  merger.add_rank(core::collect_rank_trace(r1, 1));
  std::ostringstream os;
  const MergeStats st = merger.write_chrome_trace(os);
  EXPECT_EQ(st.flows, 1u);
  EXPECT_EQ(st.unmatched_sends, 1u);
  EXPECT_EQ(st.suppressed_messages, 2u);
  EXPECT_EQ(st.dropped, 0u);

  r1.set_tracing(true);  // a fresh trace starts a fresh count
  EXPECT_EQ(r1.trace_messages_suppressed(), 0u);
}

TEST(TraceExport, ThreadShardsBecomeTracksInsideTheRankProcess) {
  TraceMerger merger;
  RankTrace main_track;
  main_track.rank = 0;
  main_track.epoch = tau::Clock::time_point{};
  main_track.timer_names = {"step()"};
  main_track.events = {enter(0.0, 0), exit_of(10.0, 0)};
  merger.add_rank(main_track);

  RankTrace lane_track;
  lane_track.rank = 0;
  lane_track.thread = 2;
  lane_track.epoch = tau::Clock::time_point{};
  lane_track.timer_names = {"patch()"};
  lane_track.events = {enter(1.0, 0), exit_of(9.0, 0)};
  merger.add_rank(lane_track);

  std::ostringstream os;
  const MergeStats st = merger.write_chrome_trace(os);
  // The shard shares rank 0's process: it adds a track, not a rank.
  EXPECT_EQ(st.ranks, 1u);
  EXPECT_EQ(st.slices, 2u);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\":\"rank 0 thread 2\""), std::string::npos);
  EXPECT_NE(out.find("\"pid\":0,\"tid\":1002"), std::string::npos);
  // The rank thread keeps its own tid (= rank), exactly as before.
  EXPECT_NE(out.find("\"pid\":0,\"tid\":0"), std::string::npos);
  // Only one process_name: shards don't re-announce the process.
  EXPECT_EQ(out.find("process_name"), out.rfind("process_name"));
}

TEST(TraceExport, CollectRankTraceRecordsTheLane) {
  tau::Registry reg;
  reg.set_tracing(true);
  const tau::TimerId id = reg.timer("w");
  reg.start(id);
  reg.stop(id);
  const RankTrace t = core::collect_rank_trace(reg, 3, 2);
  EXPECT_EQ(t.rank, 3);
  EXPECT_EQ(t.thread, 2);
  // Default argument keeps the rank-thread form.
  EXPECT_EQ(core::collect_rank_trace(reg, 3).thread, 0);
}

TEST(TraceExport, TraceEnvParsesTheSwitch) {
  ::unsetenv("CCAPERF_TRACE");
  ::unsetenv("CCAPERF_TRACE_EVENTS");
  EXPECT_FALSE(core::trace_env().enabled);

  ::setenv("CCAPERF_TRACE", "0", 1);
  EXPECT_FALSE(core::trace_env().enabled);
  ::setenv("CCAPERF_TRACE", "off", 1);
  EXPECT_FALSE(core::trace_env().enabled);

  ::setenv("CCAPERF_TRACE", "1", 1);
  core::TraceEnv env = core::trace_env();
  EXPECT_TRUE(env.enabled);
  EXPECT_EQ(env.path, "trace.json");
  EXPECT_EQ(env.capacity, tau::TraceBuffer::kDefaultCapacity);

  ::setenv("CCAPERF_TRACE", "out/run7.json", 1);
  ::setenv("CCAPERF_TRACE_EVENTS", "1024", 1);
  env = core::trace_env();
  EXPECT_TRUE(env.enabled);
  EXPECT_EQ(env.path, "out/run7.json");
  EXPECT_EQ(env.capacity, 1024u);

  // A malformed or zero capacity raises, naming the knob: the ring is the
  // only trace mode, so there is no unbounded capacity to fall back to.
  for (const char* bad : {"abc", "0"}) {
    ::setenv("CCAPERF_TRACE_EVENTS", bad, 1);
    try {
      core::trace_env();
      ADD_FAILURE() << "CCAPERF_TRACE_EVENTS=" << bad << " was accepted";
    } catch (const ccaperf::Error& e) {
      EXPECT_NE(std::string(e.what()).find("CCAPERF_TRACE_EVENTS"),
                std::string::npos)
          << e.what();
    }
  }

  ::unsetenv("CCAPERF_TRACE");
  ::unsetenv("CCAPERF_TRACE_EVENTS");
}

}  // namespace
