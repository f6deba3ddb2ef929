// Property tests for the deterministic fault-injection layer (fault.hpp,
// DESIGN.md §8). The schedule is a pure hash of (seed, src, dst, seq,
// attempt), so the properties under test are strong:
//
//  (a) a zero-fault plan is byte-identical to the no-injection path —
//      same delivery log, zero counters, identical Perfetto export;
//  (b) the same seed yields the identical delivery order (and therefore
//      the identical Perfetto export) across independent runs;
//  (c) no silent faults: every fault the fabric injects or recovers from
//      is visible through CommHooks::on_fault, category by category.
//
// The script is phased so that exactly one rank drives the fabric at a
// time (sender while the receiver sits in a barrier, then vice versa);
// collectives never advance the fault clock, so the progress-step
// schedule — and with it the delivery order — is fully deterministic.

#include <gtest/gtest.h>

#include <array>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "core/trace_export.hpp"
#include "mpp/runtime.hpp"
#include "tau/trace_buffer.hpp"

namespace {

using mpp::Comm;
using mpp::FaultEvent;
using mpp::FaultKind;
using mpp::FaultSpec;
using mpp::FaultStats;
using mpp::MsgEvent;
using mpp::Request;
using mpp::Runtime;

/// Records message endpoints and fault events as one interleaved line log
/// (the byte-comparable "delivery order" of the properties above) plus a
/// per-category tally mirroring FaultStats for the no-silent-faults check.
struct FaultRecorder : mpp::CommHooks {
  void on_begin(const char*) override {}
  void on_end(const char*, std::size_t) override {}

  void on_message_send(const MsgEvent& e) override {
    sends.push_back(e);
    line("S %d>%d seq=%llu tag=%d bytes=%zu", e.src, e.dst,
         static_cast<unsigned long long>(e.seq), e.tag, e.bytes);
  }
  void on_message_recv(const MsgEvent& e) override {
    recvs.push_back(e);
    line("R %d>%d seq=%llu tag=%d bytes=%zu", e.src, e.dst,
         static_cast<unsigned long long>(e.seq), e.tag, e.bytes);
  }
  void on_fault(const FaultEvent& e) override {
    ++fault_events;
    switch (e.type) {
      case FaultEvent::Type::injected:
        switch (e.kind) {
          case FaultKind::drop: ++tally.injected_drops; break;
          case FaultKind::delay: ++tally.injected_delays; break;
          case FaultKind::duplicate: ++tally.injected_duplicates; break;
          case FaultKind::reorder: ++tally.injected_reorders; break;
          case FaultKind::stall: ++tally.injected_stalls; break;
          case FaultKind::none: break;
        }
        break;
      case FaultEvent::Type::retry: ++tally.retries; break;
      case FaultEvent::Type::retry_exhausted: ++tally.retries_exhausted; break;
      case FaultEvent::Type::duplicate_suppressed:
        ++tally.duplicates_suppressed;
        break;
      case FaultEvent::Type::timeout: ++tally.timeouts; break;
      case FaultEvent::Type::stale_fallback: ++tally.stale_fallbacks; break;
    }
    line("F t=%d k=%d %d>%d seq=%llu detail=%u", static_cast<int>(e.type),
         static_cast<int>(e.kind), e.src, e.dst,
         static_cast<unsigned long long>(e.seq), e.detail);
  }

  void line(const char* fmt, ...) {
    char buf[128];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    log += buf;
    log += '\n';
  }

  std::string log;
  std::vector<MsgEvent> sends;
  std::vector<MsgEvent> recvs;
  FaultStats tally;
  std::uint64_t fault_events = 0;
};

constexpr int kMsgs = 40;
constexpr std::size_t kBigBytes = 72 * 1024;  // > Fabric::kRendezvousBytes

std::size_t msg_bytes(int i) {
  // Mostly eager-sized, every ninth message rendezvous-class.
  return (i % 9 == 4) ? kBigBytes : 64 + 8 * static_cast<std::size_t>(i);
}

std::uint8_t pattern(int i, std::size_t k) {
  return static_cast<std::uint8_t>(31 * i + 7 * k + 3);
}

/// Each test() drives one fabric fault poll without consuming a message:
/// the request listens on a tag nobody sends, and dropping it cancels the
/// posted receive. Used to flush duplicate clones still held after the
/// drain so the counter comparisons are exact.
void drive_polls(Comm& world, int n) {
  std::uint8_t b = 0;
  Request r = world.irecv_bytes(&b, 1, 0, 9901);
  for (int k = 0; k < n; ++k) (void)r.test();
}

struct ScriptResult {
  std::string log;  ///< rank 0 log + rank 1 log
  FaultStats stats;  ///< fabric counters at end of run
  FaultStats hook_tally;  ///< summed per-rank hook-side tallies
  std::uint64_t hook_events = 0;
  std::vector<MsgEvent> sends;  ///< rank 0's send endpoints, issue order
  std::vector<MsgEvent> recvs;  ///< rank 1's recv endpoints, delivery order
};

/// Phased two-rank script: rank 0 posts every isend while rank 1 sits in a
/// barrier, then rank 1 drains them (any_source/any_tag) while rank 0 sits
/// in the next barrier. Payloads embed the message index so delivery can
/// be verified regardless of arrival order.
ScriptResult run_script(const mpp::RunOptions& opts) {
  std::array<FaultRecorder, 2> rec;
  FaultStats stats;
  Runtime::run(2, opts, [&](Comm& world) {
    mpp::HooksInstaller install(&rec[static_cast<std::size_t>(world.rank())]);
    if (world.rank() == 0) {
      std::vector<std::vector<std::uint8_t>> bufs(kMsgs);
      std::vector<Request> reqs;
      reqs.reserve(kMsgs);
      for (int i = 0; i < kMsgs; ++i) {
        bufs[static_cast<std::size_t>(i)].resize(msg_bytes(i));
        auto& b = bufs[static_cast<std::size_t>(i)];
        std::memcpy(b.data(), &i, sizeof i);
        for (std::size_t k = sizeof i; k < b.size(); ++k) b[k] = pattern(i, k);
        reqs.push_back(world.isend_bytes(b.data(), b.size(), 1, i % 5));
      }
      world.barrier();  // release the drain
      world.barrier();  // drain done
      mpp::wait_all(reqs);
      stats = world.fault_stats();
      world.barrier();
    } else {
      world.barrier();  // sends posted
      std::vector<std::uint8_t> buf(kBigBytes);
      std::vector<bool> seen(kMsgs, false);
      for (int n = 0; n < kMsgs; ++n) {
        const mpp::Status st =
            world.irecv_bytes(buf.data(), buf.size(), mpp::any_source, mpp::any_tag).wait();
        int i = -1;
        std::memcpy(&i, buf.data(), sizeof i);
        ASSERT_GE(i, 0);
        ASSERT_LT(i, kMsgs);
        EXPECT_FALSE(seen[static_cast<std::size_t>(i)]) << "message " << i
                                                        << " delivered twice";
        seen[static_cast<std::size_t>(i)] = true;
        EXPECT_EQ(st.bytes, msg_bytes(i));
        EXPECT_EQ(st.tag, i % 5);
        for (std::size_t k = sizeof i; k < st.bytes; ++k)
          ASSERT_EQ(buf[k], pattern(i, k)) << "payload corrupt, msg " << i;
      }
      // Flush duplicate clones still parked in the fault layer so the
      // hook-vs-fabric counter comparison is exact.
      drive_polls(world, 16);
      world.barrier();
      world.barrier();
    }
  });
  ScriptResult r;
  r.log = rec[0].log + "--\n" + rec[1].log;
  r.stats = stats;
  for (const FaultRecorder& h : rec) {
    r.hook_events += h.fault_events;
    r.hook_tally.injected_drops += h.tally.injected_drops;
    r.hook_tally.injected_delays += h.tally.injected_delays;
    r.hook_tally.injected_duplicates += h.tally.injected_duplicates;
    r.hook_tally.injected_reorders += h.tally.injected_reorders;
    r.hook_tally.injected_stalls += h.tally.injected_stalls;
    r.hook_tally.retries += h.tally.retries;
    r.hook_tally.retries_exhausted += h.tally.retries_exhausted;
    r.hook_tally.duplicates_suppressed += h.tally.duplicates_suppressed;
    r.hook_tally.timeouts += h.tally.timeouts;
    r.hook_tally.stale_fallbacks += h.tally.stale_fallbacks;
  }
  r.sends = rec[0].sends;
  r.recvs = rec[1].recvs;
  return r;
}

/// Lifts a run's recorded message endpoints into synthetic rank traces
/// (timestamp = log index, identical across same-schedule runs) and merges
/// them through the real Perfetto exporter. Byte-comparing two exports
/// therefore compares the full delivery schedule.
std::string perfetto_export(const ScriptResult& run, core::MergeStats* out) {
  core::TraceMerger merger;
  for (int rank = 0; rank < 2; ++rank) {
    core::RankTrace t;
    t.rank = rank;
    const auto& events = rank == 0 ? run.sends : run.recvs;
    double tick = 0.0;
    for (const MsgEvent& e : events) {
      tau::TraceRecord r;
      r.kind = rank == 0 ? tau::TraceKind::msg_send : tau::TraceKind::msg_recv;
      r.t_us = tick++;
      r.payload = e.bytes;
      r.seq = e.seq;
      r.peer = rank == 0 ? e.dst : e.src;
      r.tag = e.tag;
      t.events.push_back(r);
    }
    t.total_events = t.events.size();
    merger.add_rank(std::move(t));
  }
  std::ostringstream os;
  const core::MergeStats st = merger.write_chrome_trace(os);
  if (out != nullptr) *out = st;
  return os.str();
}

void expect_stats_eq(const FaultStats& a, const FaultStats& b) {
  EXPECT_EQ(a.injected_drops, b.injected_drops);
  EXPECT_EQ(a.injected_delays, b.injected_delays);
  EXPECT_EQ(a.injected_duplicates, b.injected_duplicates);
  EXPECT_EQ(a.injected_reorders, b.injected_reorders);
  EXPECT_EQ(a.injected_stalls, b.injected_stalls);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.retries_exhausted, b.retries_exhausted);
  EXPECT_EQ(a.duplicates_suppressed, b.duplicates_suppressed);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.stale_fallbacks, b.stale_fallbacks);
}

/// The determinism property tests run loss-free retransmission (a dropped
/// message's first retry always delivers) so every schedule completes.
mpp::RunOptions faulty_opts(std::uint64_t seed) {
  mpp::RunOptions opts;
  opts.faults = FaultSpec::moderate(seed);
  opts.faults.retry_faults = false;
  return opts;
}

TEST(FaultInjection, ZeroFaultPlanMatchesNoInjectionPath) {
  // No fault layer at all...
  const ScriptResult plain = run_script(mpp::RunOptions{});
  // ...vs a constructed plan whose rates are all zero.
  mpp::RunOptions zeroed;
  zeroed.faults.seed = 0xDEADBEEFULL;  // seed alone must not activate anything
  const ScriptResult zero = run_script(zeroed);

  EXPECT_EQ(plain.log, zero.log);
  EXPECT_EQ(zero.stats.injected_total(), 0u);
  EXPECT_EQ(zero.stats.retries, 0u);
  EXPECT_EQ(zero.stats.duplicates_suppressed, 0u);
  EXPECT_EQ(zero.hook_events, 0u);
  EXPECT_EQ(plain.hook_events, 0u);

  core::MergeStats ms{};
  const std::string a = perfetto_export(plain, nullptr);
  const std::string b = perfetto_export(zero, &ms);
  EXPECT_EQ(a, b);
  EXPECT_EQ(ms.flows, static_cast<std::size_t>(kMsgs));
  EXPECT_TRUE(ms.fully_matched());
}

TEST(FaultInjection, SameSeedSameScheduleAcross100Plans) {
  std::uint64_t total_injected = 0;
  for (int s = 0; s < 100; ++s) {
    const std::uint64_t seed = 0x1000ULL + 7ULL * static_cast<std::uint64_t>(s);
    const ScriptResult a = run_script(faulty_opts(seed));
    const ScriptResult b = run_script(faulty_opts(seed));
    ASSERT_EQ(a.log, b.log) << "seed " << seed << " not deterministic";
    expect_stats_eq(a.stats, b.stats);
    // No silent faults, per run: what the fabric counted, the hooks saw.
    expect_stats_eq(a.stats, a.hook_tally);
    total_injected += a.stats.injected_total();
  }
  // The moderate preset must actually be exercising the machinery.
  EXPECT_GT(total_injected, 100u);
}

TEST(FaultInjection, SameSeedIdenticalPerfettoExport) {
  for (int s = 0; s < 5; ++s) {
    const std::uint64_t seed = 0xBEEF00ULL + static_cast<std::uint64_t>(s);
    const ScriptResult a = run_script(faulty_opts(seed));
    const ScriptResult b = run_script(faulty_opts(seed));
    core::MergeStats ms{};
    const std::string ta = perfetto_export(a, nullptr);
    const std::string tb = perfetto_export(b, &ms);
    ASSERT_EQ(ta, tb) << "seed " << seed << " trace not byte-identical";
    // Every message delivered exactly once -> every endpoint flow-matched.
    EXPECT_EQ(ms.flows, static_cast<std::size_t>(kMsgs));
    EXPECT_TRUE(ms.fully_matched());
  }
}

TEST(FaultInjection, EveryInjectedFaultIsVisibleInHookCounters) {
  const ScriptResult run = run_script(faulty_opts(0xFA57C0DEULL));
  EXPECT_GT(run.stats.injected_total(), 0u);
  expect_stats_eq(run.stats, run.hook_tally);
  EXPECT_EQ(run.hook_events,
            run.stats.injected_total() + run.stats.retries +
                run.stats.retries_exhausted + run.stats.duplicates_suppressed +
                run.stats.timeouts + run.stats.stale_fallbacks);
}

TEST(FaultInjection, DifferentSeedsProduceDifferentSchedules) {
  const ScriptResult a = run_script(faulty_opts(1));
  const ScriptResult b = run_script(faulty_opts(2));
  EXPECT_NE(a.log, b.log);
}

TEST(FaultInjection, SpecParserRoundTrips) {
  const FaultSpec m = FaultSpec::parse("moderate");
  EXPECT_TRUE(m.any());
  EXPECT_DOUBLE_EQ(m.drop, FaultSpec::moderate().drop);

  const FaultSpec off = FaultSpec::parse("off");
  EXPECT_FALSE(off.any());

  const FaultSpec custom =
      FaultSpec::parse("seed=42,drop=0.25,delay=0.5,dup=0.1,retry_faults=0");
  EXPECT_EQ(custom.seed, 42u);
  EXPECT_DOUBLE_EQ(custom.drop, 0.25);
  EXPECT_DOUBLE_EQ(custom.delay, 0.5);
  EXPECT_DOUBLE_EQ(custom.duplicate, 0.1);
  EXPECT_FALSE(custom.retry_faults);

  EXPECT_THROW(FaultSpec::parse("bogus_key=1"), ccaperf::Error);
  EXPECT_THROW(FaultSpec::parse("drop=0.7,delay=0.7"), ccaperf::Error);

  // The environment form: CCAPERF_FAULT_SEED overrides the plan's seed,
  // in decimal or 0x hex, and malformed text raises naming the knob.
  ::setenv("CCAPERF_FAULT_PLAN", "seed=7,drop=0.25", 1);
  EXPECT_EQ(FaultSpec::from_env().seed, 7u);
  ::setenv("CCAPERF_FAULT_SEED", "42", 1);
  EXPECT_EQ(FaultSpec::from_env().seed, 42u);
  ::setenv("CCAPERF_FAULT_SEED", "0x2a", 1);
  EXPECT_EQ(FaultSpec::from_env().seed, 42u);
  ::setenv("CCAPERF_FAULT_SEED", "abc", 1);
  try {
    FaultSpec::from_env();
    ADD_FAILURE() << "CCAPERF_FAULT_SEED=abc was accepted";
  } catch (const ccaperf::Error& e) {
    EXPECT_NE(std::string(e.what()).find("CCAPERF_FAULT_SEED"),
              std::string::npos)
        << e.what();
  }
  ::unsetenv("CCAPERF_FAULT_SEED");
  ::unsetenv("CCAPERF_FAULT_PLAN");
  EXPECT_FALSE(FaultSpec::from_env().any());
}

}  // namespace
