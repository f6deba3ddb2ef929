// Trace verbosity tiers (DESIGN.md §12): the overhead governor's trace
// actuator. full > slices > counters > off, gated per record kind, with
// balanced synthetic events when the tier changes while frames are open —
// a governed trace must still parse and match every enter with an exit.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "tau/registry.hpp"
#include "tau/trace_buffer.hpp"

namespace {

using tau::Registry;
using tau::TraceKind;
using tau::TraceRecord;
using tau::TraceTier;

std::size_t count_kind(const tau::TraceBuffer& tr, TraceKind k) {
  std::size_t n = 0;
  tr.for_each([&n, k](const TraceRecord& r) { n += r.kind == k; });
  return n;
}

/// Depth never goes negative and ends at zero.
bool balanced(const std::vector<TraceRecord>& tr) {
  long depth = 0;
  for (const TraceRecord& r : tr) {
    if (r.is_enter()) ++depth;
    if (r.is_exit()) --depth;
    if (depth < 0) return false;
  }
  return depth == 0;
}

TEST(TraceTiers, DefaultTierIsFullAndUnchanged) {
  Registry reg;
  EXPECT_EQ(reg.trace_tier(), TraceTier::full);
  reg.set_tracing(true);
  const auto t = reg.timer("f()");
  reg.start(t);
  reg.trace_arg(reg.trace_string("Q"), 64.0);
  reg.stop(t);
  reg.trace_message(true, 1, 0, 64, 1);
  const auto tr = reg.snapshot_trace();
  ASSERT_EQ(tr.size(), 3u);
  EXPECT_TRUE(tr[0].is_enter());
  EXPECT_TRUE(tr[0].has_arg());
  EXPECT_TRUE(tr[1].is_exit());
  EXPECT_EQ(tr[2].kind, TraceKind::msg_send);
}

TEST(TraceTiers, SlicesDropsMessagesAndArgsKeepsSlices) {
  Registry reg;
  reg.set_tracing(true);
  reg.set_trace_tier(TraceTier::slices);
  const auto t = reg.timer("f()");
  reg.start(t);
  reg.trace_arg(reg.trace_string("Q"), 64.0);
  reg.stop(t);
  reg.trace_message(true, 1, 0, 64, 1);
  const auto tr = reg.snapshot_trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_TRUE(tr[0].is_enter());
  EXPECT_FALSE(tr[0].has_arg());
  EXPECT_TRUE(tr[1].is_exit());
}

TEST(TraceTiers, CountersDropsSlicesKeepsCounterSamples) {
  Registry reg;
  reg.counters().add_source("K", [] { return std::uint64_t{7}; });
  reg.set_tracing(true);
  reg.set_trace_tier(TraceTier::counters);
  const auto t = reg.timer("f()");
  reg.start(t);
  reg.stop(t);
  reg.trace_counter_samples();
  const auto& tr = reg.trace();
  EXPECT_EQ(count_kind(tr, TraceKind::enter), 0u);
  EXPECT_EQ(count_kind(tr, TraceKind::exit), 0u);
  EXPECT_GE(count_kind(tr, TraceKind::counter), 1u);
}

TEST(TraceTiers, OffKeepsOnlyInstants) {
  // Instants survive every tier: the governor's own audit marks must not
  // be silenced by the throttle they record.
  Registry reg;
  reg.counters().add_source("K", [] { return std::uint64_t{7}; });
  reg.set_tracing(true);
  reg.set_trace_tier(TraceTier::off);
  const auto t = reg.timer("f()");
  reg.start(t);
  reg.stop(t);
  reg.trace_counter_samples();
  reg.trace_message(true, 1, 0, 64, 1);
  reg.trace_instant(reg.trace_string("mark"));
  const auto tr = reg.snapshot_trace();
  ASSERT_EQ(tr.size(), 1u);
  EXPECT_EQ(tr[0].kind, TraceKind::instant);
}

TEST(TraceTiers, MidFrameThrottleStaysBalanced) {
  // Throttle below slices while frames are open: synthetic exits close the
  // open stack (innermost first); re-enabling re-opens it with synthetic
  // enters. The merged trace parses with every enter matched.
  Registry reg;
  reg.set_tracing(true);
  const auto outer = reg.timer("outer()");
  const auto inner = reg.timer("inner()");
  reg.start(outer);
  reg.start(inner);
  reg.set_trace_tier(TraceTier::counters);  // drops slice recording mid-frame
  reg.stop(inner);                          // must not emit an exit
  reg.set_trace_tier(TraceTier::full);      // re-opens outer synthetically
  reg.stop(outer);

  const auto tr = reg.snapshot_trace();
  EXPECT_TRUE(balanced(tr));
  // enter(outer) enter(inner) synth-exit(inner) synth-exit(outer)
  // synth-enter(outer) exit(outer)
  ASSERT_EQ(tr.size(), 6u);
  EXPECT_TRUE(tr[2].synthetic());
  EXPECT_TRUE(tr[2].is_exit());
  EXPECT_EQ(tr[2].id, inner);
  EXPECT_TRUE(tr[3].synthetic());
  EXPECT_EQ(tr[3].id, outer);
  EXPECT_TRUE(tr[4].synthetic());
  EXPECT_TRUE(tr[4].is_enter());
  EXPECT_EQ(tr[4].id, outer);
  EXPECT_FALSE(tr[5].synthetic());
  EXPECT_TRUE(tr[5].is_exit());
  EXPECT_EQ(tr[5].id, outer);
}

TEST(TraceTiers, SnapshotClosesOnlyTracedFrames) {
  Registry reg;
  reg.set_tracing(true);
  const auto a = reg.timer("a()");
  const auto b = reg.timer("b()");
  reg.start(a);
  reg.set_trace_tier(TraceTier::off);
  reg.start(b);  // opened under "off": never traced
  const auto tr = reg.snapshot_trace();
  EXPECT_TRUE(balanced(tr));
  // a's synthetic close came from the tier change; the snapshot must not
  // fabricate an exit for b, which has no enter.
  for (const TraceRecord& r : tr) EXPECT_NE(r.id, b);
  reg.stop(b);
  reg.stop(a);
}

TEST(TraceTiers, LateInternedGroupInheritsTier) {
  Registry reg;
  reg.set_tracing(true);
  reg.set_trace_tier(TraceTier::counters);
  // Timer (and its group) first interned AFTER the throttle: it must not
  // reopen full verbosity.
  const auto t = reg.timer("late()", "LATE");
  reg.start(t);
  reg.stop(t);
  EXPECT_TRUE(reg.trace().empty());
}

TEST(TraceTiers, TierChangeNestsFramesOfSeveralGroups) {
  // Frames of different groups interleave on one stack: a tier change must
  // close and re-open them as one nest, so every exit — synthetic or real —
  // matches the innermost open enter.
  Registry reg;
  reg.set_tracing(true);
  const auto a = reg.timer("a()");
  const auto b = reg.timer("MPI_b()", "MPI");
  const auto c = reg.timer("c()");
  reg.start(a);
  reg.start(b);
  reg.start(c);
  reg.set_trace_tier(TraceTier::counters);
  reg.set_trace_tier(TraceTier::full);
  reg.stop(c);
  reg.stop(b);
  reg.stop(a);

  const auto tr = reg.snapshot_trace();
  std::vector<std::uint32_t> open;
  std::size_t exits = 0;
  for (const TraceRecord& r : tr) {
    if (r.is_enter()) open.push_back(r.id);
    if (!r.is_exit()) continue;
    ASSERT_FALSE(open.empty());
    EXPECT_EQ(r.id, open.back()) << "exit #" << exits;
    open.pop_back();
    ++exits;
  }
  EXPECT_TRUE(open.empty());
  // 3 enters, 3 synthetic exits, 3 synthetic enters, 3 real exits.
  EXPECT_EQ(tr.size(), 12u);
}

TEST(TraceTiers, TierNamesAreStable) {
  EXPECT_STREQ(tau::trace_tier_name(TraceTier::full), "full");
  EXPECT_STREQ(tau::trace_tier_name(TraceTier::slices), "slices");
  EXPECT_STREQ(tau::trace_tier_name(TraceTier::counters), "counters");
  EXPECT_STREQ(tau::trace_tier_name(TraceTier::off), "off");
}

}  // namespace
