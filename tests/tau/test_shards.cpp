// Per-thread registry shards (tau/shards.hpp): deterministic fold of
// worker-lane timers/events into the rank's primary registry, visibility
// through the per-timer generation stamps, and epoch-aligned shard tracing.

#include "tau/shards.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

namespace {

std::map<std::string, tau::TimerStats> by_name(
    const std::vector<tau::TimerStats>& rows) {
  std::map<std::string, tau::TimerStats> m;
  for (const tau::TimerStats& r : rows) m[r.name] = r;
  return m;
}

TEST(RegistryShards, MergeFoldsCallsAndTimesIntoPrimary) {
  tau::Registry primary;
  tau::RegistryShards shards(primary, 3);
  ASSERT_EQ(shards.lanes(), 3);
  ASSERT_EQ(&shards.shard(0), &primary);

  const tau::TimerId p = primary.timer("work", "PROXY");
  primary.start(p);
  primary.stop(p);

  for (int lane = 1; lane < 3; ++lane) {
    tau::Registry& s = shards.shard(lane);
    const tau::TimerId id = s.timer("work", "PROXY");
    for (int k = 0; k < lane; ++k) {  // lane 1: 1 call, lane 2: 2 calls
      s.start(id);
      s.stop(id);
    }
  }
  shards.merge_into_primary();

  EXPECT_EQ(primary.calls(p), 1u + 1u + 2u);
  EXPECT_GT(primary.inclusive_us(p), 0.0);
  // Group accumulator advanced by the absorbed inclusive time.
  EXPECT_DOUBLE_EQ(primary.group_inclusive_us("PROXY"),
                   primary.inclusive_us(p));
  // Shards were drained: a second merge adds nothing.
  const std::uint64_t calls_after_first = primary.calls(p);
  shards.merge_into_primary();
  EXPECT_EQ(primary.calls(p), calls_after_first);
}

TEST(RegistryShards, MergeCreatesTimersFirstSeenOnAShard) {
  tau::Registry primary;
  tau::RegistryShards shards(primary, 2);
  tau::Registry& s = shards.shard(1);
  const tau::TimerId id = s.timer("only_on_shard", "PROXY");
  s.start(id);
  s.stop(id);
  ASSERT_FALSE(primary.has_timer("only_on_shard"));
  shards.merge_into_primary();
  ASSERT_TRUE(primary.has_timer("only_on_shard"));
  EXPECT_EQ(primary.calls(primary.timer("only_on_shard")), 1u);
}

TEST(RegistryShards, MergeIsVisibleToSnapshotDelta) {
  tau::Registry primary;
  tau::RegistryShards shards(primary, 2);
  const tau::Generation before = primary.generation();
  EXPECT_EQ(primary.timers_changed_since(before), 0u);

  tau::Registry& s = shards.shard(1);
  const tau::TimerId id = s.timer("patch_work", "PROXY");
  s.start(id);
  s.stop(id);
  shards.merge_into_primary();

  EXPECT_EQ(primary.timers_changed_since(before), 1u);
  const auto rows = by_name(primary.snapshot());
  ASSERT_EQ(rows.count("patch_work"), 1u);
  EXPECT_EQ(rows.at("patch_work").calls, 1u);
}

TEST(RegistryShards, EventsMergeWithRunningStatsSemantics) {
  tau::Registry primary;
  tau::RegistryShards shards(primary, 3);
  primary.trigger("bytes", 10.0);
  shards.shard(1).trigger("bytes", 20.0);
  shards.shard(2).trigger("bytes", 30.0);
  shards.shard(2).trigger("iters", 7.0);
  shards.merge_into_primary();

  const auto& ev = primary.events();
  ASSERT_EQ(ev.count("bytes"), 1u);
  EXPECT_EQ(ev.at("bytes").count(), 3u);
  EXPECT_DOUBLE_EQ(ev.at("bytes").mean(), 20.0);
  EXPECT_DOUBLE_EQ(ev.at("bytes").min(), 10.0);
  EXPECT_DOUBLE_EQ(ev.at("bytes").max(), 30.0);
  ASSERT_EQ(ev.count("iters"), 1u);
  // Shard events were drained too.
  EXPECT_TRUE(shards.shard(2).events().empty());
}

TEST(RegistryShards, DrainRequiresIdleAndKeepsInternedNames) {
  tau::Registry reg;
  const tau::TimerId id = reg.timer("t");
  reg.start(id);
  EXPECT_THROW((void)reg.drain(), std::runtime_error);
  reg.stop(id);
  const auto rows = reg.drain();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].calls, 1u);
  // Stats are zeroed but the timer (and its id) survives.
  EXPECT_EQ(reg.calls(id), 0u);
  EXPECT_EQ(reg.timer("t"), id);
  EXPECT_TRUE(reg.drain().empty());
}

TEST(RegistryShards, MirrorTracingSharesEpochAndCapacity) {
  tau::Registry primary;
  tau::RegistryShards shards(primary, 2);
  primary.set_trace_capacity(128);
  primary.set_tracing(true);
  shards.mirror_tracing();

  tau::Registry& s = shards.shard(1);
  ASSERT_TRUE(s.tracing());
  EXPECT_EQ(s.trace().capacity(), 128u);
  EXPECT_EQ(s.trace_epoch(), primary.trace_epoch());

  const tau::TimerId id = s.timer("traced");
  s.start(id);
  s.stop(id);
  EXPECT_EQ(s.snapshot_trace().size(), 2u);

  primary.set_tracing(false);
  shards.mirror_tracing();
  EXPECT_FALSE(s.tracing());
}

}  // namespace
