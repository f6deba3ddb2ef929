// Thread-aware monitoring (DESIGN.md §9): monitored calls from worker
// pool lanes go to per-lane registry shards and merge deterministically
// into the rank's primary registry at region end; worker rows carry a
// "thread" column, while single-threaded ranks keep the exact pre-thread
// record layout.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <thread>

#include "core/mastermind.hpp"
#include "core/tau_component.hpp"
#include "support/thread_pool.hpp"

namespace {

/// Rebuilds the rank pool for the test and restores the serial pool on
/// scope exit. Must be constructed BEFORE any component that captures the
/// pool (TauMeasurementComponent installs its merge hook on it), so the
/// components die before the pool they reference.
struct PoolGuard {
  explicit PoolGuard(int lanes) { ccaperf::set_rank_pool_threads(lanes); }
  ~PoolGuard() { ccaperf::set_rank_pool_threads(1); }
};

struct Rig {
  cca::Framework fw;
  core::MastermindComponent* mm;
  core::TauMeasurementComponent* tau;

  Rig() : fw(make_repo()) {
    fw.instantiate("tau", "TauMeasurement");
    fw.instantiate("mm", "Mastermind");
    fw.connect("mm", "measurement", "tau", "measurement");
    mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
    tau = dynamic_cast<core::TauMeasurementComponent*>(&fw.component("tau"));
  }

  static cca::ComponentRepository make_repo() {
    cca::ComponentRepository repo;
    repo.register_class("TauMeasurement",
                        [] { return std::make_unique<core::TauMeasurementComponent>(); });
    repo.register_class("Mastermind",
                        [] { return std::make_unique<core::MastermindComponent>(); });
    return repo;
  }
};

/// One monitored invocation per item, from whatever lane runs it.
void monitored_sweep(Rig& rig, core::MethodHandle h, std::size_t n) {
  ccaperf::rank_pool().parallel_for(n, [&](std::size_t i, int) {
    const double params[1] = {static_cast<double>(i)};
    rig.mm->start(h, core::ParamSpan(params, 1));
    rig.mm->stop(h);
  });
}

TEST(ThreadedMonitor, WorkerRowsMergeIntoPrimaryRegistry) {
  PoolGuard pool(4);
  Rig rig;
  const core::MethodHandle h = rig.mm->register_method("tm::patch()", {"Q"});
  // Resolve on the rank thread before any in-region monitoring.
  const double q0[1] = {0.0};
  rig.mm->start(h, core::ParamSpan(q0, 1));
  rig.mm->stop(h);

  constexpr std::size_t kItems = 64;
  monitored_sweep(rig, h, kItems);

  // Region-end hook folded every lane's shard into the primary registry:
  // the merged call count is exact regardless of which lane ran what.
  tau::Registry& reg = rig.tau->registry();
  ASSERT_TRUE(reg.has_timer("tm::patch()"));
  EXPECT_EQ(reg.calls(reg.timer("tm::patch()")), kItems + 1);

  // Every invocation produced a record row.
  const core::Record* rec = rig.mm->record("tm::patch()");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), kItems + 1);
}

TEST(ThreadedMonitor, RowsCarryTheLaneInTheThreadColumn) {
  PoolGuard pool(3);
  Rig rig;
  const core::MethodHandle h = rig.mm->register_method("tm::lane()", {"Q"});
  const double q0[1] = {0.0};
  rig.mm->start(h, core::ParamSpan(q0, 1));
  rig.mm->stop(h);
  monitored_sweep(rig, h, 32);

  const core::Record* rec = rig.mm->record("tm::lane()");
  ASSERT_NE(rec, nullptr);
  const std::vector<std::string> names = rec->param_names();
  ASSERT_NE(std::find(names.begin(), names.end(), "thread"), names.end());
  for (std::size_t i = 0; i < rec->count(); ++i) {
    const double t = rec->param_at(i, "thread");
    ASSERT_FALSE(std::isnan(t));
    EXPECT_GE(t, 0.0);
    EXPECT_LT(t, 3.0);
  }
  // The rank pool has 3 lanes but only worker rows can exceed lane 0; the
  // resolve call on the rank thread is pinned to 0.
  EXPECT_DOUBLE_EQ(rec->param_at(0, "thread"), 0.0);
}

TEST(ThreadedMonitor, CallCountsMatchTheSerialRank) {
  constexpr std::size_t kItems = 48;
  std::uint64_t serial_calls = 0;
  {
    PoolGuard pool(1);
    Rig rig;
    const core::MethodHandle h = rig.mm->register_method("tm::eq()", {"Q"});
    monitored_sweep(rig, h, kItems);
    tau::Registry& reg = rig.tau->registry();
    serial_calls = reg.calls(reg.timer("tm::eq()"));
  }
  PoolGuard pool(4);
  Rig rig;
  const core::MethodHandle h = rig.mm->register_method("tm::eq()", {"Q"});
  const double q0[1] = {0.0};
  rig.mm->start(h, core::ParamSpan(q0, 1));
  rig.mm->stop(h);
  monitored_sweep(rig, h, kItems);
  tau::Registry& reg = rig.tau->registry();
  EXPECT_EQ(reg.calls(reg.timer("tm::eq()")), serial_calls + 1);
}

TEST(ThreadedMonitor, SerialRankKeepsThePreThreadingColumnSet) {
  PoolGuard pool(1);
  Rig rig;
  const core::MethodHandle h = rig.mm->register_method("tm::serial()", {"Q"});
  const double params[1] = {7.0};
  rig.mm->start(h, core::ParamSpan(params, 1));
  rig.mm->stop(h);
  const core::Record* rec = rig.mm->record("tm::serial()");
  ASSERT_NE(rec, nullptr);
  const std::vector<std::string> names = rec->param_names();
  EXPECT_EQ(std::find(names.begin(), names.end(), "thread"), names.end());
}

TEST(ThreadedMonitor, FirstMonitoredCallOffTheRankThreadIsRejected) {
  PoolGuard pool(2);
  Rig rig;
  const core::MethodHandle h = rig.mm->register_method("tm::cold()", {});
  // Nothing resolved the measurement port yet: in-region monitoring from a
  // worker lane must fail loudly instead of racing the resolution.
  std::atomic<bool> worker_threw{false};
  ccaperf::rank_pool().parallel_for(256, [&](std::size_t i, int lane) {
    if (lane != 0) {
      try {
        rig.mm->start(h, {});
        rig.mm->stop(h);
      } catch (const std::runtime_error&) {
        worker_threw.store(true);
      }
      return;
    }
    // Item 0 is always the caller's first chunk: park it until the worker
    // lane has run at least one item, so the caller cannot steal the whole
    // range before the worker wakes (single-core CI boxes).
    if (i == 0)
      while (!worker_threw.load()) std::this_thread::yield();
  });
  EXPECT_TRUE(worker_threw.load());
}

}  // namespace
