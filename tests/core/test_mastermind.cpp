// Mastermind monitoring: per-invocation wall/MPI/compute attribution via
// TAU query differencing, parameter and counter capture, nesting, CSV
// dumps, and error handling.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/mastermind.hpp"
#include "core/tau_component.hpp"
#include "mpp/runtime.hpp"

namespace {

/// Framework with just TAU + Mastermind wired together.
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

  /// Handle of a method without parameters.
  core::MethodHandle method(const std::string& key) { return mm->register_method(key, {}); }

  /// Monitors one call of `key` reporting parameter `q` as "Q".
  void call_with_q(const std::string& key, double q) {
    const core::MethodHandle h = mm->register_method(key, {"Q"});
    mm->start(h, core::ParamSpan(&q, 1));
    mm->stop(h);
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

void spin_ms(double ms) {
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::duration<double, std::milli>(ms);
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(Mastermind, RecordsWallTimeAndParams) {
  Rig rig;
  const core::MethodHandle h = rig.mm->register_method("m::f()", {"Q"});
  const double q = 1234.0;
  rig.mm->start(h, core::ParamSpan(&q, 1));
  spin_ms(2.0);
  rig.mm->stop(h);

  const core::Record* rec = rig.mm->record("m::f()");
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->count(), 1u);
  EXPECT_GE(rec->wall_us(0), 1800.0);
  EXPECT_DOUBLE_EQ(rec->param_at(0, "Q"), 1234.0);
  // No MPI inside: compute == wall.
  EXPECT_NEAR(rec->compute_us(0), rec->wall_us(0), 1.0);
  EXPECT_NEAR(rec->mpi_us(0), 0.0, 1.0);
}

TEST(Mastermind, CreatesProxyTimerInTau) {
  Rig rig;
  const core::MethodHandle h = rig.method("sc_proxy::compute()");
  rig.mm->start(h, {});
  rig.mm->stop(h);
  tau::Registry& reg = rig.tau->registry();
  ASSERT_TRUE(reg.has_timer("sc_proxy::compute()"));
  EXPECT_EQ(reg.calls(reg.timer("sc_proxy::compute()")), 1u);
  EXPECT_EQ(reg.stats_at(reg.timer("sc_proxy::compute()")).group, "PROXY");
}

// The two MPI-attribution tests below hand rank 0 an atomic go-signal that
// rank 1 raises only after opening its monitored bracket: a send issued
// earlier would already be in flight, and the receive inside the bracket
// would wait out only part of the modeled latency. An atomic rather than
// an MPI call, so no extra MPI time lands in the bracket.

TEST(Mastermind, AttributesMpiTimePerInvocation) {
  // Monitored method containing a modeled-latency receive: mpi_us must
  // capture the wait, compute_us the remainder.
  mpp::NetworkModel net;
  net.latency_us = 3000.0;
  std::atomic<bool> bracket_open{false};
  mpp::Runtime::run(2, net, [&](mpp::Comm& world) {
    Rig rig;  // installs hooks into this rank's registry
    if (world.rank() == 0) {
      while (!bracket_open.load()) std::this_thread::yield();
      int v = 1;
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      const core::MethodHandle h = rig.method("m::recv()");
      rig.mm->start(h, {});
      bracket_open.store(true);
      int v = 0;
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();
      spin_ms(1.0);
      rig.mm->stop(h);
      const core::Record* rec = rig.mm->record("m::recv()");
      EXPECT_GE(rec->mpi_us(0), 2500.0);
      EXPECT_GE(rec->compute_us(0), 800.0);
      EXPECT_NEAR(rec->wall_us(0), rec->mpi_us(0) + rec->compute_us(0), 1.0);
    }
  });
}

TEST(Mastermind, SeparatesConsecutiveInvocationsMpiTime) {
  // Cumulative TAU counters differenced per invocation: the second
  // invocation must not inherit the first one's MPI time.
  mpp::NetworkModel net;
  net.latency_us = 2000.0;
  std::atomic<bool> bracket_open{false};
  mpp::Runtime::run(2, net, [&](mpp::Comm& world) {
    Rig rig;
    if (world.rank() == 0) {
      while (!bracket_open.load()) std::this_thread::yield();
      int v = 1;
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
      world.barrier();
    } else {
      const core::MethodHandle a = rig.method("m::a()");
      const core::MethodHandle b = rig.method("m::b()");
      rig.mm->start(a, {});
      bracket_open.store(true);
      int v = 0;
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();
      rig.mm->stop(a);
      rig.mm->start(b, {});
      spin_ms(0.5);  // no MPI at all
      rig.mm->stop(b);
      world.barrier();
      EXPECT_GE(rig.mm->record("m::a()")->mpi_us(0), 1500.0);
      EXPECT_NEAR(rig.mm->record("m::b()")->mpi_us(0), 0.0, 1.0);
    }
  });
}

TEST(Mastermind, NestedMonitoringIsLifo) {
  Rig rig;
  const core::MethodHandle outer = rig.method("outer()");
  const core::MethodHandle inner = rig.method("inner()");
  rig.mm->start(outer, {});
  rig.mm->start(inner, {});
  spin_ms(1.0);
  rig.mm->stop(inner);
  rig.mm->stop(outer);
  EXPECT_GE(rig.mm->record("outer()")->wall_us(0), rig.mm->record("inner()")->wall_us(0));
}

TEST(Mastermind, MismatchedStopThrows) {
  Rig rig;
  const core::MethodHandle a = rig.method("a()");
  const core::MethodHandle b = rig.method("b()");
  rig.mm->start(a, {});
  EXPECT_THROW(rig.mm->stop(b), ccaperf::Error);
  rig.mm->stop(a);
  EXPECT_THROW(rig.mm->stop(a), ccaperf::Error);
}

TEST(Mastermind, CapturesCounterDeltas) {
  Rig rig;
  std::uint64_t misses = 100;
  rig.tau->registry().counters().add_source(hwc::kL2Dcm, [&misses] { return misses; });
  const core::MethodHandle h = rig.method("k()");
  rig.mm->start(h, {});
  misses = 175;
  rig.mm->stop(h);
  const core::Record* rec = rig.mm->record("k()");
  ASSERT_EQ(rec->counter_names(), std::vector<std::string>{hwc::kL2Dcm});
  EXPECT_DOUBLE_EQ(rec->counter_at(0, hwc::kL2Dcm), 75.0);
}

TEST(Mastermind, SamplesExtractQAndMetric) {
  Rig rig;
  for (double q : {100.0, 200.0, 300.0}) rig.call_with_q("f()", q);
  const auto samples = rig.mm->record("f()")->samples("Q");
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples[1].first, 200.0);
  EXPECT_TRUE(rig.mm->record("f()")->samples("missing_param").empty());
}

TEST(Mastermind, CsvDumpHasHeaderAndRows) {
  Rig rig;
  rig.call_with_q("f()", 7.0);
  std::ostringstream os;
  rig.mm->record("f()")->dump_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("method,wall_us,mpi_us,compute_us,param:Q"), std::string::npos);
  EXPECT_NE(s.find("f(),"), std::string::npos);
  EXPECT_NE(s.find(",7"), std::string::npos);
}

TEST(Mastermind, DumpAllWritesFiles) {
  const std::string dir = "mastermind_test_dump";
  {
    Rig rig;
    rig.call_with_q("m::f()", 1.0);
    rig.mm->dump_all(dir, 0);
  }
  EXPECT_TRUE(std::filesystem::exists(dir + "/m__f__.rank0.csv"));
  std::filesystem::remove_all(dir);
}

TEST(Mastermind, CallPathEdgesFromNesting) {
  Rig rig;
  const core::MethodHandle a = rig.method("a()");
  const core::MethodHandle b = rig.method("b()");
  // driver -> a -> b, a -> b, then top-level b.
  rig.mm->start(a, {});
  rig.mm->start(b, {});
  rig.mm->stop(b);
  rig.mm->start(b, {});
  rig.mm->stop(b);
  rig.mm->stop(a);
  rig.mm->start(b, {});
  rig.mm->stop(b);
  EXPECT_EQ(rig.mm->call_count("a()", "b()"), 2u);
  EXPECT_EQ(rig.mm->call_count("", "a()"), 1u);
  EXPECT_EQ(rig.mm->call_count("", "b()"), 1u);
  EXPECT_EQ(rig.mm->call_count("b()", "a()"), 0u);
  ASSERT_EQ(rig.mm->call_edges().size(), 3u);
}

TEST(Mastermind, MethodKeysListsAllRecords) {
  Rig rig;
  for (const char* key : {"a()", "b()"}) {
    const core::MethodHandle h = rig.method(key);
    rig.mm->start(h, {});
    rig.mm->stop(h);
  }
  const auto keys = rig.mm->method_keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a()");
  EXPECT_EQ(rig.mm->record("nope"), nullptr);
}

}  // namespace
