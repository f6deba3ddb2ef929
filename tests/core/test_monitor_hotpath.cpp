// Handle-based monitoring fast path: register_method/ParamSpan reporting,
// columnar Record accessors, NaN backfill of late columns, call edges,
// counter-named samples() and the columnar CSV dump.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/mastermind.hpp"
#include "core/tau_component.hpp"

namespace {

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

TEST(MonitorHotpath, HandlePathRecordsParamsAndTimes) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle h = mon->register_method("hp::f()", {"Q", "mode"});
  for (int i = 0; i < 3; ++i) {
    const double params[2] = {100.0 * (i + 1), static_cast<double>(i % 2)};
    mon->start(h, core::ParamSpan(params, 2));
    mon->stop(h);
  }
  const core::Record* rec = rig.mm->record("hp::f()");
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->count(), 3u);
  EXPECT_DOUBLE_EQ(rec->param_at(0, "Q"), 100.0);
  EXPECT_DOUBLE_EQ(rec->param_at(2, "Q"), 300.0);
  EXPECT_DOUBLE_EQ(rec->param_at(1, "mode"), 1.0);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GE(rec->wall_us(i), 0.0);
    EXPECT_EQ(rec->compute_us(i), rec->wall_us(i) - rec->mpi_us(i));
  }
  // The method key doubles as its PROXY-group TAU timer.
  tau::Registry& reg = rig.tau->registry();
  ASSERT_TRUE(reg.has_timer("hp::f()"));
  EXPECT_EQ(reg.calls(reg.timer("hp::f()")), 3u);
  EXPECT_EQ(reg.stats_at(reg.timer("hp::f()")).group, "PROXY");
}

TEST(MonitorHotpath, RegisterMethodIsIdempotent) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle a = mon->register_method("hp::g()", {"Q"});
  const core::MethodHandle b = mon->register_method("hp::g()", {"Q"});
  EXPECT_EQ(a, b);
  // A different method gets a different handle.
  EXPECT_NE(a, mon->register_method("hp::h()", {"Q"}));
  // Conflicting parameter names are rejected.
  EXPECT_THROW(mon->register_method("hp::g()", {"N"}), ccaperf::Error);
  // Too many parameters are rejected.
  EXPECT_THROW(mon->register_method("hp::many()", {"a", "b", "c", "d", "e"}),
               ccaperf::Error);
}

TEST(MonitorHotpath, WrongParamCountThrows) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle h = mon->register_method("hp::f()", {"Q", "mode"});
  const double one = 7.0;
  EXPECT_THROW(mon->start(h, core::ParamSpan(&one, 1)), ccaperf::Error);
}

TEST(MonitorHotpath, MismatchedHandleStopThrows) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle a = mon->register_method("hp::a()", {});
  const core::MethodHandle b = mon->register_method("hp::b()", {});
  mon->start(a, {});
  EXPECT_THROW(mon->stop(b), ccaperf::Error);
}

// A method first registered without parameters may name them later: the
// new columns read NaN on the earlier rows, and samples() skips those.
TEST(MonitorHotpath, LateParamColumnIsNaNOnEarlierRows) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle h = mon->register_method("hp::late()", {});
  mon->start(h, {});
  mon->stop(h);
  ASSERT_EQ(mon->register_method("hp::late()", {"Q"}), h);
  const double q = 20.0;
  mon->start(h, core::ParamSpan(&q, 1));
  mon->stop(h);

  const core::Record* rec = rig.mm->record("hp::late()");
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->count(), 2u);
  EXPECT_TRUE(std::isnan(rec->param_at(0, "Q")));
  EXPECT_DOUBLE_EQ(rec->param_at(1, "Q"), 20.0);
  EXPECT_EQ(rec->samples("Q").size(), 1u);
}

TEST(MonitorHotpath, NestedHandleCallsCountEdges) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle outer = mon->register_method("hp::outer()", {});
  const core::MethodHandle inner = mon->register_method("hp::inner()", {});
  for (int i = 0; i < 2; ++i) {
    mon->start(outer, {});
    mon->start(inner, {});
    mon->stop(inner);
    mon->stop(outer);
  }
  EXPECT_EQ(rig.mm->call_count("hp::outer()", "hp::inner()"), 2u);
  EXPECT_EQ(rig.mm->call_count("", "hp::outer()"), 2u);
}

TEST(MonitorHotpath, SamplesAcceptsCounterMetricSource) {
  Rig rig;
  std::uint64_t flops = 0;
  rig.tau->registry().counters().add_source("PAPI_FP_OPS", [&] { return flops; });

  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle h = mon->register_method("hp::k()", {"Q"});
  for (int i = 1; i <= 4; ++i) {
    const double q = 10.0 * i;
    mon->start(h, core::ParamSpan(&q, 1));
    flops += 100 * static_cast<std::uint64_t>(i);
    mon->stop(h);
  }
  const core::Record* rec = rig.mm->record("hp::k()");
  ASSERT_NE(rec, nullptr);

  const auto s = rec->samples("Q", std::string("PAPI_FP_OPS"));
  ASSERT_EQ(s.size(), 4u);
  EXPECT_DOUBLE_EQ(s[0].first, 10.0);
  EXPECT_DOUBLE_EQ(s[0].second, 100.0);
  EXPECT_DOUBLE_EQ(s[3].second, 400.0);
  // Named time sources match the enum overloads.
  const auto wall_named = rec->samples("Q", std::string("wall"));
  const auto wall_enum = rec->samples("Q", core::Record::Metric::wall);
  ASSERT_EQ(wall_named.size(), wall_enum.size());
  for (std::size_t i = 0; i < wall_named.size(); ++i)
    EXPECT_DOUBLE_EQ(wall_named[i].second, wall_enum[i].second);
  // Unknown sources yield no samples rather than throwing.
  EXPECT_TRUE(rec->samples("Q", std::string("PAPI_NOPE")).empty());
}

TEST(MonitorHotpath, CsvDumpStreamsColumns) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle h = mon->register_method("hp::csv()", {"Q"});
  const double q = 42.0;
  mon->start(h, core::ParamSpan(&q, 1));
  mon->stop(h);

  std::ostringstream os;
  rig.mm->record("hp::csv()")->dump_csv(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("method,wall_us,mpi_us,compute_us,param:Q"), std::string::npos);
  EXPECT_NE(text.find("hp::csv()"), std::string::npos);
}

}  // namespace
