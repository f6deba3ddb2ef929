// Handle-based monitoring fast path: register_method/ParamSpan reporting,
// columnar Record accessors, counter-named samples(), attached streaming
// fits, and the streaming accumulators matching batch re-fits to 1e-9
// relative.

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "core/mastermind.hpp"
#include "core/modeling.hpp"
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
    EXPECT_NEAR(rec->compute_us(i), rec->wall_us(i) - rec->mpi_us(i), 1e-9);
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

TEST(MonitorHotpath, AttachedStreamMatchesBatchRefit) {
  Rig rig;
  core::MonitorPort* mon = rig.mm;
  const core::MethodHandle h = mon->register_method("hp::fit()", {"Q"});
  const core::Record* rec_pre = nullptr;

  std::mt19937 rng(7);
  std::uniform_real_distribution<double> qd(10.0, 500.0);
  for (int i = 0; i < 64; ++i) {
    const double q = qd(rng);
    mon->start(h, core::ParamSpan(&q, 1));
    mon->stop(h);
  }
  rec_pre = rig.mm->record("hp::fit()");
  ASSERT_NE(rec_pre, nullptr);
  // attach_stream backfills the 64 existing rows, then stays current.
  auto* rec = const_cast<core::Record*>(rec_pre);
  core::StreamingFitSet& stream = rec->attach_stream("Q", core::Record::Metric::wall);
  EXPECT_EQ(stream.count(), 64u);
  for (int i = 0; i < 8; ++i) {
    const double q = qd(rng);
    mon->start(h, core::ParamSpan(&q, 1));
    mon->stop(h);
  }
  EXPECT_EQ(stream.count(), 72u);
}

// --- streaming accumulators vs batch re-fit (property tests) -----------------

double rel_err(double a, double b) {
  const double denom = std::max(std::abs(a), std::abs(b));
  return denom == 0.0 ? 0.0 : std::abs(a - b) / denom;
}

TEST(StreamingFits, PolynomialCoefficientsMatchBatchTo1e9) {
  std::mt19937 rng(42);
  std::uniform_real_distribution<double> qd(1.0, 200.0);
  std::normal_distribution<double> noise(0.0, 3.0);
  for (int degree = 1; degree <= 2; ++degree) {
    std::vector<core::Sample> pts;
    core::StreamingPolyFit stream(degree);
    for (int i = 0; i < 400; ++i) {
      const double q = qd(rng);
      const double t = 12.0 + 0.7 * q + 0.003 * q * q + noise(rng);
      pts.push_back(core::Sample{q, t});
      stream.add(q, t);
    }
    const auto batch = core::fit_polynomial(pts, degree);
    const auto online = stream.fit();
    ASSERT_EQ(batch->coefficients().size(), online->coefficients().size());
    for (std::size_t k = 0; k < batch->coefficients().size(); ++k)
      EXPECT_LT(rel_err(batch->coefficients()[k], online->coefficients()[k]), 1e-9)
          << "degree " << degree << " coeff " << k;
    EXPECT_LT(rel_err(batch->r2, online->r2), 1e-6);
  }
}

TEST(StreamingFits, PowerLawCoefficientsMatchBatchTo1e9) {
  std::mt19937 rng(43);
  std::uniform_real_distribution<double> qd(2.0, 1000.0);
  std::normal_distribution<double> lnoise(0.0, 0.05);
  std::vector<core::Sample> pts;
  core::StreamingPowerLawFit stream;
  for (int i = 0; i < 300; ++i) {
    const double q = qd(rng);
    const double t = 0.4 * std::pow(q, 1.3) * std::exp(lnoise(rng));
    pts.push_back(core::Sample{q, t});
    stream.add(q, t);
  }
  const auto batch = core::fit_power_law(pts);
  const auto online = stream.fit();
  EXPECT_LT(rel_err(batch->exponent(), online->exponent()), 1e-9);
  EXPECT_LT(rel_err(batch->log_coeff(), online->log_coeff()), 1e-9);
}

TEST(StreamingFits, ExponentialCoefficientsMatchBatchTo1e9) {
  std::mt19937 rng(44);
  std::uniform_real_distribution<double> qd(0.0, 50.0);
  std::normal_distribution<double> lnoise(0.0, 0.05);
  std::vector<core::Sample> pts;
  core::StreamingExpFit stream;
  for (int i = 0; i < 300; ++i) {
    const double q = qd(rng);
    const double t = std::exp(1.5 + 0.04 * q + lnoise(rng));
    pts.push_back(core::Sample{q, t});
    stream.add(q, t);
  }
  const auto batch = core::fit_exponential(pts);
  const auto online = stream.fit();
  EXPECT_LT(rel_err(batch->a(), online->a()), 1e-9);
  EXPECT_LT(rel_err(batch->b(), online->b()), 1e-9);
}

TEST(StreamingFits, PolyResidualSumMatchesBatchTo1e9) {
  std::mt19937 rng(46);
  std::uniform_real_distribution<double> qd(1.0, 200.0);
  std::normal_distribution<double> noise(0.0, 2.0);
  for (int degree = 1; degree <= 2; ++degree) {
    std::vector<core::Sample> pts;
    core::StreamingPolyFit stream(degree);
    for (int i = 0; i < 250; ++i) {
      const double q = qd(rng);
      const double t = 5.0 + 0.3 * q + 0.002 * q * q + noise(rng);
      pts.push_back(core::Sample{q, t});
      stream.add(q, t);
    }
    const auto batch = core::fit_polynomial(pts, degree);
    double ss_batch = 0.0;
    for (const core::Sample& s : pts) {
      const double e = s.t - batch->predict(s.q);
      ss_batch += e * e;
    }
    EXPECT_LT(rel_err(stream.residual_sum(), ss_batch), 1e-9)
        << "degree " << degree;
    EXPECT_LT(rel_err(stream.mean_sq_residual(),
                      ss_batch / static_cast<double>(pts.size())),
              1e-9);
  }
}

TEST(StreamingFits, PolyResidualSumIsZeroOnExactData) {
  core::StreamingPolyFit stream(1);
  for (double q : {1.0, 2.0, 5.0, 9.0, 20.0}) stream.add(q, 3.0 + 2.0 * q);
  EXPECT_NEAR(stream.residual_sum(), 0.0, 1e-9);
  EXPECT_NEAR(stream.mean_sq_residual(), 0.0, 1e-9);
}

TEST(StreamingFits, PowerLawAndExpLogResidualsMatchBatchTo1e9) {
  // The residual accessors report *log-space* residuals — verify against
  // the batch fit's log-space sum of squares.
  std::mt19937 rng(47);
  std::uniform_real_distribution<double> qd(2.0, 500.0);
  std::normal_distribution<double> lnoise(0.0, 0.08);

  std::vector<core::Sample> pts;
  core::StreamingPowerLawFit pstream;
  for (int i = 0; i < 200; ++i) {
    const double q = qd(rng);
    const double t = 0.9 * std::pow(q, 1.1) * std::exp(lnoise(rng));
    pts.push_back(core::Sample{q, t});
    pstream.add(q, t);
  }
  const auto pbatch = core::fit_power_law(pts);
  double ss_p = 0.0;
  for (const core::Sample& s : pts) {
    const double e =
        std::log(s.t) - (pbatch->log_coeff() + pbatch->exponent() * std::log(s.q));
    ss_p += e * e;
  }
  EXPECT_LT(rel_err(pstream.log_residual_sum(), ss_p), 1e-9);
  EXPECT_LT(rel_err(pstream.mean_sq_log_residual(),
                    ss_p / static_cast<double>(pts.size())),
            1e-9);

  pts.clear();
  core::StreamingExpFit estream;
  std::uniform_real_distribution<double> qd2(0.0, 40.0);
  for (int i = 0; i < 200; ++i) {
    const double q = qd2(rng);
    const double t = std::exp(0.8 + 0.05 * q + lnoise(rng));
    pts.push_back(core::Sample{q, t});
    estream.add(q, t);
  }
  const auto ebatch = core::fit_exponential(pts);
  double ss_e = 0.0;
  for (const core::Sample& s : pts) {
    // ExponentialModel is T = exp(a + b q): `a` is the log-space intercept.
    const double e = std::log(s.t) - (ebatch->a() + ebatch->b() * s.q);
    ss_e += e * e;
  }
  EXPECT_LT(rel_err(estream.log_residual_sum(), ss_e), 1e-9);
  EXPECT_LT(rel_err(estream.mean_sq_log_residual(),
                    ss_e / static_cast<double>(pts.size())),
            1e-9);
}

TEST(StreamingFits, FitSetPicksSameFamilyAsBatchFitBest) {
  // Clean quadratic data: both selectors should settle on a polynomial
  // with matching coefficients.
  std::mt19937 rng(45);
  std::uniform_real_distribution<double> qd(5.0, 400.0);
  std::vector<core::Sample> pts;
  core::StreamingFitSet stream(2);
  for (int i = 0; i < 200; ++i) {
    const double q = qd(rng);
    const double t = 3.0 + 0.2 * q + 0.01 * q * q;
    pts.push_back(core::Sample{q, t});
    stream.add(q, t);
  }
  const auto batch = core::fit_best(pts, 2);
  const auto online = stream.best();
  EXPECT_NEAR(batch->predict(123.0), online->predict(123.0),
              1e-6 * std::abs(batch->predict(123.0)));
}

}  // namespace
