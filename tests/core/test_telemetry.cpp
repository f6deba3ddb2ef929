// pmm.TelemetryPort: Mastermind streams one JSONL line per interval of
// completed monitoring records, with the count of timers that fired since
// the previous line, per-group time, counter deltas, ring-drop accounting
// and its own overhead (self_us). No background thread: emission
// piggybacks on the outermost monitored stop, so lines land at record
// boundaries.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/mastermind.hpp"
#include "core/tau_component.hpp"

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

  /// Monitors one parameterless call of `key`.
  void call(const std::string& key) {
    const core::MethodHandle h = mm->register_method(key, {});
    mm->start(h, {});
    mm->stop(h);
  }

  static cca::ComponentRepository make_repo() {
    cca::ComponentRepository repo;
    repo.register_class(
        "TauMeasurement", [] { return std::make_unique<core::TauMeasurementComponent>(); });
    repo.register_class("Mastermind",
                        [] { return std::make_unique<core::MastermindComponent>(); });
    return repo;
  }
};

std::vector<std::string> lines_of(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  for (std::string line; std::getline(is, line);) out.push_back(line);
  return out;
}

/// Extracts the integer value of `"key":<n>` from one JSONL line.
long field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  EXPECT_NE(at, std::string::npos) << key << " missing in: " << line;
  if (at == std::string::npos) return -1;
  return std::stol(line.substr(at + needle.size()));
}

TEST(Telemetry, EmitsOneLinePerIntervalPlusFinal) {
  Rig rig;
  std::ostringstream sink;
  rig.mm->start_telemetry(sink, 2);
  const core::MethodHandle h = rig.mm->register_method("sc_proxy::compute()", {"Q"});
  for (int i = 0; i < 5; ++i) {
    const double q = i;
    rig.mm->start(h, core::ParamSpan(&q, 1));
    rig.mm->stop(h);
  }
  rig.mm->stop_telemetry();

  // Records 2 and 4 cross the interval; stop always flushes a final line.
  const std::vector<std::string> lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(rig.mm->telemetry_lines(), 3u);
  EXPECT_EQ(field(lines[0], "records"), 2);
  EXPECT_EQ(field(lines[1], "records"), 4);
  EXPECT_EQ(field(lines[2], "records"), 5);
}

TEST(Telemetry, LinesAreSelfContainedJsonObjects) {
  Rig rig;
  std::ostringstream sink;
  rig.mm->start_telemetry(sink, 1);
  rig.call("flux_proxy::compute()");
  rig.mm->stop_telemetry();

  for (const std::string& line : lines_of(sink.str())) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    // The contract fields every consumer relies on.
    for (const char* key :
         {"t_us", "records", "records_per_s", "timers_changed", "group_us",
          "group_delta_us", "counter_delta", "trace", "overhead_pct",
          "self_us"})
      EXPECT_NE(line.find("\"" + std::string(key) + "\":"), std::string::npos)
          << key << " missing in: " << line;
  }
}

TEST(Telemetry, DeltaQueryIsIncrementalAcrossLines) {
  // Each line reports only the timers that fired since the previous line:
  // the first sees the method's timer, an idle interval sees none.
  Rig rig;
  std::ostringstream sink;
  rig.mm->start_telemetry(sink, 1);
  rig.call("sc_proxy::compute()");  // line 1
  rig.mm->emit_telemetry();         // line 2: nothing ran in between
  rig.mm->stop_telemetry();         // line 3

  const std::vector<std::string> lines = lines_of(sink.str());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_GE(field(lines[0], "timers_changed"), 1);
  EXPECT_EQ(field(lines[1], "timers_changed"), 0);
  EXPECT_EQ(field(lines[2], "timers_changed"), 0);
}

TEST(Telemetry, NestedWindowsEmitOnlyAtOutermostStop) {
  // A line mid-window would double-count the open activation; emission
  // must wait for the monitoring stack to unwind.
  Rig rig;
  std::ostringstream sink;
  rig.mm->start_telemetry(sink, 1);
  const core::MethodHandle outer = rig.mm->register_method("icc_proxy::advance()", {});
  const core::MethodHandle inner = rig.mm->register_method("sc_proxy::compute()", {});
  rig.mm->start(outer, {});
  rig.mm->start(inner, {});
  rig.mm->stop(inner);  // record #1, but depth is still 1
  EXPECT_EQ(rig.mm->telemetry_lines(), 0u);
  rig.mm->stop(outer);  // depth 0: both records flush
  EXPECT_EQ(rig.mm->telemetry_lines(), 1u);
  rig.mm->stop_telemetry();
}

TEST(Telemetry, SelfOverheadIsAccountedAndBounded) {
  Rig rig;
  std::ostringstream sink;
  rig.mm->start_telemetry(sink, 4);
  const auto wall0 = tau::Clock::now();
  for (int i = 0; i < 64; ++i) {
    rig.call("sc_proxy::compute()");
  }
  rig.mm->stop_telemetry();
  const double wall_us =
      std::chrono::duration<double, std::micro>(tau::Clock::now() - wall0).count();

  EXPECT_GT(rig.mm->telemetry_self_us(), 0.0);
  // Telemetry instruments itself; its cost must stay inside the window it
  // measured (a loose sanity bound, not a perf assertion).
  EXPECT_LE(rig.mm->telemetry_self_us(), wall_us);
  // The last line carries the cumulative figure.
  const std::vector<std::string> lines = lines_of(sink.str());
  ASSERT_FALSE(lines.empty());
  EXPECT_NE(lines.back().find("\"self_us\":"), std::string::npos);
}

TEST(Telemetry, MonitoringKeepsWorkingAfterStop) {
  // Detaching the sink must restore the plain fast path without losing
  // records.
  Rig rig;
  std::ostringstream sink;
  rig.mm->start_telemetry(sink, 1);
  rig.call("sc_proxy::compute()");
  rig.mm->stop_telemetry();

  rig.call("sc_proxy::compute()");
  const core::Record* rec = rig.mm->record("sc_proxy::compute()");
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->count(), 2u);
  EXPECT_EQ(rig.mm->telemetry_lines(), 2u);  // no lines after detach
}

}  // namespace
