// fig01bench — end-to-end and per-layer benchmark of one fig01 coarse
// step (see ../README.md for the workloads, metrics and noise evidence).
//
//   fig01bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints progress on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer ledger with --trace 1.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cpu_placement.hpp"
#include "ledger.hpp"
#include "simulation.hpp"

extern char** environ;

namespace {

using fig01bench::Layer;
using fig01bench::SimResult;
using fig01bench::SimSpec;
using fig01bench::Totals;

struct Workload {
  const char* name;
  int ranks;
  int lanes;
  bool instrumented;
};

// Why these three: README.md, "Workloads".
constexpr Workload kWorkloads[] = {
    {"fig01_p3", 3, 1, false},
    {"fig01_p3_pmm", 3, 1, true},
    {"fig01_p1t3", 1, 3, false},
};

/// One timed simulation takes about this long on a 4-core x86 host
/// (README.md, "Noise"); --seconds buys one simulation per this many
/// seconds.
constexpr double kSimSeconds = 4.0;
/// The fewest timed simulations a run makes.
constexpr std::size_t kMinSims = 3;
/// Set-up-only repetitions after each timed simulation.
constexpr int kSetupsPerSim = 20;

/// Timed simulations of a run. Fixed by --seconds alone, never by the
/// clock, so a slower program or host runs as many simulations as a fast
/// one and the per-step best is always over the same count.
std::size_t timed_sims(double seconds) {
  return std::max(kMinSims, static_cast<std::size_t>(std::lround(seconds / kSimSeconds)));
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fig01bench: %s\nusage: fig01bench --workload <fig01_p3|fig01_p3_pmm|"
               "fig01_p1t3> --seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view key = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* v = argv[++i];
    if (key == "--workload")
      a.workload = v;
    else if (key == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds")
      a.seconds = std::atof(v);
    else if (key == "--trace")
      a.trace = std::string_view(v) == "1";
    else
      usage("unknown argument");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

/// Everything is configured programmatically; a stray CCAPERF_* knob in
/// the environment (threads, SIMD level, tracing, governor) would change
/// what is measured.
void clear_ccaperf_env() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view kv = *e;
    if (kv.starts_with("CCAPERF_")) names.emplace_back(kv.substr(0, kv.find('=')));
  }
  for (const std::string& n : names) unsetenv(n.c_str());
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, int attempted, int failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// Counts that must repeat exactly between simulations of one seed.
struct WorkCounts {
  std::uint64_t msgs, bytes, euler_calls, collectives, monitor_calls;
  bool operator==(const WorkCounts&) const = default;
};

WorkCounts work_counts(const SimResult& r) {
  const Totals& t = r.all_threads;
  auto calls = [&](Layer l) { return t.calls[static_cast<std::size_t>(l)]; };
  return {t.msgs, t.msg_bytes, calls(Layer::states) + calls(Layer::flux), t.collectives,
          calls(Layer::monitor)};
}

/// Step time of the fixed step range as a profile: each step's best time
/// over the run's simulations. The host loses CPU to other guests in
/// periods that slow whole simulations; the best-of-K profile keeps the
/// program's step-to-step shape (regrid steps, growing refinement) and
/// drops the bursts (README.md, "Noise").
std::vector<double> best_profile_us(const std::vector<SimResult>& sims) {
  std::vector<double> profile = sims[0].step_us;
  for (const SimResult& r : sims)
    for (std::size_t i = 0; i < profile.size(); ++i)
      profile[i] = std::min(profile[i], r.step_us[i]);
  return profile;
}

/// `setups` holds every set-up of the run: each timed simulation's own and
/// set-up-only repetitions after it.
std::vector<Metric> end_to_end(const std::vector<SimResult>& sims,
                               const std::vector<double>& setups) {
  std::vector<double> steps = best_profile_us(sims);
  // Throughput over the best profile's time, like the step percentiles: a
  // whole simulation free of host slow periods is rarer than a free step
  // (README.md, "Noise").
  double cells = 0.0, step_s = 0.0;
  for (const double c : sims[0].cell_updates) cells += c;
  for (const double s : steps) step_s += s * 1e-6;
  std::sort(steps.begin(), steps.end());
  if (fig01bench::highest_supported_percentile(steps.size()) < 90.0)
    throw std::runtime_error("too few steps for a p90");
  // drops a group that fell whole into a slow stretch.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  // The best set-up, like the per-step best: set-up is a few milliseconds
  // and the host's slow stretches last seconds (README.md, "Noise").
  return {{"setup_s", *std::min_element(setups.begin(), setups.end()), "s"},
          {"step_ms_p50", fig01bench::percentile(steps, 50.0) * 1e-3, "ms"},
          {"step_ms_p90", fig01bench::percentile(steps, 90.0) * 1e-3, "ms"},
          {"cell_updates_per_s", cells / step_s, "1/s"},
          {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB"}};
}

/// The per-layer ledger over the traced simulations. Times are per rank
/// thread (mean over ranks), counts are totals over ranks and lanes; the
/// thirteen self-time layers plus unattributed_us_per_step add up to
/// traced_step_us. `threads` is ranks x lanes, the threads that run
/// kernels.
std::vector<Metric> per_layer(const std::vector<SimResult>& traced,
                              const std::vector<SimResult>& untraced, int threads,
                              bool& closed) {
  Totals rank_sum, all;
  double step_us_sum = 0.0, cpu = 0.0, wall = 0.0;
  std::uint64_t events = 0, trace_dropped = 0, hub_dropped = 0;
  std::size_t rank_steps = 0;
  for (const SimResult& r : traced) {
    for (const Totals& t : r.rank_ledger) rank_sum += t;
    for (const double s : r.rank_step_us) step_us_sum += s;
    rank_steps += r.rank_ledger.size() * r.step_us.size();
    all += r.all_threads;
    cpu += r.process_cpu_s;
    wall += r.rank0_wall_s;
    events += r.trace_events;
    trace_dropped += r.trace_dropped;
    hub_dropped += r.hub_dropped;
  }
  const double nsteps = static_cast<double>(traced.size() * traced[0].step_us.size());
  const double rs = static_cast<double>(rank_steps);
  auto self_us = [&](Layer l) { return rank_sum.self_ns[static_cast<std::size_t>(l)] * 1e-3 / rs; };
  auto calls = [&](const Totals& t, Layer l) {
    return static_cast<double>(t.calls[static_cast<std::size_t>(l)]);
  };
  auto total_ns = [&](Layer l) { return rank_sum.total_ns[static_cast<std::size_t>(l)]; };

  std::vector<Metric> ledger = {
      {"euler.states.us_per_step", self_us(Layer::states), "us"},
      {"euler.flux.us_per_step", self_us(Layer::flux), "us"},
      {"components.rk2.self_us_per_step", self_us(Layer::rk2), "us"},
      {"components.invflux.self_us_per_step", self_us(Layer::invflux), "us"},
      {"amr.ghost_update.self_us_per_step", self_us(Layer::ghost_update), "us"},
      {"amr.prolong_restrict.us_per_step",
       self_us(Layer::prolong) + self_us(Layer::restrict_level), "us"},
      {"amr.regrid.self_us_per_step", self_us(Layer::regrid), "us"},
      {"mpp.wait_us_per_step", self_us(Layer::mpi_wait), "us"},
      {"mpp.collective_us_per_step", self_us(Layer::mpi_collective), "us"},
      {"mpp.post_us_per_step", self_us(Layer::mpi_post), "us"},
      {"tau.mpi_hook.us_per_step", self_us(Layer::tau_mpi_hook), "us"},
      {"core.monitor.self_us_per_step", self_us(Layer::monitor), "us"},
      {"core.hub.publish_us_per_step", self_us(Layer::hub_publish), "us"},
  };
  const double step_us = step_us_sum / rs;
  double attributed = 0.0;
  for (const Metric& m : ledger) attributed += m.value;
  const double unattributed = step_us - attributed;
  // Self times never overlap, so the layers cannot add up to more than
  // the step; a negative remainder would mean a span was counted twice.
  closed = unattributed >= -1e-9 * step_us;

  std::vector<double> tsteps = best_profile_us(traced), usteps = best_profile_us(untraced);
  std::sort(tsteps.begin(), tsteps.end());
  std::sort(usteps.begin(), usteps.end());
  double cells = 0.0;
  for (const double c : traced[0].cell_updates) cells += c;
  const double per_sim_steps = static_cast<double>(traced[0].step_us.size());

  std::vector<Metric> m = std::move(ledger);
  m.push_back({"traced_step_us", step_us, "us"});
  m.push_back({"unattributed_us_per_step", unattributed, "us"});
  m.push_back({"trace_overhead_pct",
               (fig01bench::percentile(tsteps, 50.0) / fig01bench::percentile(usteps, 50.0) -
                1.0) * 100.0,
               "%"});
  // Kernel time on every lane, outside the closure: on fig01_p1t3 the
  // rank thread is only one of the lanes the kernels run on.
  auto lane_us = [&](Layer l) {
    return all.self_ns[static_cast<std::size_t>(l)] * 1e-3 / (nsteps * threads);
  };
  m.push_back({"euler.states.lane_us_per_step", lane_us(Layer::states), "us"});
  m.push_back({"euler.flux.lane_us_per_step", lane_us(Layer::flux), "us"});
  m.push_back({"euler.calls_per_step",
               (calls(all, Layer::states) + calls(all, Layer::flux)) / nsteps, "count"});
  m.push_back({"amr.cell_updates_per_step", cells / per_sim_steps, "count"});
  m.push_back({"amr.regrid.ms_per_regrid",
               ratio(total_ns(Layer::regrid), calls(rank_sum, Layer::regrid)) * 1e-6, "ms"});
  m.push_back({"mpp.msgs_per_step", static_cast<double>(all.msgs) / nsteps, "count"});
  m.push_back({"mpp.bytes_per_step", static_cast<double>(all.msg_bytes) / nsteps, "B"});
  m.push_back({"mpp.collectives_per_step", static_cast<double>(all.collectives) / nsteps,
               "count"});
  m.push_back({"mpp.modeled_delay_us_per_step", all.modeled_delay_us / nsteps, "us"});
  m.push_back({"core.monitor.calls_per_step", calls(all, Layer::monitor) / nsteps, "count"});
  m.push_back({"core.monitor.ns_per_call",
               ratio(rank_sum.self_ns[static_cast<std::size_t>(Layer::monitor)],
                     calls(rank_sum, Layer::monitor)),
               "ns"});
  m.push_back({"core.hub.lines_per_step", static_cast<double>(all.hub_lines) / nsteps,
               "count"});
  m.push_back({"core.hub.publish_ns_per_line",
               ratio(total_ns(Layer::hub_publish), static_cast<double>(rank_sum.hub_lines)),
               "ns"});
  m.push_back({"core.hub.dropped", static_cast<double>(hub_dropped), "count"});
  m.push_back({"tau.trace.events_per_step", static_cast<double>(events) / nsteps, "count"});
  m.push_back({"tau.trace.dropped", static_cast<double>(trace_dropped), "count"});
  m.push_back({"support.pool.cpu_per_wall", ratio(cpu, wall), "ratio"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (wl == nullptr) usage("unknown workload");
  clear_ccaperf_env();

  try {
    // First, so the hub's drainer starts on the main thread's CPU
    // (cpu_placement.hpp).
    const fig01bench::IdlePollers pollers;
    std::fprintf(stderr, "fig01bench: %d idle pollers\n", pollers.running());

    // Only the instrumented workload has a hub (its drainer is a thread
    // that wakes every 2 ms). Room for a whole simulation's lines: nothing
    // may be dropped or evicted (a drop fails the run).
    std::optional<core::TelemetryHub> hub;
    if (wl->instrumented) {
      core::TelemetryHub::Config hub_cfg;
      hub_cfg.session_line_cap = std::size_t{1} << 16;
      hub_cfg.memory_budget_bytes = std::size_t{256} << 20;
      hub.emplace(hub_cfg);
    }

    SimSpec spec;
    spec.cfg = fig01bench::make_config(args.seed);
    spec.ranks = wl->ranks;
    spec.hub = hub ? &*hub : nullptr;

    // Untimed warm-up: the plain assembly on one lane, up to the digest.
    SimSpec warm = spec;
    warm.run_steps = fig01bench::kDigestStep;
    const SimResult reference = fig01bench::run_sim(warm);

    spec.lanes = wl->lanes;
    spec.instrumented = wl->instrumented;

    std::vector<SimResult> untraced, traced;
    std::vector<double> setups;
    int attempted = 0, failed = 0;
    std::optional<std::vector<double>> cells_ref;
    std::optional<WorkCounts> counts_ref;
    const std::size_t sims = timed_sims(args.seconds);
    for (std::size_t k = 0; k < sims; ++k) {
      // Traced runs alternate plain and traced simulations, so the
      // overhead ratio compares neighbours in time.
      spec.traced = args.trace && k % 2 == 1;
      SimResult r = fig01bench::run_sim(spec);
      ++attempted;
      bool ok = r.digest == reference.digest && r.trace_dropped == 0 &&
                r.hub_dropped == 0 && r.hub_published == r.telemetry_lines;
      if (!cells_ref) cells_ref = r.cell_updates;
      ok = ok && r.cell_updates == *cells_ref;
      if (spec.traced) {
        if (!counts_ref) counts_ref = work_counts(r);
        ok = ok && work_counts(r) == *counts_ref;
      }
      std::vector<double> sorted = r.step_us;
      std::sort(sorted.begin(), sorted.end());
      std::fprintf(stderr,
                   "fig01bench: %s sim %d%s setup %.4f s p50 %.3f ms p90 %.3f ms%s\n",
                   wl->name, attempted, spec.traced ? " traced" : "", r.setup_s,
                   fig01bench::percentile(sorted, 50.0) * 1e-3,
                   fig01bench::percentile(sorted, 90.0) * 1e-3, ok ? "" : " FAILED");
      if (!ok) ++failed;
      // Set-up takes a few milliseconds, so end-to-end runs repeat it on
      // its own (no steps), spread over the run like the simulations.
      if (!args.trace) {
        setups.push_back(r.setup_s);
        SimSpec setup_only = spec;
        setup_only.run_steps = 0;
        for (int i = 0; i < kSetupsPerSim; ++i)
          setups.push_back(fig01bench::run_sim(setup_only).setup_s);
      }
      (spec.traced ? traced : untraced).push_back(std::move(r));
    }

    bool closed = true;
    const std::vector<Metric> metrics =
        args.trace ? per_layer(traced, untraced, wl->ranks * wl->lanes, closed)
                   : end_to_end(untraced, setups);
    print_result(failed == 0 && closed, attempted, failed, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig01bench: %s\n", e.what());
    return 1;
  }
}
