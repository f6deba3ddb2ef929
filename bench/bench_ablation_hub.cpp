// Ablation: TelemetryHub multi-tenant soak (DESIGN.md §14).
//
// Ramps concurrent mixed-scenario sessions (fig01 AMR at assorted
// (ranks, threads, fault plans) plus the HPL-style dense-LU workload)
// against one shared hub, and gates the service properties the hub
// exists for:
//
//  * tenant isolation — every scenario's physics digest under a full
//    concurrent load is byte-identical to the same scenario run solo,
//    and every retained telemetry line carries its own session's marker
//    (zero cross-session row leakage);
//  * bounded memory — the hub's retained-byte peak stays under the
//    configured budget while sessions churn;
//  * exact accounting — retained == published - evicted per session (a
//    separate flood phase overflows a tiny line cap and byte budget on
//    purpose to exercise the eviction path);
//  * throughput — sessions/sec and rows/sec at the top of the ramp,
//    gated against bench/baselines/hub.json;
//  * publish cost — isolated publish ns/line with 1 producer and with 4
//    producers on 4 sessions, and their ratio (reported, not gated).
//
// Environment:
//   CCAPERF_HUB_SOAK_SESSIONS  top of the session ramp (default 64).
//   CCAPERF_HUB_AGG_FILE       aggregate JSONL path
//                              (default bench_out/hub_aggregate.jsonl).
//
// Prints "hub soak: OK" and exits 0 only if every gate holds — the CI
// hub-soak stage greps for the marker.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <thread>

#include "bench_common.hpp"
#include "core/session_workloads.hpp"
#include "core/telemetry_hub.hpp"

namespace {

/// The scenario rotation: structurally diverse tenants, all deterministic.
std::vector<core::SessionScenario> scenario_mix() {
  using S = core::SessionScenario;
  std::vector<S> mix;
  S amr;  // tiny fig01: 24x12, 2 ranks, 2 coarse steps
  amr.kind = "amr";
  amr.ranks = 2;
  amr.threads = 1;
  amr.nx = 24;
  amr.ny = 12;
  amr.steps = 2;
  mix.push_back(amr);
  S threaded = amr;
  threaded.threads = 2;
  mix.push_back(threaded);
  S wide = amr;
  wide.ranks = 3;
  mix.push_back(wide);
  S faulty = amr;
  faulty.fault_plan = "drop=0.05,delay=0.1";
  faulty.seed = 7;
  mix.push_back(faulty);
  S chaotic = amr;
  chaotic.fault_plan = "moderate";
  chaotic.seed = 3;
  mix.push_back(chaotic);
  S lu;
  lu.kind = "lu";
  lu.lu_n = 96;
  lu.lu_block = 24;
  lu.lu_reps = 2;
  mix.push_back(lu);
  S lu_small = lu;
  lu_small.lu_n = 64;
  lu_small.lu_block = 16;
  lu_small.lu_reps = 3;
  lu_small.seed = 11;
  mix.push_back(lu_small);
  return mix;
}

core::TelemetryHub::Config soak_config() {
  core::TelemetryHub::Config cfg;
  cfg.session_line_cap = 8192;        // soak phase must not evict
  cfg.memory_budget_bytes = 16u << 20;
  return cfg;
}

/// Isolated publish cost: `producers` threads, one session each, publish
/// kLines telemetry-shaped lines into a hub large enough to evict
/// nothing. Returns the mean over producers of each one's ns per line,
/// the minimum over kBlocks fresh hubs.
double publish_ns_per_line(int producers) {
  constexpr int kLines = 16384;
  constexpr int kBlocks = 5;
  // About the length of a Mastermind telemetry line, with overhead_pct
  // near the end, where the Mastermind writes it.
  const std::string line = "{\"t_us\":123456.7,\"records\":640,\"calls\":{" +
                           std::string(300, 'c') +
                           "},\"session\":\"pub\",\"overhead_pct\":2.345,"
                           "\"self_us\":812.250}";
  double best = 0.0;
  for (int b = 0; b < kBlocks; ++b) {
    core::TelemetryHub::Config cfg;
    cfg.session_line_cap = kLines;
    cfg.memory_budget_bytes = std::size_t{1} << 30;
    core::TelemetryHub hub(cfg);
    std::vector<core::SessionHandle> handles;
    for (int p = 0; p < producers; ++p)
      handles.push_back(hub.open_session("pub-" + std::to_string(p), "pub"));
    std::vector<double> ns(static_cast<std::size_t>(producers), 0.0);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p)
      threads.emplace_back([&, p] {
        core::SessionHandle& h = handles[static_cast<std::size_t>(p)];
        ready.fetch_add(1);
        while (ready.load() < producers) std::this_thread::yield();
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = 0; i < kLines; ++i) h.publish(line);
        ns[static_cast<std::size_t>(p)] =
            std::chrono::duration<double, std::nano>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            kLines;
      });
    for (std::thread& t : threads) t.join();
    double mean = 0.0;
    for (const double v : ns) mean += v / producers;
    best = b == 0 ? mean : std::min(best, mean);
  }
  return best;
}

struct Gate {
  bool ok = true;
  void require(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::cout << "HUB SOAK VIOLATION: " << what << '\n';
    }
  }
};

}  // namespace

int main() {
  const int max_sessions =
      ccaperf::env_int<int>("CCAPERF_HUB_SOAK_SESSIONS", 2).value_or(64);
  const std::string agg_path = ccaperf::env_text("CCAPERF_HUB_AGG_FILE")
                                   .value_or("bench_out/hub_aggregate.jsonl");
  const std::vector<core::SessionScenario> mix = scenario_mix();
  Gate gate;

  // --- solo references ------------------------------------------------------
  // Each distinct scenario runs alone against its own hub: the digest and
  // telemetry line count every concurrent run must reproduce exactly.
  std::cout << "solo references (" << mix.size() << " scenarios):\n";
  std::vector<core::SessionResult> solo(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    core::TelemetryHub hub(soak_config());
    core::SessionHandle h =
        hub.open_session("solo-" + std::to_string(i), mix[i].kind);
    solo[i] = core::run_session(h, mix[i]);
    h.close();
    const core::SessionStats st = hub.session_stats(hub.find_session(
        "solo-" + std::to_string(i)));
    gate.require(st.published == solo[i].telemetry_lines,
                 "solo published != telemetry lines");
    gate.require(st.retained == st.published, "solo session evicted lines");
    std::cout << "  " << mix[i].describe() << ": digest "
              << std::hex << solo[i].physics_digest << std::dec << ", "
              << solo[i].telemetry_lines << " lines\n";
  }

  // --- concurrent soak ramp -------------------------------------------------
  {
    std::error_code ec;
    const auto parent = std::filesystem::path(agg_path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  }
  std::ofstream agg(agg_path);
  if (!agg) {
    std::cout << "HUB SOAK FAILED: cannot open " << agg_path << '\n';
    return 1;
  }
  struct RampPoint {
    int sessions;
    double sessions_per_s;
    double rows_per_s;
    std::uint64_t bytes_peak;
  };
  std::vector<RampPoint> ramp;
  for (int n = std::max(2, max_sessions / 8); n <= max_sessions; n *= 2) {
    core::TelemetryHub hub(soak_config());
    std::vector<core::SessionHandle> handles;
    handles.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const core::SessionScenario& sc = mix[static_cast<std::size_t>(i) % mix.size()];
      handles.push_back(hub.open_session(
          "soak" + std::to_string(n) + "-s" + std::to_string(i), sc.kind));
    }
    std::vector<core::SessionResult> results(static_cast<std::size_t>(n));
    const auto t0 = std::chrono::steady_clock::now();
    {
      // The main thread writes the live aggregate stream every 10 ms
      // while the sessions run, and once more after they finish.
      std::atomic<int> running{n};
      std::vector<std::thread> threads;
      threads.reserve(static_cast<std::size_t>(n));
      for (int i = 0; i < n; ++i)
        threads.emplace_back([&, i] {
          const std::size_t k = static_cast<std::size_t>(i);
          results[k] = core::run_session(handles[k], mix[k % mix.size()]);
          handles[k].close();
          running.fetch_sub(1);
        });
      while (running.load() > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        hub.emit_aggregate(agg);
      }
      for (std::thread& t : threads) t.join();
      hub.emit_aggregate(agg);
    }
    const double wall_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();

    // Per-session gates against the solo references.
    for (int i = 0; i < n; ++i) {
      const std::size_t k = static_cast<std::size_t>(i) % mix.size();
      const std::string name = "soak" + std::to_string(n) + "-s" + std::to_string(i);
      const core::SessionId id = hub.find_session(name);
      gate.require(id != core::kInvalidSession, "session vanished: " + name);
      if (id == core::kInvalidSession) continue;
      gate.require(results[static_cast<std::size_t>(i)].physics_digest ==
                       solo[k].physics_digest,
                   "digest diverged from solo: " + name);
      // Line counts are exact for single-lane sessions; threaded ranks
      // emit on whichever lane crosses the interval boundary, so their
      // count wobbles by a line or two under load (the digest gate above
      // is the physics invariant either way).
      if (mix[k].threads == 1)
        gate.require(results[static_cast<std::size_t>(i)].telemetry_lines ==
                         solo[k].telemetry_lines,
                     "telemetry line count diverged from solo: " + name);
      const core::SessionStats st = hub.session_stats(id);
      gate.require(st.retained == st.published,
                   "soak session evicted lines: " + name);
      // Zero cross-session leakage: every retained line carries this
      // session's own marker (the Mastermind tags lines via
      // set_telemetry_session).
      const std::string marker = "\"session\":\"" + name + "\"";
      for (const core::SessionLine& l : hub.session_lines(id))
        gate.require(l.text.find(marker) != std::string::npos,
                     "leaked/unmarked line in " + name);
    }
    const core::HubStats hs = hub.stats();
    gate.require(hs.bytes_peak <= hub.config().memory_budget_bytes,
                 "retained bytes exceeded the budget");
    ramp.push_back(RampPoint{n, n / wall_s, hs.published / wall_s, hs.bytes_peak});
    std::cout << "ramp " << n << " sessions: "
              << ccaperf::fmt_double(n / wall_s, 2) << " sessions/s, "
              << ccaperf::fmt_double(hs.published / wall_s, 0) << " rows/s, peak "
              << (hs.bytes_peak >> 10) << " KiB\n";
  }

  // --- flood phase: the eviction path under deliberate overload ----------
  // A tiny line cap and byte budget: evictions must fire, and the
  // accounting must stay exact.
  {
    core::TelemetryHub::Config cfg;
    cfg.session_line_cap = 128;
    // Smaller than the flooders' capped streams together (4 x 128 lines x
    // 120 B = 60 KiB), so the budget, not only the cap, evicts.
    cfg.memory_budget_bytes = 4u << 10;
    core::TelemetryHub hub(cfg);
    constexpr int kFlooders = 4;
    constexpr int kLines = 2000;
    std::vector<core::SessionHandle> handles;
    for (int i = 0; i < kFlooders; ++i)
      handles.push_back(hub.open_session("flood-" + std::to_string(i), "flood"));
    {
      std::vector<std::thread> threads;
      for (int i = 0; i < kFlooders; ++i)
        threads.emplace_back([&, i] {
          const std::string line(120, 'a' + static_cast<char>(i));
          for (int l = 0; l < kLines; ++l)
            handles[static_cast<std::size_t>(i)].publish(line);
        });
      for (std::thread& t : threads) t.join();
    }
    std::uint64_t total_evicted = 0;
    for (int i = 0; i < kFlooders; ++i) {
      handles[static_cast<std::size_t>(i)].close();
      const core::SessionId id = hub.find_session("flood-" + std::to_string(i));
      const core::SessionStats st = hub.session_stats(id);
      gate.require(st.published == kLines,
                   "flood accounting leak (published != attempts)");
      gate.require(st.retained == st.published - st.dropped_evicted,
                   "flood retained != published - evicted");
      total_evicted += st.dropped_evicted;
    }
    const core::HubStats hs = hub.stats();
    gate.require(total_evicted > 0, "flood never evicted under the byte budget");
    gate.require(hs.bytes_retained <= cfg.memory_budget_bytes,
                 "flood exceeded the byte budget");
    std::cout << "flood: " << total_evicted << " evictions, retained "
              << (hs.bytes_retained >> 10) << " KiB <= "
              << (cfg.memory_budget_bytes >> 10) << " KiB budget\n";
  }

  // --- isolated publish cost ------------------------------------------------
  const double pub_1p = publish_ns_per_line(1);
  const double pub_4p = publish_ns_per_line(4);
  std::cout << "publish: " << ccaperf::fmt_double(pub_1p) << " ns/line (1 producer), "
            << ccaperf::fmt_double(pub_4p) << " ns/line (4 producers, 4 sessions), "
            << ccaperf::fmt_double(pub_4p / pub_1p, 3) << "x\n";

  // --- per-session Perfetto export ------------------------------------------
  {
    core::TelemetryHub hub(soak_config());
    core::SessionScenario sc = mix[0];
    sc.trace = true;
    core::SessionHandle h = hub.open_session("traced", sc.kind);
    core::run_session(h, sc);
    h.close();
    std::ofstream os(bench::fig_path("hub_traced_session.json"));
    const core::MergeStats st =
        hub.export_session_trace(hub.find_session("traced"), os);
    gate.require(st.ranks == static_cast<std::size_t>(sc.ranks),
                 "traced session exported wrong rank count");
    gate.require(st.events > 0, "traced session exported no events");
    std::cout << "trace export: " << st.ranks << " ranks, " << st.events
              << " events, " << st.flows << " flows\n";
  }

  // --- gateable output ------------------------------------------------------
  const RampPoint& top = ramp.back();
  bench::write_bench_json(
      "bench_out/hub.json",
      {
          {"hub", "soak_sessions", static_cast<double>(top.sessions)},
          {"hub", "sessions_per_s", top.sessions_per_s},
          {"hub", "rows_per_s", top.rows_per_s},
          {"hub", "bytes_peak_kb", static_cast<double>(top.bytes_peak >> 10)},
          {"hub", "identity_ok", gate.ok ? 1.0 : 0.0},
          {"hub", "publish_ns_per_line_1p", pub_1p},
          {"hub", "publish_ns_per_line_4p", pub_4p},
          {"hub", "publish_4p_over_1p", pub_4p / pub_1p},
      });
  std::cout << "aggregate stream: " << agg_path << '\n';

  bench::print_comparison(
      "multi-tenant telemetry service",
      {
          {"tenant isolation", "per-session physics identical to solo",
           gate.ok ? "digests + line counts match" : "VIOLATED"},
          {"memory bound", "retained bytes under budget",
           std::to_string(top.bytes_peak >> 10) + " KiB peak"},
          {"throughput", "ramp to " + std::to_string(max_sessions) + " sessions",
           ccaperf::fmt_double(top.sessions_per_s, 2) + " sessions/s"},
      });

  if (!gate.ok) {
    std::cout << "HUB SOAK FAILED\n";
    return 1;
  }
  std::cout << "hub soak: OK\n";
  return 0;
}
