// Fig. 1 — the case study itself: "The density field plotted for a Mach
// 1.5 shock interacting with an interface between Air and Freon. The
// simulation was run on a 3-level grid hierarchy" with refinement factor
// 2 (purple level 0, red level 1, blue level 2).
//
// Runs the simulation on 3 SCMD ranks, prints the hierarchy census (the
// structure the figure draws) and density-field statistics, and writes
// the level-0 density field + patch boxes to CSV for plotting.
//
// Environment switches (all optional):
//   CCAPERF_RANKS / CCAPERF_STEPS  override the 3-rank / 8-step default
//                                  (the tier-1 trace smoke uses 2 ranks).
//   CCAPERF_TRACE                  run the *instrumented* assembly with
//     per-rank ring-buffer tracing and live telemetry, then merge the
//     rank traces into a Chrome-trace / Perfetto JSON file ("1" = on,
//     anything else = output path; see core/trace_export.hpp). Telemetry
//     lands in telemetry.rank<r>.jsonl. The process exits nonzero if the
//     merged trace is unbalanced or a retained message endpoint failed to
//     flow-match, so CI can gate on it.
//   CCAPERF_TRACE_EVENTS           per-rank ring capacity in events.

#include <fstream>

#include "bench_common.hpp"
#include "components/app_assembly.hpp"
#include "core/trace_export.hpp"

int main() {
  const core::TraceEnv trace = core::trace_env();
  const int ranks = ccaperf::env_int<int>("CCAPERF_RANKS", 1).value_or(3);
  components::AppConfig cfg = components::AppConfig::case_study();
  cfg.driver.nsteps = ccaperf::env_int<int>("CCAPERF_STEPS", 1).value_or(8);
  cfg.driver.regrid_interval = 3;

  struct LevelCensus {
    int patches = 0;
    long cells = 0;
    double coverage = 0.0;
  };
  std::vector<LevelCensus> census;
  double rho_min = 0.0, rho_max = 0.0, sim_time = 0.0;
  int nlevels = 0;
  core::TraceMerger merger;
  mpp::FaultStats faults;  // captured by rank 0 while the fabric is alive

  // Everything after go(): census, field dump, the paper-figure CSVs.
  auto report = [&](cca::Framework& fw, mpp::Comm& world) {
    auto* mesh = fw.services("driver").get_port_as<components::MeshPort>("mesh");
    amr::Hierarchy& h = mesh->hierarchy();

    double lo = 1e300, hi = -1e300;
    for (int l = 0; l < h.num_levels(); ++l) {
      for (auto& [id, data] : h.level(l).local_data()) {
        const amr::Box box = h.level(l).patch(id).box;
        for (int j = box.lo().j; j <= box.hi().j; ++j)
          for (int i = box.lo().i; i <= box.hi().i; ++i) {
            lo = std::min(lo, data(i, j, euler::kRho));
            hi = std::max(hi, data(i, j, euler::kRho));
          }
      }
    }
    lo = world.allreduce_value<mpp::MinOp<double>>(lo);
    hi = world.allreduce_value<mpp::MaxOp<double>>(hi);

    if (world.rank() == 0) {
      nlevels = h.num_levels();
      rho_min = lo;
      rho_max = hi;
      auto* driver =
          dynamic_cast<components::ShockDriverComponent*>(&fw.component("driver"));
      sim_time = driver->time();
      census.resize(static_cast<std::size_t>(h.num_levels()));
      for (int l = 0; l < h.num_levels(); ++l) {
        census[static_cast<std::size_t>(l)].patches =
            static_cast<int>(h.level(l).patches().size());
        census[static_cast<std::size_t>(l)].cells = h.level(l).total_cells();
        census[static_cast<std::size_t>(l)].coverage =
            static_cast<double>(h.level(l).total_cells()) /
            static_cast<double>(h.domain_at(l).num_pts());
      }
      // Patch boxes for the figure's outlines.
      std::ofstream boxes(bench::fig_path("fig01_patches.csv"));
      ccaperf::CsvWriter bw(boxes);
      bw.row({"level", "ilo", "jlo", "ihi", "jhi", "owner"});
      for (int l = 0; l < h.num_levels(); ++l)
        for (const auto& p : h.level(l).patches())
          bw.row({std::to_string(l), std::to_string(p.box.lo().i),
                  std::to_string(p.box.lo().j), std::to_string(p.box.hi().i),
                  std::to_string(p.box.hi().j), std::to_string(p.owner)});
    }
    // Density field of locally owned level-0 patches (per-rank CSV).
    std::ofstream field(bench::fig_path(
        "fig01_density.rank" + std::to_string(world.rank()) + ".csv"));
    ccaperf::CsvWriter fw_csv(field);
    fw_csv.row({"x", "y", "rho"});
    for (auto& [id, data] : h.level(0).local_data()) {
      const amr::Box box = h.level(0).patch(id).box;
      for (int j = box.lo().j; j <= box.hi().j; ++j)
        for (int i = box.lo().i; i <= box.hi().i; ++i)
          fw_csv.row({ccaperf::fmt_double(h.xc(0, i), 6),
                      ccaperf::fmt_double(h.yc(0, j), 6),
                      ccaperf::fmt_double(data(i, j, euler::kRho), 6)});
    }
    world.barrier();
    if (world.rank() == 0) faults = world.fault_stats();
  };

  mpp::Runtime::run(ranks, mpp::NetworkModel::classic_cluster(),
                    [&](mpp::Comm& world) {
    if (trace.enabled) {
      // Instrumented assembly: proxies + Mastermind + TAU, with the ring
      // recorder armed (assemble_instrumented_app reads CCAPERF_TRACE) and
      // telemetry streaming one JSONL line every few monitored records.
      core::InstrumentedApp app = core::assemble_instrumented_app(world, cfg);
      std::ofstream telem("telemetry.rank" + std::to_string(world.rank()) +
                          ".jsonl");
      auto* tport =
          app.fw().services("mastermind").provided_as<core::TelemetryPort>(
              "telemetry");
      tport->start_telemetry(telem, 64);
      app.fw().services("driver").provided_as<components::GoPort>("go")->go();
      report(app.fw(), world);
      tport->stop_telemetry();
      // Lift the trace out before the framework (and its Registry) dies.
      merger.add_rank(core::collect_rank_trace(app.registry(), world.rank()));
      // Worker-lane shards (CCAPERF_THREADS > 1) become per-thread tracks
      // inside the rank's process.
      if (tau::RegistryShards* sh = app.tau->shards(); sh->lanes() > 1)
        for (int t = 1; t < sh->lanes(); ++t)
          merger.add_rank(core::collect_rank_trace(sh->shard(t), world.rank(), t));
    } else {
      auto fw = components::assemble_app(world, cfg);
      fw->services("driver").provided_as<components::GoPort>("go")->go();
      report(*fw, world);
    }
  });

  std::cout << "Fig. 1: shock/interface simulation, " << cfg.driver.nsteps
            << " coarse steps to t = " << ccaperf::fmt_double(sim_time, 4)
            << " on " << ranks << " ranks\n\nHierarchy census:\n";
  ccaperf::TextTable t;
  t.set_header({"level", "patches", "cells", "domain coverage"});
  for (std::size_t l = 0; l < census.size(); ++l)
    t.add_row({std::to_string(l), std::to_string(census[l].patches),
               std::to_string(census[l].cells),
               ccaperf::fmt_double(100.0 * census[l].coverage, 3) + "%"});
  t.render(std::cout);
  std::cout << "\ndensity range: [" << ccaperf::fmt_double(rho_min, 4) << ", "
            << ccaperf::fmt_double(rho_max, 4)
            << "]  (pre-shock air = 1, freon = 3.33, post-shock air = 1.86)\n"
            << "field written to " << bench::fig_path("fig01_density.rank*.csv")
            << ", patch outlines to " << bench::fig_path("fig01_patches.csv")
            << '\n';

  if (faults.injected_total() > 0 || faults.retries > 0 || faults.timeouts > 0 ||
      faults.stale_fallbacks > 0) {
    std::cout << "\nfault injection (CCAPERF_FAULT_PLAN): "
              << faults.injected_total() << " injected (" << faults.injected_drops
              << " drops, " << faults.injected_delays << " delays, "
              << faults.injected_duplicates << " dups, "
              << faults.injected_reorders << " reorders, "
              << faults.injected_stalls << " stalls), " << faults.retries
              << " retries (" << faults.retries_exhausted << " exhausted), "
              << faults.duplicates_suppressed << " dups suppressed, "
              << faults.timeouts << " wait timeouts, " << faults.stale_fallbacks
              << " stale-ghost fallbacks\n";
  }

  bench::print_comparison(
      "Fig. 1 (simulation structure)",
      {
          {"hierarchy depth", "3 levels, refinement factor 2",
           std::to_string(nlevels) + " levels, factor 2"},
          {"finest level coverage", "small part of the domain",
           census.size() >= 3
               ? ccaperf::fmt_double(100.0 * census[2].coverage, 3) + "%"
               : "n/a"},
          {"density field", "shocked Air/Freon interface rolls up",
           "rho in [" + ccaperf::fmt_double(rho_min, 3) + ", " +
               ccaperf::fmt_double(rho_max, 3) + "]"},
      });

  if (trace.enabled) {
    std::ofstream os(trace.path);
    const core::MergeStats st = merger.write_chrome_trace(os);
    os.close();
    std::cout << "\ntrace: " << trace.path << " — " << st.ranks << " ranks, "
              << st.events << " events, " << st.slices << " slices, " << st.flows
              << " message flows (" << st.unmatched_sends << " sends / "
              << st.unmatched_recvs << " recvs unmatched, " << st.orphan_exits
              << " orphan exits, " << st.dropped << " ring drops, "
              << st.suppressed_messages
              << " endpoints below the full tier)\nopen in ui.perfetto.dev\n";
    bool ok = os.good() && st.ranks == static_cast<std::size_t>(ranks);
    // With nothing dropped the trace must be perfect: every retained
    // endpoint flow-matched, every slice balanced. Ring drops excuse
    // unmatched endpoints / orphan exits. An endpoint a governed rank
    // skipped below the full tier can strand at most one peer endpoint.
    if (st.dropped == 0 &&
        (st.unmatched_sends + st.unmatched_recvs > st.suppressed_messages ||
         st.orphan_exits != 0))
      ok = false;
    if (ranks > 1 && st.flows == 0) ok = false;  // ghost exchange must show up
    if (!ok) {
      std::cout << "TRACE VALIDATION FAILED\n";
      return 1;
    }
  }
  return 0;
}
