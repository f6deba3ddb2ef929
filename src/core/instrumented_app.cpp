#include "core/instrumented_app.hpp"

#include <cstdio>
#include <mutex>
#include <string>

#include "core/trace_export.hpp"

namespace core {

void register_pmm_classes(cca::ComponentRepository& repo,
                          const components::AppConfig& cfg) {
  repo.register_class("TauMeasurement",
                      [] { return std::make_unique<TauMeasurementComponent>(); });
  repo.register_class("Mastermind",
                      [] { return std::make_unique<MastermindComponent>(); });
  repo.register_class("StatesProxy", [] { return std::make_unique<StatesProxy>(); });
  repo.register_class("AMRMeshProxy",
                      [] { return std::make_unique<AMRMeshProxy>(); });
  // The flux proxy's timer name tracks the implementation it fronts
  // (paper Fig. 3 shows g_proxy for GodunovFlux).
  const std::string key =
      cfg.flux_impl == "EFMFlux" ? "efm_proxy::compute()" : "g_proxy::compute()";
  repo.register_class("FluxProxy",
                      [key] { return std::make_unique<FluxProxy>(key); });
}

InstrumentedApp assemble_instrumented_app(mpp::Comm& world,
                                          const components::AppConfig& cfg) {
  auto repo = components::make_repository(world, cfg);
  register_pmm_classes(repo, cfg);

  InstrumentedApp app;
  app.framework = std::make_unique<cca::Framework>(std::move(repo));
  cca::Framework& fw = *app.framework;

  // Application components (same set as the plain assembly).
  fw.instantiate("driver", "ShockDriver");
  fw.instantiate("mesh", "AMRMesh");
  fw.instantiate("rk2", "RK2");
  fw.instantiate("invflux", "InviscidFlux");
  fw.instantiate("states", "States");
  fw.instantiate("flux", cfg.flux_impl);

  // PMM components, created last so they are destroyed first.
  fw.instantiate("tau", "TauMeasurement");
  fw.instantiate("mastermind", "Mastermind");
  fw.instantiate("sc_proxy", "StatesProxy");
  fw.instantiate("flux_proxy", "FluxProxy");
  fw.instantiate("icc_proxy", "AMRMeshProxy");

  app.tau = dynamic_cast<TauMeasurementComponent*>(&fw.component("tau"));
  app.mastermind = dynamic_cast<MastermindComponent*>(&fw.component("mastermind"));
  CCAPERF_REQUIRE(app.tau != nullptr && app.mastermind != nullptr,
                  "instrumented app: PMM component cast failed");

  // CCAPERF_HWC=perf points the PAPI-named registry sources at the real
  // PMU; default (sim) keeps the deterministic simulator counters. A
  // walled-off PMU degrades back to sim with a one-line notice — emitted
  // once per process, not once per rank thread, so multi-rank runs don't
  // repeat it.
  app.hwc_report = app.hwc_backend.install(app.registry().counters());
  if (app.hwc_report.degraded()) {
    static std::once_flag degrade_notice;
    std::call_once(degrade_notice, [&] {
      std::fprintf(stderr,
                   "ccaperf: CCAPERF_HWC=perf unavailable (%s); using sim\n",
                   app.hwc_report.detail.c_str());
    });
  }
  // The active backend rides along in every telemetry line's metadata so
  // downstream tooling knows which substrate produced the counter columns.
  app.mastermind->set_telemetry_hwc(
      app.hwc_report.active == hwc::HwcBackend::perf ? "perf" : "sim");

  // Measurement plumbing.
  fw.connect("mastermind", "measurement", "tau", "measurement");
  fw.connect("sc_proxy", "monitor", "mastermind", "monitor");
  fw.connect("flux_proxy", "monitor", "mastermind", "monitor");
  fw.connect("icc_proxy", "monitor", "mastermind", "monitor");

  // Proxies in front of their components.
  fw.connect("sc_proxy", "states_real", "states", "states");
  fw.connect("flux_proxy", "flux_real", "flux", "flux");
  fw.connect("icc_proxy", "mesh_real", "mesh", "mesh");

  // Application wiring, consumers pointed at the proxies.
  fw.connect("driver", "mesh", "icc_proxy", "mesh");
  fw.connect("driver", "integrator", "rk2", "integrator");
  fw.connect("rk2", "mesh", "icc_proxy", "mesh");
  fw.connect("rk2", "invflux", "invflux", "invflux");
  fw.connect("invflux", "states", "sc_proxy", "states");
  fw.connect("invflux", "flux", "flux_proxy", "flux");

  // CCAPERF_OVERHEAD_PCT arms the overhead governor: the Mastermind feeds
  // it windows of (wall, self-cost, records) and applies the returned
  // tier settings. The governor steers OBSERVABILITY only — a governed
  // run's physics output is byte-identical to an ungoverned one (the
  // governor-soak tier-1 stage pins this).
  const GovernorConfig gov_cfg = GovernorConfig::from_env();
  if (gov_cfg.enabled) {
    GovernorConfig per_rank = gov_cfg;
    // Decorrelate the 1-in-N sampling phases across ranks; the controller
    // itself stays deterministic per rank.
    per_rank.seed += static_cast<std::uint64_t>(world.rank());
    app.governor = std::make_unique<OverheadGovernor>(per_rank);
    app.mastermind->attach_governor(app.governor.get());
  }

  // CCAPERF_TRACE switches the rank's flight recorder on for the whole
  // assembled run; the caller collects and merges the buffers afterwards.
  const TraceEnv trace = trace_env();
  if (trace.enabled) {
    app.registry().set_trace_capacity(trace.capacity);
    app.registry().set_tracing(true);
    // Multi-threaded ranks: worker-lane shards record into their own
    // rings, epoch-aligned with the primary so the merged trace shows one
    // track per thread.
    app.tau->sync_shard_tracing();
  }
  return app;
}

}  // namespace core
