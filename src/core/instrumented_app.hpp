#pragma once
// Instrumented assembly of the case-study application — paper Fig. 2:
// "We see three proxies (for AMRMesh, EFMFlux and States), as well as the
// TauMeasurement and Mastermind components to measure and record
// performance-related data."
//
// The proxy insertion is purely a wiring change: each consumer's uses port
// is connected to the proxy's identical provides port, and the proxy's
// uses port to the real component — no component is modified
// (non-intrusiveness, §3).

#include "components/app_assembly.hpp"
#include "core/governor.hpp"
#include "core/mastermind.hpp"
#include "core/proxies.hpp"
#include "core/tau_component.hpp"
#include "hwc/perf_events.hpp"

namespace core {

/// Handles to the PMM components inside an instrumented assembly.
struct InstrumentedApp {
  std::unique_ptr<cca::Framework> framework;
  TauMeasurementComponent* tau = nullptr;
  MastermindComponent* mastermind = nullptr;
  /// Hardware-counter backend (CCAPERF_HWC): owns any perf_event fds the
  /// registry's counter sources read, so it lives with the assembly.
  hwc::PerfBackend hwc_backend;
  hwc::HwcInstallReport hwc_report;
  /// Overhead governor (CCAPERF_OVERHEAD_PCT); null when the knob is
  /// unset so ungoverned runs stay byte-identical.
  std::unique_ptr<OverheadGovernor> governor;

  cca::Framework& fw() { return *framework; }
  tau::Registry& registry() { return tau->registry(); }
};

/// Registers the PMM component classes (proxies, TAU, Mastermind) on top
/// of the application repository.
void register_pmm_classes(cca::ComponentRepository& repo,
                          const components::AppConfig& cfg);

/// Assembles the full instrumented application on this rank:
/// TauMeasurement + Mastermind + {sc, flux, icc} proxies interposed in
/// front of States, <flux_impl> and AMRMesh.
InstrumentedApp assemble_instrumented_app(mpp::Comm& world,
                                          const components::AppConfig& cfg);

}  // namespace core
