#pragma once
// One fig01 simulation as the benchmark drives it: assemble, initialize,
// then step the coarse level closed-loop through the driver's own ports
// (IntegratorPort::stable_dt, advance, MeshPort::regrid when due — the
// sequence of ShockDriverComponent::go), timing every step on every rank.

#include <cstdint>
#include <vector>

#include "components/app_assembly.hpp"
#include "core/telemetry_hub.hpp"
#include "ledger.hpp"

namespace fig01bench {

/// The fig01 case study (AppConfig::case_study()) with the interface
/// perturbation drawn from `seed`: amplitude in [0.03002, 0.03078], mode 2.
components::AppConfig make_config(std::uint64_t seed);

/// Timed coarse steps per simulation: p90 keeps 12 samples beyond it even
/// in a single simulation, and the range is the same on every run because
/// the work per step grows as the shock refines the interface. Also the
/// regrid rule's step count N.
inline constexpr int kSteps = 120;

/// The step after which the density digest is taken; also the warm-up's
/// length. Not a multiple of the regrid interval, so no regrid sits at the
/// boundary.
inline constexpr int kDigestStep = 22;

struct SimSpec {
  components::AppConfig cfg;
  int ranks = 3;
  int lanes = 1;               ///< pool lanes per rank (> 1 needs ranks == 1)
  bool instrumented = false;   ///< assemble_instrumented_app + hub + trace ring
  bool traced = false;         ///< bench interposers + chaining CommHooks
  int run_steps = kSteps;      ///< steps actually run (a prefix of the N)
  core::TelemetryHub* hub = nullptr;  ///< required when instrumented
};

struct SimResult {
  double setup_s = 0.0;             ///< slowest rank's assembly + initialize
  std::vector<double> step_us;      ///< per step, slowest rank
  std::vector<double> cell_updates; ///< per step, sum_l cells_l * ratio^l
  std::uint64_t digest = 0;         ///< density digest, ranks in order (FNV-1a)

  // Traced only. Ledger of each rank thread over the stepped interval.
  std::vector<Totals> rank_ledger;
  std::vector<double> rank_step_us; ///< sum of each rank's own step times
  Totals all_threads;               ///< every thread, pool lanes included
  double process_cpu_s = 0.0;       ///< across rank 0's steps
  double rank0_wall_s = 0.0;

  // Instrumented only.
  std::uint64_t trace_events = 0;   ///< trace records pushed during steps
  std::uint64_t trace_dropped = 0;
  std::uint64_t telemetry_lines = 0;
  std::uint64_t hub_published = 0;
  std::uint64_t hub_dropped = 0;
};

SimResult run_sim(const SimSpec& spec);

}  // namespace fig01bench
