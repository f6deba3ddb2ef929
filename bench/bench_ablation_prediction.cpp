// Ablation: held-out prediction accuracy of the compositional pattern
// model (DESIGN.md §13) — the predict/validate loop closed end to end.
//
// Trains the fig01 pattern tree on a small configuration grid (ranks x
// thread lanes at the base problem size), then predicts configurations
// the calibration never saw — more ranks, more lanes, a non-power-of-two
// rank count, and a refined problem size — runs each for real, and
// reports the per-point relative error on the marginal per-step wall
// time. Also cross-checks the joint assembly x ranks x threads optimizer
// against exhaustive enumeration with real fitted flux models wired into
// the tree's flux slot.
//
// Hard accuracy floor (the PR's acceptance bar, enforced here *and*
// gated via bench/baselines/prediction.json): every held-out point
// within 25% relative error, median within 10%.
//
// Results land in bench_out/prediction.json.
//
// Environment: CCAPERF_PRED_REPS (default 3) wall-timing repetitions.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/optimizer.hpp"
#include "core/prediction_harness.hpp"

namespace {

int env_int(const char* name, int fallback, int lo) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::max(lo, std::atoi(v));
}

/// The tiny case-study hierarchy the holdout tier-1 test also uses,
/// parameterized by base-grid size over the same physical domain
/// (features are placed fractionally, so every size is the same physics
/// at a different resolution). 48x24 is the base; 24x12 probes the
/// workload's problem-size scaling; 36x18 — never captured, never in the
/// training grid — is the held-out Q point, bracketed by probe and base.
/// 96x48 is reported as an ungated *extrapolation* diagnostic: the
/// measured per-leaf scaling exponent falls with grid size (refined
/// levels track the 1-D shock feature, so the dominant flux total is
/// near-affine in sqrt(Q)), which a single power law fitted below the
/// base size cannot follow — see DESIGN.md section 13.
components::AppConfig tiny_config(int nx, int ny) {
  components::AppConfig cfg;
  cfg.mesh.domain = amr::Box{0, 0, nx - 1, ny - 1};
  cfg.mesh.max_levels = 3;
  cfg.mesh.ncomp = euler::kNcomp;
  cfg.mesh.level0_patch_size = 12;
  cfg.mesh.cluster = amr::ClusterParams{0.75, 4, 0};
  cfg.mesh.geom = amr::Geometry{0.0, 0.0, 2.0 / nx, 1.0 / ny};
  cfg.driver = components::DriverConfig{4, 0.4, 0};
  cfg.flux_impl = "GodunovFlux";
  return cfg;
}

struct HeldOutPoint {
  std::string tag;
  components::AppConfig cfg;
  int ranks;
  int threads;
};

}  // namespace

int main() {
  // min-over-reps is the only defense against host-level contention on a
  // single-core box; 6 reps keeps the whole bench around a minute.
  const int reps = env_int("CCAPERF_PRED_REPS", 6, 1);
  const components::AppConfig base_cfg = tiny_config(48, 24);

  core::Fig01TrainSpec spec;  // ranks {2,4,8} x threads {1,2}
  spec.reps = reps;
  spec.steps_hi = 14;  // longer differencing window: less scheduler noise
  // Second-size capture: measures how the AMR workload actually scales
  // with the base grid (the refined levels track the shock, not the
  // domain, so the exponents are well below linear).
  spec.q_captures = {tiny_config(24, 12)};

  // --- measure every point in one interleaved round-robin ------------------
  // Training grid, held-out points, and diagnostics share measurement
  // rounds so slow host-load drift cannot inflate one group against
  // another (see measure_fig01_points).
  const std::vector<HeldOutPoint> points = {
      {"p16_t1", base_cfg, 16, 1},   // 2x the largest trained rank count
      {"p16_t2", base_cfg, 16, 2},   // unseen ranks with multi-lane term
      {"p12_t2", base_cfg, 12, 2},   // non-power-of-two ranks
      {"p8_t4", base_cfg, 8, 4},     // trained ranks, unseen lanes
      {"p4_t4", base_cfg, 4, 4},     // unseen lanes, patch-rich ranks
      {"p8_t1_q36", tiny_config(36, 18), 8, 1},  // unseen problem size
  };
  // Out-of-regime diagnostics, reported but ungated (see below).
  const std::vector<HeldOutPoint> diagnostics = {
      {"diag_p8_t1_q4x", tiny_config(96, 48), 8, 1},
      {"diag_p16_t4", base_cfg, 16, 4},
  };

  std::vector<core::Fig01MeasureRequest> requests;
  for (int ranks : spec.ranks)
    for (int threads : spec.threads)
      requests.push_back(core::Fig01MeasureRequest{base_cfg, ranks, threads});
  const std::size_t first_holdout = requests.size();
  for (const HeldOutPoint& p : points)
    requests.push_back(core::Fig01MeasureRequest{p.cfg, p.ranks, p.threads});
  for (const HeldOutPoint& p : diagnostics)
    requests.push_back(core::Fig01MeasureRequest{p.cfg, p.ranks, p.threads});
  std::vector<double> busy;
  const std::vector<double> walls = core::measure_fig01_points(
      requests, spec.steps_lo, spec.steps_hi, reps, &busy);
  // The tree reads each wall as the per-rank step time of concurrent
  // ranks, which holds while the point leaves host cores idle: report the
  // busy cores measured at every point next to the host's core count.
  const unsigned host_cores = std::max(1u, std::thread::hardware_concurrency());

  // --- train ---------------------------------------------------------------
  std::cout << "=== pattern-model calibration (train grid: ranks {2,4,8} x "
               "lanes {1,2}) ===\n";
  const std::vector<double> train_walls(walls.begin(),
                                        walls.begin() + first_holdout);
  const core::Fig01Calibration cal =
      core::calibrate_fig01_measured(base_cfg, spec, train_walls);
  for (std::size_t i = 0; i < cal.train.size(); ++i)
    std::cout << "  train P=" << cal.train[i].ranks
              << " T=" << cal.train[i].threads
              << "  step_us=" << cal.train[i].step_us
              << "  busy_cores=" << busy[i] << "\n";
  std::cout << cal.pattern.tree.describe()
            << "  train max_rel_err=" << cal.refit.max_rel_err << "\n";

  // --- held-out predictions vs the already-measured walls ------------------
  auto run_point = [&](const HeldOutPoint& p, std::size_t wall_idx) {
    const double predicted_us =
        core::predict_fig01_step_us(cal.pattern, p.cfg, p.ranks, p.threads);
    const double measured_us = walls[wall_idx];
    const double rel_err = std::abs(predicted_us - measured_us) / measured_us;
    std::cout << "  " << p.tag << ": predicted " << predicted_us
              << " us, measured " << measured_us << " us, rel_err " << rel_err
              << ", busy_cores " << busy[wall_idx] << "\n";
    return rel_err;
  };

  std::vector<bench::JsonEntry> out;
  std::vector<double> errors;
  std::cout << "\n=== held-out predictions ===\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double rel_err = run_point(points[i], first_holdout + i);
    errors.push_back(rel_err);
    out.push_back({"prediction", "rel_err_" + points[i].tag, rel_err});
  }

  // Ungated diagnostics — the two regimes the model class knowingly does
  // not cover, reported so their error stays visible:
  //  * q4x: 4x the base size is far outside the probed range, where the
  //    local power law no longer holds (the per-leaf exponent itself
  //    decreases with Q).
  //  * p16_t4: at 16 ranks each rank holds only a handful of patches, so
  //    4 lanes are starved and the lane terms calibrated at 2 lanes
  //    (MapParallel alpha, ForkJoin cost) no longer describe them.
  std::cout << "\n=== out-of-regime diagnostics (ungated) ===\n";
  const std::size_t first_diag = first_holdout + points.size();
  const double extrap_err = run_point(diagnostics[0], first_diag);
  out.push_back({"prediction", "diag_extrapolation_q4x_rel_err", extrap_err});
  const double starved_err = run_point(diagnostics[1], first_diag + 1);
  out.push_back({"prediction", "diag_lane_starved_p16_t4_rel_err", starved_err});

  std::vector<double> sorted = errors;
  std::sort(sorted.begin(), sorted.end());
  const double max_err = sorted.back();
  const double median_err = sorted[sorted.size() / 2];
  out.push_back({"prediction", "max_rel_err", max_err});
  out.push_back({"prediction", "median_rel_err", median_err});
  std::cout << "  max_rel_err=" << max_err << " median_rel_err=" << median_err
            << "\n";
  const double max_busy = *std::max_element(busy.begin(), busy.end());
  out.push_back({"prediction", "max_busy_core_share",
                 max_busy / static_cast<double>(host_cores)});
  std::cout << "  busiest point: " << max_busy << " of " << host_cores
            << " host cores\n";

  // --- joint optimizer vs exhaustive on the calibrated tree ----------------
  // Real fitted flux models in the tree's flux slot: the joint search must
  // pick the identical (assembly, ranks, threads) as brute force.
  std::cout << "\n=== joint assembly x ranks x threads search ===\n";
  const auto godunov_sweep = bench::sweep_component("godunov", 1, 2, 60'000);
  const auto efm_sweep = bench::sweep_component("efm", 1, 2, 60'000);
  const auto godunov_model = core::fit_best(godunov_sweep.all, 2);
  const auto efm_model = core::fit_best(efm_sweep.all, 2);

  core::AssemblyOptimizer opt;
  core::Slot flux_slot;
  flux_slot.functionality = "FluxPort";
  flux_slot.candidates = {
      core::Candidate{"GodunovFlux", godunov_model.get(), 1.0},
      core::Candidate{"EFMFlux", efm_model.get(), 0.7}};
  opt.add_slot(flux_slot);

  const core::PatternConfig base_pt{core::fig01_problem_q(base_cfg), 1, 1};
  const std::vector<int> ranks_grid = {2, 4, 8, 16};
  const std::vector<int> threads_grid = {1, 2, 4};
  bool joint_ok = true;
  for (double w : {0.0, 0.5, 3.0}) {
    core::AssemblyOptimizer::SearchStats stats;
    const auto bb = opt.best_joint(cal.pattern.tree, base_pt, ranks_grid,
                                   threads_grid, w, &stats);
    const auto ex = opt.best_joint_exhaustive(cal.pattern.tree, base_pt,
                                              ranks_grid, threads_grid, w);
    const bool same = bb.selection == ex.selection && bb.ranks == ex.ranks &&
                      bb.threads == ex.threads &&
                      bb.predicted_us == ex.predicted_us;
    joint_ok = joint_ok && same;
    std::cout << "  w=" << w << ": " << bb.selection.at("FluxPort") << " P="
              << bb.ranks << " T=" << bb.threads << " predicted="
              << bb.predicted_us << " us (" << stats.leaves_evaluated
              << " leaves, " << stats.subtrees_pruned << " pruned) "
              << (same ? "== exhaustive" : "!= exhaustive MISMATCH") << "\n";
  }
  out.push_back({"prediction", "joint_matches_exhaustive", joint_ok ? 1.0 : 0.0});

  bench::write_bench_json("bench_out/prediction.json", out);

  // Hard acceptance floor: the bench itself fails on a miss, so a local
  // run catches a regression even without the gate script.
  if (!joint_ok) {
    std::cout << "FAIL: joint optimizer diverged from exhaustive enumeration\n";
    return 1;
  }
  if (max_err > 0.25 || median_err > 0.10) {
    std::cout << "FAIL: held-out accuracy floor missed (max " << max_err
              << " > 0.25 or median " << median_err << " > 0.10)\n";
    return 1;
  }
  std::cout << "\nprediction ablation OK\n";
  return 0;
}
