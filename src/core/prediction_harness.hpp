#pragma once
// Fig01 prediction harness (DESIGN.md §13): captures the case-study app's
// per-step workload from Mastermind records, builds its PatternModel tree,
// and calibrates the tree's free coefficients against measured end-to-end
// runs — the train side of the predict/validate loop that
// bench_ablation_prediction and the held-out tier-1 test close.
//
// Measurement protocol (both capture and wall timing): run the app at two
// step counts with regrids disabled and difference — the hierarchy is
// fixed after mesh->initialize(), so per-step workload is constant and
// (run(S2) - run(S1)) / (S2 - S1) isolates one step's cost with the
// init/teardown/thread-spawn cost subtracted exactly. Wall runs take the
// min over repetitions against scheduler noise.
//
// The substrate note that makes validation honest: the mpp fabric runs
// rank threads in one process, and its modeled network delays (the
// classic-cluster model sleeps them out) overlap across ranks, as does
// rank compute on a multi-core host. The measured wall(P, T) of one step
// is therefore read as the per-rank step time — the quantity the fig01
// tree's RankReplicated root composes (the rank's share of the work +
// lane fork-join + gamma + beta ceil(log2 P)). That reading holds while
// the run leaves host cores idle, so the harness measures it rather than
// assuming it: measure_fig01_points reports each point's busy cores
// (process CPU time over wall time per step) for comparison with the
// host's core count. On a 4-core host the points keep 0.7-2.8 cores busy,
// up to 16 ranks x 4 lanes, because the ranks sleep through most of each
// step's modeled delays; the walls keep falling up to 16 ranks.

#include <memory>
#include <string>
#include <vector>

#include "components/app_assembly.hpp"
#include "core/pattern_model.hpp"

namespace core {

/// One leaf's captured data: the global (all ranks summed) per-step
/// workload and the per-invocation time model fitted from the records.
struct LeafCapture {
  std::string method;                ///< record key, e.g. "sc_proxy::compute()"
  PatternModel::Workload per_step;   ///< global per-step (q, invocations)
  std::unique_ptr<PerfModel> model;  ///< per-invocation time vs q
  /// Problem-size scaling exponents (LeafScaling::count_q_exp / q_q_exp).
  /// Defaults assume invocation counts scale linearly with the base grid
  /// (kernels) or per-invocation cells do (mesh ops); a second capture at
  /// another problem size replaces them with measured total-time exponents
  /// (fit_workload_q_scaling) — on an AMR hierarchy the refined-level work
  /// tracks the *feature*, not the grid, so the true exponents are well
  /// below 1 and fall further as the grid grows.
  double count_q_exp = 1.0;
  double q_q_exp = 0.0;
};

/// Everything collect_fig01_workload() captures about one app config.
struct Fig01Workload {
  double ref_q = 0.0;  ///< base-domain interior cells at capture
  int ref_ranks = 0;   ///< rank count the capture ran at
  LeafCapture states;  ///< sc_proxy::compute(), wall time vs Q
  LeafCapture flux;    ///< flux proxy key per cfg.flux_impl, wall vs Q
  /// ghost_update/prolong/restrict, *compute* time (wall - MPI) vs the
  /// level's global cells — wall would double-count blocked-wait time that
  /// the collective term already models.
  std::vector<LeafCapture> mesh_ops;
};

/// Runs the instrumented assembly at `steps_lo` and `steps_hi` (regrids
/// disabled, 1 thread lane) on `ranks` ranks and differences record row
/// counts into exact global per-step workloads; models are fitted from
/// the longer run's per-invocation samples.
Fig01Workload collect_fig01_workload(const components::AppConfig& cfg,
                                     int ranks, int steps_lo, int steps_hi);

/// Replaces `w`'s per-leaf problem-size exponents with two-point power-law
/// fits against a second capture of the same app at a different problem
/// size: exponent = log(total-time ratio) / log(q ratio), where total time
/// is the per-step sum of invocations x fitted per-invocation model. The
/// fit is on totals (not raw counts) because AMR patch granularity moves
/// count and per-invocation cost in opposite directions; only the product
/// is stable. q_q_exp is pinned to 0 so leaf models are never evaluated
/// outside their captured q range. Exponents clamp to [0, 1.5].
///
/// The power law only holds *locally*: the measured per-leaf exponent
/// falls as the grid grows (the refined levels track the shock feature,
/// one dimension, not the domain area), so predictions are reliable for
/// sizes bracketed by the probe and the base capture and overpredict on
/// upward extrapolation — bench_ablation_prediction quantifies both.
void fit_workload_q_scaling(Fig01Workload& w, const Fig01Workload& probe);

/// Marginal per-step wall (us) of request `point` from its best walls at
/// two step counts `dsteps` apart: (best_hi_us - best_lo_us) / dsteps.
/// Raises ccaperf::Error naming the point and both walls when best_hi_us
/// <= best_lo_us: host load swamped the extra steps, and no floor value
/// would be a measurement.
double marginal_step_us(std::size_t point, double best_lo_us,
                        double best_hi_us, int dsteps);

/// One configuration for an interleaved measurement round-robin.
struct Fig01MeasureRequest {
  components::AppConfig cfg;
  int ranks = 1;
  int threads = 1;
};

/// Marginal per-step wall times for every request, measured in
/// *interleaved rounds*: each repetition visits every point once before
/// any point gets its next repetition. On a shared single-core box the
/// dominant noise is slow host-load drift over tens of seconds; measuring
/// points back-to-back lets one era inflate whole groups (e.g. the entire
/// training grid but none of the validation points), which a per-point
/// min cannot undo. Round-robin spreads every point across every era, so
/// the min-over-rounds at each step count sees at least one quiet pass.
///
/// When `busy_cores` is given, it receives each point's marginal process
/// CPU time per step over its marginal wall time per step (from the same
/// min-wall runs): the host cores the point keeps busy on average.
///
/// Raises ccaperf::Error when a point's best wall at steps_hi is not
/// above its best wall at steps_lo (marginal_step_us).
std::vector<double> measure_fig01_points(
    const std::vector<Fig01MeasureRequest>& points, int steps_lo,
    int steps_hi, int reps, std::vector<double>* busy_cores = nullptr);

/// The fig01 tree and the handles its calibration needs:
///   RankReplicated(beta,
///     Serial(MapParallel(alpha, Scale(kappa, Serial(states, flux, mesh...))),
///            ForkJoin(o), Const(gamma)))
/// predict() returns the per-step wall in microseconds; multiply by steps
/// for a whole-run estimate.
struct Fig01Pattern {
  PatternModel tree;
  PatternModel::NodeId alpha_node = 0;  ///< MapParallel lane imbalance
  PatternModel::NodeId fork_join_node = 0;  ///< lane wake/join cost (us)
  PatternModel::NodeId beta_node = 0;   ///< per-collective-hop cost (us)
  PatternModel::NodeId gamma_node = 0;  ///< fixed per-step fabric cost (us)
  PatternModel::NodeId kappa_node = 0;  ///< monitored -> total work scale
  std::size_t flux_slot = 0;            ///< joint-optimizer slot of the flux leaf
};

/// Assembles the tree from a capture (leaf models move into the tree).
/// The flux leaf is a slot leaf so the joint AssemblyOptimizer search can
/// substitute candidate flux implementations.
Fig01Pattern build_fig01_pattern(Fig01Workload workload);

/// One measured training/validation point.
struct Fig01Point {
  int ranks = 1;
  int threads = 1;
  double step_us = 0.0;  ///< marginal per-step wall — what the tree predicts
};

/// Training-grid shape for calibrate_fig01_measured().
struct Fig01TrainSpec {
  std::vector<int> ranks = {2, 4, 8};
  std::vector<int> threads = {1, 2};
  int capture_ranks = 2;
  int steps_lo = 2;
  int steps_hi = 6;
  /// Extra instrumented captures at other problem sizes (the app config's
  /// domain scaled — size scaling is app-specific, so the caller builds
  /// them). When non-empty, the first is used to fit the leaves'
  /// problem-size exponents (fit_workload_q_scaling); predictions at
  /// unseen Q are pure extrapolation of the default linear-count
  /// assumption otherwise.
  std::vector<components::AppConfig> q_captures;
};

/// A calibrated fig01 pattern plus the evidence behind it.
struct Fig01Calibration {
  Fig01Pattern pattern;
  std::vector<Fig01Point> train;
  /// Stage 1 fits {kappa, gamma, beta} on the threads == 1 points (lane
  /// count drops out of MapParallel and ForkJoin at L = 1); stage 2 fits
  /// {alpha, fork-join} on the threads > 1 points with the rest frozen.
  /// The split keeps each stage jointly affine (kappa x alpha is a product
  /// term).
  PatternModel::CalibrationReport stage1;
  PatternModel::CalibrationReport stage2;
  /// Final overdetermined re-fit of {kappa, gamma, beta, fork-join} on all
  /// points with alpha frozen (empty when the grid has no multi-lane
  /// points).
  PatternModel::CalibrationReport refit;
};

/// Capture + build + two-stage calibration over training-grid walls
/// already measured by measure_fig01_points — best in one round-robin
/// shared with the validation points, so train and holdout sample the same
/// host-load eras. `train_step_us` must align with spec's grid in
/// ranks-major, threads-minor order.
Fig01Calibration calibrate_fig01_measured(
    const components::AppConfig& cfg, const Fig01TrainSpec& spec,
    const std::vector<double>& train_step_us);

/// Predicted per-step wall time at (ranks, threads) for the app config's
/// problem size (base-domain interior cells).
double predict_fig01_step_us(const Fig01Pattern& pattern,
                             const components::AppConfig& cfg, int ranks,
                             int threads);

/// The PatternConfig problem-size axis for an app config.
double fig01_problem_q(const components::AppConfig& cfg);

}  // namespace core
