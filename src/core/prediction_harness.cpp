#include "core/prediction_harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <map>
#include <mutex>
#include <set>
#include <string>

#include "core/instrumented_app.hpp"
#include "mpp/runtime.hpp"
#include "support/error.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace core {

namespace {

/// What to harvest from one monitored method's record.
struct MethodSpec {
  std::string key;
  std::string param;  ///< "Q" for kernels, "cells" for mesh ops
  Record::Metric metric = Record::Metric::wall;
};

/// Cross-rank aggregate of one method's record.
struct MethodAgg {
  std::map<double, double> counts;  ///< invocations per distinct param value
  std::vector<Sample> samples;      ///< (param, metric) per invocation
};

std::vector<MethodSpec> fig01_method_specs(const components::AppConfig& cfg) {
  const std::string flux_key =
      cfg.flux_impl == "EFMFlux" ? "efm_proxy::compute()" : "g_proxy::compute()";
  // Mesh ops use the compute metric (wall - MPI): their blocked-wait time
  // belongs to the tree's collective term, not the leaf.
  return {
      {"sc_proxy::compute()", "Q", Record::Metric::wall},
      {flux_key, "Q", Record::Metric::wall},
      {"icc_proxy::ghost_update()", "cells", Record::Metric::compute},
      {"icc_proxy::prolong()", "cells", Record::Metric::compute},
      {"icc_proxy::restrict()", "cells", Record::Metric::compute},
  };
}

/// Runs the instrumented app once on one lane per rank and returns
/// per-method cross-rank aggregates (counts always; samples only when
/// `want_samples`).
std::map<std::string, MethodAgg> run_capture(const components::AppConfig& cfg,
                                             int ranks, int steps,
                                             bool want_samples) {
  components::AppConfig run_cfg = cfg;
  run_cfg.driver.nsteps = steps;
  run_cfg.driver.regrid_interval = 0;  // fixed hierarchy => constant per-step work
  const auto specs = fig01_method_specs(cfg);

  std::map<std::string, MethodAgg> agg;
  std::mutex mu;
  mpp::Runtime::run(ranks, mpp::NetworkModel::classic_cluster(),
                    [&](mpp::Comm& world) {
    ccaperf::set_rank_pool_threads(1);
    InstrumentedApp app = assemble_instrumented_app(world, run_cfg);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    std::lock_guard<std::mutex> lock(mu);
    for (const MethodSpec& spec : specs) {
      const Record* rec = app.mastermind->record(spec.key);
      if (rec == nullptr) continue;  // e.g. no prolong on a 1-level run
      MethodAgg& a = agg[spec.key];
      for (std::size_t i = 0; i < rec->count(); ++i) {
        const double q = rec->param_at(i, spec.param);
        if (std::isnan(q)) continue;
        a.counts[q] += 1.0;
        if (want_samples) {
          const double t = spec.metric == Record::Metric::wall
                               ? rec->wall_us(i)
                               : spec.metric == Record::Metric::compute
                                     ? rec->compute_us(i)
                                     : rec->mpi_us(i);
          a.samples.push_back(Sample{q, t});
        }
      }
    }
  });
  return agg;
}

/// fit_best with guards for records that only ever see one or two
/// distinct parameter values (mesh ops visit one value per level).
std::unique_ptr<PerfModel> fit_leaf_model(const std::vector<Sample>& pts) {
  CCAPERF_REQUIRE(!pts.empty(), "fit_leaf_model: no samples");
  std::set<double> distinct;
  for (const Sample& s : pts) distinct.insert(s.q);
  if (distinct.size() == 1) {
    double mean = 0.0;
    for (const Sample& s : pts) mean += s.t;
    mean /= static_cast<double>(pts.size());
    auto model = std::make_unique<PolynomialModel>(std::vector<double>{mean});
    score_model(*model, pts, 1);
    return model;
  }
  if (distinct.size() == 2) {
    auto model = fit_polynomial(pts, 1);
    return model;
  }
  return fit_best(pts, 2);
}

LeafCapture make_leaf(const std::string& method, const MethodAgg& lo,
                      const MethodAgg& hi, int steps_lo, int steps_hi) {
  LeafCapture leaf;
  leaf.method = method;
  const double dsteps = static_cast<double>(steps_hi - steps_lo);
  for (const auto& [q, n_hi] : hi.counts) {
    const auto it = lo.counts.find(q);
    const double n_lo = it != lo.counts.end() ? it->second : 0.0;
    const double per_step = (n_hi - n_lo) / dsteps;
    // Init-phase-only entries difference to zero; drop them.
    if (per_step > 1e-12) leaf.per_step.push_back({q, per_step});
  }
  CCAPERF_REQUIRE(!leaf.per_step.empty(),
                  "collect_fig01_workload: no per-step work for " + method);
  leaf.model = fit_leaf_model(hi.samples);
  return leaf;
}

}  // namespace

double fig01_problem_q(const components::AppConfig& cfg) {
  return static_cast<double>(cfg.mesh.domain.num_pts());
}

Fig01Workload collect_fig01_workload(const components::AppConfig& cfg,
                                     int ranks, int steps_lo, int steps_hi) {
  CCAPERF_REQUIRE(steps_hi > steps_lo && steps_lo >= 1,
                  "collect_fig01_workload: need steps_hi > steps_lo >= 1");
  const auto lo = run_capture(cfg, ranks, steps_lo, false);
  auto hi = run_capture(cfg, ranks, steps_hi, true);

  const auto specs = fig01_method_specs(cfg);
  const MethodAgg empty;
  auto agg_of = [&](const std::map<std::string, MethodAgg>& m,
                    const std::string& key) -> const MethodAgg& {
    const auto it = m.find(key);
    return it != m.end() ? it->second : empty;
  };

  Fig01Workload w;
  w.ref_q = fig01_problem_q(cfg);
  w.ref_ranks = ranks;
  w.states = make_leaf(specs[0].key, agg_of(lo, specs[0].key),
                       agg_of(hi, specs[0].key), steps_lo, steps_hi);
  w.flux = make_leaf(specs[1].key, agg_of(lo, specs[1].key),
                     agg_of(hi, specs[1].key), steps_lo, steps_hi);
  for (std::size_t i = 2; i < specs.size(); ++i) {
    if (agg_of(hi, specs[i].key).counts.empty()) continue;
    LeafCapture op = make_leaf(specs[i].key, agg_of(lo, specs[i].key),
                               agg_of(hi, specs[i].key), steps_lo, steps_hi);
    // Mesh-op default: per-level invocation counts are fixed by the
    // hierarchy depth; the per-invocation cells parameter tracks the grid.
    op.count_q_exp = 0.0;
    op.q_q_exp = 1.0;
    w.mesh_ops.push_back(std::move(op));
  }
  CCAPERF_REQUIRE(!w.mesh_ops.empty(),
                  "collect_fig01_workload: no mesh-op records captured");
  return w;
}

namespace {

double workload_total_us(const LeafCapture& leaf) {
  double t = 0.0;
  for (const auto& bin : leaf.per_step)
    t += bin.second * std::max(0.0, leaf.model->predict(bin.first));
  return t;
}

double power_law_exponent(double v_ref, double v_probe, double q_ratio) {
  if (v_ref <= 0.0 || v_probe <= 0.0) return 0.0;
  const double e = std::log(v_ref / v_probe) / std::log(q_ratio);
  return std::min(1.5, std::max(0.0, e));
}

}  // namespace

void fit_workload_q_scaling(Fig01Workload& w, const Fig01Workload& probe) {
  CCAPERF_REQUIRE(w.ref_q > 0.0 && probe.ref_q > 0.0 && w.ref_q != probe.ref_q,
                  "fit_workload_q_scaling: need two distinct problem sizes");
  const double q_ratio = w.ref_q / probe.ref_q;
  // The exponent is fitted on the leaf's *total* modeled time, not its raw
  // invocation count: the AMR hierarchy shifts the per-invocation q
  // distribution as the grid scales (more, smaller refined patches), so
  // count and per-invocation cost move in opposite directions and only
  // their product is a stable power law. With q_q_exp = 0 the per-step
  // bins stay at captured q values, so leaf models are never evaluated
  // outside their fitted range; the scaling rides entirely on n_eff.
  auto fit = [&](LeafCapture& leaf, const LeafCapture& other) {
    leaf.count_q_exp = power_law_exponent(workload_total_us(leaf),
                                          workload_total_us(other), q_ratio);
    leaf.q_q_exp = 0.0;
  };
  fit(w.states, probe.states);
  fit(w.flux, probe.flux);
  for (LeafCapture& op : w.mesh_ops) {
    const LeafCapture* other = nullptr;
    for (const LeafCapture& p : probe.mesh_ops)
      if (p.method == op.method) other = &p;
    if (other == nullptr) continue;  // level absent at the probe size
    fit(op, *other);
  }
}

namespace {

/// Wall and process CPU time (us) of one plain run.
struct RunTimes {
  double wall_us = 0.0;
  double cpu_us = 0.0;
};

double process_cpu_us() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) * 1e-3;
}

RunTimes run_plain(const components::AppConfig& cfg, int ranks, int threads,
                   int steps) {
  components::AppConfig run_cfg = cfg;
  run_cfg.driver.nsteps = steps;
  run_cfg.driver.regrid_interval = 0;
  const double cpu0 = process_cpu_us();
  const auto t0 = std::chrono::steady_clock::now();
  mpp::Runtime::run(ranks, mpp::NetworkModel::classic_cluster(),
                    [&](mpp::Comm& world) {
    ccaperf::set_rank_pool_threads(threads);
    auto fw = components::assemble_app(world, run_cfg);
    fw->services("driver").provided_as<components::GoPort>("go")->go();
  });
  RunTimes t;
  t.wall_us = std::chrono::duration<double, std::micro>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  t.cpu_us = process_cpu_us() - cpu0;
  return t;
}

}  // namespace

double marginal_step_us(std::size_t point, double best_lo_us,
                        double best_hi_us, int dsteps) {
  if (!(best_hi_us > best_lo_us))
    ccaperf::raise("measure_fig01_points: point " + std::to_string(point) +
                   ": best wall " + ccaperf::fmt_double(best_hi_us, 6) +
                   " us at steps_hi is not above " +
                   ccaperf::fmt_double(best_lo_us, 6) +
                   " us at steps_lo, so its marginal step is not measurable");
  return (best_hi_us - best_lo_us) / static_cast<double>(dsteps);
}

std::vector<double> measure_fig01_points(
    const std::vector<Fig01MeasureRequest>& points, int steps_lo,
    int steps_hi, int reps, std::vector<double>* busy_cores) {
  CCAPERF_REQUIRE(steps_hi > steps_lo && steps_lo >= 1,
                  "measure_fig01_points: need steps_hi > steps_lo >= 1");
  CCAPERF_REQUIRE(reps >= 1, "measure_fig01_points: reps >= 1");
  const std::size_t n = points.size();
  std::vector<RunTimes> best_lo(n), best_hi(n);
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 0; i < n; ++i) {
      const Fig01MeasureRequest& p = points[i];
      const RunTimes lo = run_plain(p.cfg, p.ranks, p.threads, steps_lo);
      const RunTimes hi = run_plain(p.cfg, p.ranks, p.threads, steps_hi);
      if (rep == 0 || lo.wall_us < best_lo[i].wall_us) best_lo[i] = lo;
      if (rep == 0 || hi.wall_us < best_hi[i].wall_us) best_hi[i] = hi;
    }
  }
  const double dsteps = static_cast<double>(steps_hi - steps_lo);
  std::vector<double> step_us(n);
  if (busy_cores != nullptr) busy_cores->assign(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    step_us[i] = marginal_step_us(i, best_lo[i].wall_us, best_hi[i].wall_us,
                                  steps_hi - steps_lo);
    if (busy_cores != nullptr) {
      const double cpu = (best_hi[i].cpu_us - best_lo[i].cpu_us) / dsteps;
      (*busy_cores)[i] = std::max(cpu, 0.0) / step_us[i];
    }
  }
  return step_us;
}

Fig01Pattern build_fig01_pattern(Fig01Workload workload) {
  Fig01Pattern p;
  PatternModel& t = p.tree;

  // Every leaf's captured workload is the global per-step work, divided
  // evenly over ranks (count_ranks_exp = 1); the problem-size exponents
  // come from the capture (measured when a second-size probe ran,
  // linear-count defaults otherwise).
  auto scaling_of = [&](const LeafCapture& leaf) {
    LeafScaling s;
    s.ref_q = workload.ref_q;
    s.ref_ranks = 1.0;  // counts captured globally -> / P
    s.count_ranks_exp = 1.0;
    s.count_q_exp = leaf.count_q_exp;
    s.q_q_exp = leaf.q_q_exp;
    return s;
  };

  std::vector<PatternModel::NodeId> leaves;
  const LeafScaling states_scaling = scaling_of(workload.states);
  const PerfModel* states_model = t.adopt(std::move(workload.states.model));
  leaves.push_back(t.leaf(states_model, workload.states.per_step, states_scaling));
  const LeafScaling flux_scaling = scaling_of(workload.flux);
  const PerfModel* flux_model = t.adopt(std::move(workload.flux.model));
  const PatternModel::NodeId flux_leaf =
      t.slot_leaf(flux_model, workload.flux.per_step, flux_scaling);
  p.flux_slot = t.slot_count() - 1;
  leaves.push_back(flux_leaf);
  for (LeafCapture& op : workload.mesh_ops) {
    const LeafScaling op_scaling = scaling_of(op);
    const PerfModel* m = t.adopt(std::move(op.model));
    leaves.push_back(t.leaf(m, op.per_step, op_scaling));
  }

  const PatternModel::NodeId monitored = t.serial(std::move(leaves));
  p.kappa_node = t.scale(monitored, 1.0);  // unmonitored work rides along
  p.alpha_node = t.map_parallel(p.kappa_node, 1.0);  // serialized-lane default
  p.fork_join_node = t.fork_join(0.0);     // lane wake-up and join cost
  p.gamma_node = t.constant(0.0);          // fixed per-step fabric cost
  const PatternModel::NodeId per_rank =
      t.serial({p.alpha_node, p.fork_join_node, p.gamma_node});
  p.beta_node = t.rank_replicated(per_rank, 0.0);
  t.set_root(p.beta_node);
  return p;
}

Fig01Calibration calibrate_fig01_measured(
    const components::AppConfig& cfg, const Fig01TrainSpec& spec,
    const std::vector<double>& train_step_us) {
  CCAPERF_REQUIRE(!spec.ranks.empty() && !spec.threads.empty(),
                  "calibrate_fig01_measured: empty training grid");
  CCAPERF_REQUIRE(
      train_step_us.size() == spec.ranks.size() * spec.threads.size(),
      "calibrate_fig01_measured: one wall time per training-grid point");
  Fig01Calibration cal;
  Fig01Workload workload = collect_fig01_workload(
      cfg, spec.capture_ranks, spec.steps_lo, spec.steps_hi);
  if (!spec.q_captures.empty()) {
    const Fig01Workload probe = collect_fig01_workload(
        spec.q_captures.front(), spec.capture_ranks, spec.steps_lo,
        spec.steps_hi);
    fit_workload_q_scaling(workload, probe);
  }
  cal.pattern = build_fig01_pattern(std::move(workload));

  std::size_t at = 0;
  for (int ranks : spec.ranks) {
    for (int threads : spec.threads) {
      Fig01Point pt;
      pt.ranks = ranks;
      pt.threads = threads;
      pt.step_us = train_step_us[at++];
      cal.train.push_back(pt);
    }
  }

  // Each point is weighted by 1 / its wall, so the least squares
  // minimizes relative residuals: the errors the harness is judged by are
  // relative, and the walls span about 2x across the grid.
  const double q = fig01_problem_q(cfg);
  std::vector<PatternModel::Observation> stage1, stage2, all;
  for (const Fig01Point& pt : cal.train) {
    const PatternModel::Observation o{PatternConfig{q, pt.ranks, pt.threads},
                                      pt.step_us, 1.0 / pt.step_us};
    (pt.threads == 1 ? stage1 : stage2).push_back(o);
    all.push_back(o);
  }
  CCAPERF_REQUIRE(
      stage1.size() >= 3,
      "calibrate_fig01_measured: need >= 3 single-lane training points");

  // Stage 1 pins {kappa, gamma, beta} on the single-lane points (the
  // MapParallel factor is exactly 1 and the fork-join term 0 at L = 1);
  // stage 2 fits {alpha, fork-join} on the multi-lane points with those
  // frozen. A final re-fit of {kappa, gamma, beta, fork-join} over *all*
  // points with alpha frozen turns the exactly-determined stage-1 solve
  // into an overdetermined one — measurement noise on three points would
  // otherwise land entirely on beta, whose lever arm grows as P log P at
  // held-out rank counts.
  PatternModel& t = cal.pattern.tree;
  const std::vector<PatternModel::NodeId> single_lane = {
      cal.pattern.kappa_node, cal.pattern.gamma_node, cal.pattern.beta_node};
  cal.stage1 = t.calibrate(stage1, single_lane);
  if (!stage2.empty()) {
    cal.stage2 = t.calibrate(
        stage2, {cal.pattern.alpha_node, cal.pattern.fork_join_node});
    std::vector<PatternModel::NodeId> refit_nodes = single_lane;
    refit_nodes.push_back(cal.pattern.fork_join_node);
    cal.refit = t.calibrate(all, refit_nodes);
  }
  return cal;
}

double predict_fig01_step_us(const Fig01Pattern& pattern,
                             const components::AppConfig& cfg, int ranks,
                             int threads) {
  return pattern.tree.predict(
      PatternConfig{fig01_problem_q(cfg), ranks, threads});
}

}  // namespace core
