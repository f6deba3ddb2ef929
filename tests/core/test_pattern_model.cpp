// PatternModel property suite: composition identities, monotonicity,
// randomized tree shapes, calibration recovery, and the affinity guard
// (DESIGN.md §13).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/pattern_model.hpp"
#include "support/error.hpp"

namespace {

using core::LeafScaling;
using core::PatternConfig;
using core::PatternModel;
using NodeId = core::PatternModel::NodeId;

PatternConfig cfg(double q, int ranks = 1, int threads = 1) {
  return PatternConfig{q, ranks, threads};
}

// A monotone per-invocation model: t(q) = 2 + 0.01 q.
const core::PerfModel* linear_model(PatternModel& t) {
  return t.adopt(std::make_unique<core::PolynomialModel>(
      std::vector<double>{2.0, 0.01}));
}

NodeId simple_leaf(PatternModel& t, double n = 3.0) {
  return t.leaf(linear_model(t), {{100.0, n}, {400.0, n / 3.0}});
}

TEST(PatternModel, LeafSumsWorkload) {
  PatternModel t;
  t.set_root(simple_leaf(t));
  // 3 * (2 + 1) + 1 * (2 + 4) = 15.
  EXPECT_DOUBLE_EQ(t.predict(cfg(0.0)), 15.0);
}

TEST(PatternModel, LeafClampsNegativePredictions) {
  PatternModel t;
  // t(q) = -10 + 0.01 q is negative at q = 100; leaf charges zero there.
  const auto* m = t.adopt(std::make_unique<core::PolynomialModel>(
      std::vector<double>{-10.0, 0.01}));
  t.set_root(t.leaf(m, {{100.0, 5.0}, {2000.0, 1.0}}));
  EXPECT_DOUBLE_EQ(t.predict(cfg(0.0)), 10.0);
}

TEST(PatternModel, SerialOfOneChildEqualsChild) {
  PatternModel a, b;
  a.set_root(simple_leaf(a));
  const NodeId leaf = simple_leaf(b);
  b.set_root(b.serial({leaf}));
  for (double q : {10.0, 100.0, 1e6})
    EXPECT_DOUBLE_EQ(b.predict(cfg(q)), a.predict(cfg(q)));
}

TEST(PatternModel, MapParallelOneLaneEqualsChild) {
  // At L = 1 the lane factor is exactly 1 for every alpha.
  for (double alpha : {0.0, 0.3, 1.0}) {
    PatternModel a, b;
    a.set_root(simple_leaf(a));
    b.set_root(b.map_parallel(simple_leaf(b), alpha));
    EXPECT_DOUBLE_EQ(b.predict(cfg(50.0, 1, 1)), a.predict(cfg(50.0, 1, 1)));
  }
}

TEST(PatternModel, PipelineTakesMaxStage) {
  PatternModel t;
  const NodeId slow = t.constant(40.0);
  const NodeId fast1 = t.constant(5.0);
  const NodeId fast2 = t.constant(12.0);
  t.set_root(t.pipeline({fast1, slow, fast2}));
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0)), 40.0);
}

TEST(PatternModel, PipelineDominatedByEveryStage) {
  PatternModel t;
  std::vector<NodeId> stages = {simple_leaf(t, 1.0), t.constant(3.0),
                                simple_leaf(t, 10.0)};
  const NodeId pipe = t.pipeline(stages);
  t.set_root(pipe);
  const double whole = t.predict(cfg(0.0));
  for (NodeId s : stages) {
    PatternModel sub = t;  // arena copy is cheap and shares no state
    sub.set_root(s);
    EXPECT_GE(whole, sub.predict(cfg(0.0)));
  }
}

TEST(PatternModel, MonotoneInQ) {
  PatternModel t;
  LeafScaling s;
  s.ref_q = 100.0;
  s.count_q_exp = 1.0;
  const NodeId l1 = t.leaf(linear_model(t), {{100.0, 4.0}}, s);
  LeafScaling s2;
  s2.ref_q = 100.0;
  s2.q_q_exp = 1.0;
  const NodeId l2 = t.leaf(linear_model(t), {{100.0, 2.0}}, s2);
  t.set_root(t.rank_replicated(t.map_parallel(t.serial({l1, l2}), 0.2), 5.0));
  double prev = 0.0;
  for (double q : {50.0, 100.0, 200.0, 400.0, 1600.0}) {
    const double v = t.predict(cfg(q, 4, 2));
    EXPECT_GT(v, prev);
    prev = v;
  }
}

TEST(PatternModel, LanesNeverHurtForPhysicalAlpha) {
  // For alpha <= 1 and zero lane overhead, adding lanes never increases
  // the predicted span: (1 + a(L-1))/L is non-increasing in L.
  PatternModel t;
  t.set_root(t.map_parallel(simple_leaf(t), 0.4));
  double prev = t.predict(cfg(10.0, 1, 1));
  for (int lanes = 2; lanes <= 16; ++lanes) {
    const double v = t.predict(cfg(10.0, 1, lanes));
    EXPECT_LE(v, prev + 1e-12);
    prev = v;
  }
  // Fully serialized lanes (alpha = 1) are exactly lane-count-invariant.
  t.set_coefficient(t.root(), 1.0);
  EXPECT_DOUBLE_EQ(t.predict(cfg(10.0, 1, 8)), t.predict(cfg(10.0, 1, 1)));
}

TEST(PatternModel, RankReplicatedAddsLogTerm) {
  PatternModel t;
  t.set_root(t.rank_replicated(t.constant(100.0), 7.0));
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 1, 1)), 100.0);   // ceil(log2 1) = 0
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 2, 1)), 107.0);   // 1 round
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 5, 1)), 121.0);   // ceil(log2 5) = 3
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 8, 1)), 121.0);
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 9, 1)), 128.0);
}

TEST(PatternModel, ForkJoinChargesPerLaneDoubling) {
  PatternModel t;
  t.set_root(t.fork_join(5.0));
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 1, 1)), 0.0);  // one lane: no fork
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 1, 2)), 5.0);
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 1, 3)), 10.0);  // ceil(log2 3) = 2
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 1, 4)), 10.0);
  EXPECT_DOUBLE_EQ(t.predict(cfg(1.0, 16, 8)), 15.0);  // ranks don't matter
}

TEST(PatternModel, CalibrationRecoversForkJoinNextToLaneImbalance) {
  // alpha and the fork-join cost are jointly affine once kappa is fixed:
  // one stage recovers both, with the constant, from multi-lane points.
  auto make = [](double alpha, double cost, double gamma, NodeId* an,
                 NodeId* fn, NodeId* gn) {
    PatternModel t;
    *an = t.map_parallel(t.scale(simple_leaf(t), 2.0), alpha);
    *fn = t.fork_join(cost);
    *gn = t.constant(gamma);
    t.set_root(t.serial({*an, *fn, *gn}));
    return t;
  };
  NodeId an, fn, gn;
  const PatternModel truth = make(0.4, 12.0, 30.0, &an, &fn, &gn);
  std::vector<PatternModel::Observation> obs;
  for (int lanes : {1, 2, 4, 8})
    for (double q : {50.0, 100.0})
      obs.push_back({cfg(q, 1, lanes), truth.predict(cfg(q, 1, lanes))});

  NodeId an2, fn2, gn2;
  PatternModel fit = make(1.0, 0.0, 0.0, &an2, &fn2, &gn2);
  (void)fit.calibrate(obs, {an2, fn2, gn2});
  EXPECT_NEAR(fit.coefficient(an2), 0.4, 1e-9);
  EXPECT_NEAR(fit.coefficient(fn2), 12.0, 1e-9);
  EXPECT_NEAR(fit.coefficient(gn2), 30.0, 1e-9);
}

TEST(PatternModel, LeafScalingExtrapolatesCountsAndRanks) {
  PatternModel t;
  LeafScaling s;
  s.ref_q = 100.0;
  s.ref_ranks = 2.0;
  s.count_q_exp = 1.0;
  s.count_ranks_exp = 1.0;
  t.set_root(t.leaf(linear_model(t), {{100.0, 8.0}}, s));
  const double base = t.predict(cfg(100.0, 2, 1));  // 8 * 3 = 24
  EXPECT_DOUBLE_EQ(base, 24.0);
  // Double the problem: double the count. Double the ranks: halve it.
  EXPECT_DOUBLE_EQ(t.predict(cfg(200.0, 2, 1)), 2.0 * base);
  EXPECT_DOUBLE_EQ(t.predict(cfg(100.0, 4, 1)), 0.5 * base);
  EXPECT_DOUBLE_EQ(t.predict(cfg(200.0, 4, 1)), base);
}

// Randomized trees: build a depth >= 4 tree from a seeded generator and
// check structural invariants that must hold for any shape.
struct RandomTree {
  PatternModel tree;
  std::mt19937 rng;

  explicit RandomTree(unsigned seed) : rng(seed) { tree.set_root(build(4)); }

  NodeId build(int depth) {
    std::uniform_int_distribution<int> pick(0, depth > 0 ? 5 : 1);
    switch (pick(rng)) {
      case 0: {
        std::uniform_real_distribution<double> g(1.0, 50.0);
        return tree.constant(g(rng));
      }
      case 1: {
        std::uniform_real_distribution<double> n(1.0, 6.0);
        LeafScaling s;
        s.ref_q = 100.0;
        s.count_q_exp = 1.0;
        return tree.leaf(linear_model(tree), {{100.0, n(rng)}, {250.0, n(rng)}},
                         s);
      }
      case 2:
        return tree.serial({build(depth - 1), build(depth - 1)});
      case 3:
        return tree.pipeline({build(depth - 1), build(depth - 1)});
      case 4: {
        std::uniform_real_distribution<double> a(0.0, 1.0);
        return tree.map_parallel(build(depth - 1), a(rng));
      }
      default: {
        std::uniform_real_distribution<double> b(0.0, 10.0);
        return tree.rank_replicated(build(depth - 1), b(rng));
      }
    }
  }
};

TEST(PatternModel, RandomTreesAreDeterministicMonotoneAndNonNegative) {
  for (unsigned seed = 1; seed <= 20; ++seed) {
    RandomTree r(seed);
    const PatternConfig base = cfg(100.0, 4, 2);
    const double v = r.tree.predict(base);
    EXPECT_GE(v, 0.0);
    // Determinism: re-evaluating is bit-identical.
    EXPECT_DOUBLE_EQ(r.tree.predict(base), v);
    // An arena copy predicts identically.
    PatternModel copy = r.tree;
    EXPECT_DOUBLE_EQ(copy.predict(base), v);
    // Monotone in q (all leaves scale counts with q, all combiners are
    // monotone).
    EXPECT_LE(r.tree.predict(cfg(50.0, 4, 2)), v);
    EXPECT_GE(r.tree.predict(cfg(200.0, 4, 2)), v);
    // More ranks never decreases the collective term (leaves here have
    // count_ranks_exp = 0).
    EXPECT_GE(r.tree.predict(cfg(100.0, 16, 2)), v);
  }
}

TEST(PatternModel, SlotValuesOverrideAndStayMonotone) {
  PatternModel t;
  const NodeId s0 = t.slot_leaf(linear_model(t), {{100.0, 2.0}});
  const NodeId fixed = t.constant(10.0);
  t.set_root(t.serial({s0, fixed}));
  ASSERT_EQ(t.slot_count(), 1u);
  EXPECT_EQ(t.slot_node(0), s0);

  const PatternConfig c = cfg(100.0);
  // Default model: 2 * 3 = 6, plus the constant.
  EXPECT_DOUBLE_EQ(t.predict(c), 16.0);
  EXPECT_DOUBLE_EQ(t.predict_with_slot_values(c, {6.0}), 16.0);
  // slot_value under the default model matches what predict() charges.
  core::PolynomialModel same{{2.0, 0.01}};
  EXPECT_DOUBLE_EQ(t.slot_value(0, c, same), 6.0);
  // Monotone in the slot value.
  EXPECT_LT(t.predict_with_slot_values(c, {1.0}),
            t.predict_with_slot_values(c, {50.0}));
}

TEST(PatternModel, CalibrationRecoversCoefficients) {
  // Build a tree with known {kappa, gamma, beta}, synthesize observations
  // from it, scramble, and recover by least squares.
  auto make = [](double kappa, double gamma, double beta, NodeId* kn,
                 NodeId* gn, NodeId* bn) {
    PatternModel t;
    const auto* m = t.adopt(std::make_unique<core::PolynomialModel>(
        std::vector<double>{5.0}));
    LeafScaling s;
    s.ref_q = 100.0;
    s.count_q_exp = 1.0;
    const NodeId leaf = t.leaf(m, {{100.0, 10.0}}, s);
    *kn = t.scale(leaf, kappa);
    *gn = t.constant(gamma);
    *bn = t.rank_replicated(t.serial({*kn, *gn}), beta);
    t.set_root(*bn);
    return t;
  };
  NodeId kn, gn, bn;
  PatternModel truth = make(1.7, 42.0, 9.0, &kn, &gn, &bn);

  std::vector<PatternModel::Observation> obs;
  for (int ranks : {1, 2, 4, 8})
    for (double q : {50.0, 100.0})
      obs.push_back({cfg(q, ranks), truth.predict(cfg(q, ranks))});

  NodeId kn2, gn2, bn2;
  PatternModel fit = make(0.0, 0.0, 0.0, &kn2, &gn2, &bn2);
  const auto report = fit.calibrate(obs, {kn2, gn2, bn2});
  ASSERT_EQ(report.fitted.size(), 3u);
  EXPECT_NEAR(fit.coefficient(kn2), 1.7, 1e-6);
  EXPECT_NEAR(fit.coefficient(gn2), 42.0, 1e-6);
  EXPECT_NEAR(fit.coefficient(bn2), 9.0, 1e-6);
  EXPECT_LT(report.rms_residual_us, 1e-6);
  EXPECT_LT(report.max_rel_err, 1e-9);
}

TEST(PatternModel, CalibrationClampsNegativeSolutions) {
  // Observations below the fixed leaf cost drive the fitted constant
  // negative; the clamp keeps it at zero.
  PatternModel t;
  const auto* m = t.adopt(std::make_unique<core::PolynomialModel>(
      std::vector<double>{50.0}));
  const NodeId leaf = t.leaf(m, {{100.0, 1.0}});
  const NodeId g = t.constant(123.0);
  t.set_root(t.serial({leaf, g}));
  std::vector<PatternModel::Observation> obs = {{cfg(100.0), 10.0},
                                                {cfg(200.0), 12.0}};
  (void)t.calibrate(obs, {g});
  EXPECT_DOUBLE_EQ(t.coefficient(g), 0.0);
}

TEST(PatternModel, CalibrationRejectsNonAffineFreeSets) {
  // kappa nested under a free-alpha MapParallel is a product term. With a
  // fixed Const sibling keeping the probe columns independent, the system
  // solves but superposition fails — the affinity check must fire and
  // restore the previous coefficients.
  PatternModel t;
  const auto* m = t.adopt(std::make_unique<core::PolynomialModel>(
      std::vector<double>{5.0}));
  const NodeId leaf = t.leaf(m, {{100.0, 10.0}});
  const NodeId k = t.scale(leaf, 1.5);
  const NodeId inner = t.serial({k, t.constant(10.0)});
  const NodeId a = t.map_parallel(inner, 0.25);
  t.set_root(a);
  std::vector<PatternModel::Observation> obs;
  for (int lanes : {1, 2, 4})
    obs.push_back({cfg(100.0, 1, lanes), 40.0 + lanes});
  EXPECT_THROW((void)t.calibrate(obs, {k, a}), ccaperf::Error);
  // Prior coefficients survive the rejection.
  EXPECT_DOUBLE_EQ(t.coefficient(k), 1.5);
  EXPECT_DOUBLE_EQ(t.coefficient(a), 0.25);
}

TEST(PatternModel, CalibrationRestoresOnSingularFreeSets) {
  // With no fixed sibling, probing alpha at kappa = 0 yields an all-zero
  // column: alpha cannot be identified. The error names it by its index
  // in the free set and its kind, and the throw must still leave the
  // pre-call coefficients in place.
  PatternModel t;
  const auto* m = t.adopt(std::make_unique<core::PolynomialModel>(
      std::vector<double>{5.0}));
  const NodeId k = t.scale(t.leaf(m, {{100.0, 10.0}}), 1.5);
  const NodeId a = t.map_parallel(k, 0.25);
  t.set_root(a);
  std::vector<PatternModel::Observation> obs = {
      {cfg(100.0, 1, 1), 75.0}, {cfg(100.0, 1, 2), 47.0},
      {cfg(100.0, 1, 4), 33.0}};
  try {
    (void)t.calibrate(obs, {k, a});
    ADD_FAILURE() << "calibrate accepted an unidentifiable coefficient";
  } catch (const ccaperf::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("free coefficient 1 (map_parallel)"), std::string::npos)
        << what;
  }
  EXPECT_DOUBLE_EQ(t.coefficient(k), 1.5);
  EXPECT_DOUBLE_EQ(t.coefficient(a), 0.25);
}

TEST(PatternModel, CoefficientAccessRejectsStructuralNodes) {
  PatternModel t;
  const NodeId s = t.serial({t.constant(1.0), t.constant(2.0)});
  t.set_root(s);
  EXPECT_THROW((void)t.coefficient(s), ccaperf::Error);
  EXPECT_THROW(t.set_coefficient(s, 1.0), ccaperf::Error);
}

TEST(PatternModel, DescribeMentionsEveryNodeKind) {
  PatternModel t;
  const NodeId leaf = simple_leaf(t);
  t.set_root(t.rank_replicated(
      t.serial({t.map_parallel(t.scale(leaf, 1.1), 0.5), t.fork_join(4.0),
                t.constant(3.0)}),
      2.0));
  const std::string d = t.describe();
  for (const char* kind : {"leaf", "serial", "map-parallel", "rank-replicated",
                           "scale", "const", "fork-join"})
    EXPECT_NE(d.find(kind), std::string::npos) << kind;
}

}  // namespace
