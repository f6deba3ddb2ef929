// Assembly optimization: exhaustive prod(Ci) enumeration, pure-time
// selection, and the QoS accuracy weight flipping the EFM/Godunov choice
// (the paper's §5 trade-off).

#include <gtest/gtest.h>

#include <memory>
#include <random>

#include "core/optimizer.hpp"
#include "support/error.hpp"

namespace {

using core::AssemblyOptimizer;
using core::Candidate;
using core::Slot;

struct Models {
  // EFM-like: cheap linear. Godunov-like: ~2x the slope (Eq. 1 ratio).
  core::PolynomialModel efm{{-8.13, 0.16}};
  core::PolynomialModel godunov{{-963.0, 0.315}};
  core::PolynomialModel states{{5.0, 0.05}};
  core::PolynomialModel states_alt{{2.0, 0.06}};
};

Slot flux_slot(const Models& m) {
  Slot s;
  s.functionality = "FluxPort";
  s.candidates = {Candidate{"EFMFlux", &m.efm, 0.7},
                  Candidate{"GodunovFlux", &m.godunov, 1.0}};
  s.workload = {{50'000.0, 200.0}, {120'000.0, 50.0}};
  return s;
}

Slot states_slot(const Models& m) {
  Slot s;
  s.functionality = "StatesPort";
  s.candidates = {Candidate{"States", &m.states, 1.0},
                  Candidate{"StatesAlt", &m.states_alt, 1.0}};
  s.workload = {{50'000.0, 250.0}};
  return s;
}

TEST(Optimizer, EnumeratesAllAssemblies) {
  Models m;
  AssemblyOptimizer opt;
  opt.add_slot(flux_slot(m));
  opt.add_slot(states_slot(m));
  EXPECT_EQ(opt.assembly_count(), 4u);
  const auto all = opt.evaluate_all();
  EXPECT_EQ(all.size(), 4u);
  // Sorted by cost ascending.
  for (std::size_t k = 1; k < all.size(); ++k)
    EXPECT_LE(all[k - 1].cost, all[k].cost);
}

TEST(Optimizer, PureTimeChoosesEfm) {
  // "From a performance point of view, EFMFlux has better characteristics."
  Models m;
  AssemblyOptimizer opt;
  opt.add_slot(flux_slot(m));
  const auto best = opt.best(0.0);
  EXPECT_EQ(best.selection.at("FluxPort"), "EFMFlux");
  // Predicted time equals the workload-weighted model sum.
  const double expected =
      200.0 * m.efm.predict(50'000.0) + 50.0 * m.efm.predict(120'000.0);
  EXPECT_NEAR(best.predicted_time_us, expected, 1e-6);
  EXPECT_DOUBLE_EQ(best.min_accuracy, 0.7);
}

TEST(Optimizer, QosWeightFlipsToGodunov) {
  // "GodunovFlux is the preferred choice for scientists (it is more
  // accurate)": a strong enough accuracy weight must select it.
  Models m;
  AssemblyOptimizer opt;
  opt.add_slot(flux_slot(m));
  EXPECT_EQ(opt.best(0.0).selection.at("FluxPort"), "EFMFlux");
  EXPECT_EQ(opt.best(10.0).selection.at("FluxPort"), "GodunovFlux");
}

TEST(Optimizer, CrossoverWeightIsMonotone) {
  Models m;
  AssemblyOptimizer opt;
  opt.add_slot(flux_slot(m));
  bool flipped = false;
  std::string prev = "EFMFlux";
  for (double w = 0.0; w <= 10.0; w += 0.25) {
    const std::string now = opt.best(w).selection.at("FluxPort");
    if (now != prev) {
      EXPECT_EQ(now, "GodunovFlux");
      EXPECT_FALSE(flipped) << "choice flipped twice";
      flipped = true;
      prev = now;
    }
  }
  EXPECT_TRUE(flipped);
}

TEST(Optimizer, IndependentSlotsOptimizedIndependently) {
  Models m;
  AssemblyOptimizer opt(1'000.0);  // fixed remainder of the dual
  opt.add_slot(flux_slot(m));
  opt.add_slot(states_slot(m));
  const auto best = opt.best(0.0);
  EXPECT_EQ(best.selection.at("FluxPort"), "EFMFlux");
  // StatesAlt: 2 + 0.06*50000 = 3002/invocation vs 5 + 2500 = 2505: States wins.
  EXPECT_EQ(best.selection.at("StatesPort"), "States");
  EXPECT_GT(best.predicted_time_us, 1'000.0);
}

TEST(Optimizer, RejectsEmptyOrUnmodeledSlots) {
  AssemblyOptimizer opt;
  EXPECT_THROW(opt.evaluate_all(), ccaperf::Error);
  Slot empty;
  empty.functionality = "X";
  EXPECT_THROW(opt.add_slot(empty), ccaperf::Error);
  Slot unmodeled;
  unmodeled.functionality = "Y";
  unmodeled.candidates = {Candidate{"C", nullptr, 1.0}};
  EXPECT_THROW(opt.add_slot(unmodeled), ccaperf::Error);
}

TEST(Optimizer, BnBMatchesExhaustiveOnRandomizedSlotSets) {
  // Property: branch-and-bound is exact — winner and cost identical to
  // full enumeration, tie-break included — across randomized instances.
  std::mt19937 rng(2024);
  std::uniform_int_distribution<int> nslots_d(1, 4);
  std::uniform_int_distribution<int> ncand_d(1, 4);
  std::uniform_real_distribution<double> coeff_d(0.0, 1.0);
  std::uniform_real_distribution<double> q_d(1'000.0, 100'000.0);
  const double weights[] = {0.0, 0.5, 3.0};

  for (int trial = 0; trial < 120; ++trial) {
    std::vector<std::unique_ptr<core::PolynomialModel>> models;
    AssemblyOptimizer opt(trial % 3 == 0 ? 500.0 : 0.0);
    const int nslots = nslots_d(rng);
    for (int s = 0; s < nslots; ++s) {
      Slot slot;
      slot.functionality = "F" + std::to_string(s);
      const int ncand = ncand_d(rng);
      for (int c = 0; c < ncand; ++c) {
        models.push_back(std::make_unique<core::PolynomialModel>(
            std::vector<double>{10.0 * coeff_d(rng), 0.01 * coeff_d(rng)}));
        slot.candidates.push_back(
            Candidate{"c" + std::to_string(c), models.back().get(), coeff_d(rng)});
      }
      // Some slots get an empty workload (slot cost 0 for every candidate:
      // a pure tie the two searches must break identically).
      if (trial % 5 != 0 || s % 2 == 0) {
        const int nw = 1 + (trial % 3);
        for (int w = 0; w < nw; ++w) slot.workload.emplace_back(q_d(rng), 10.0);
      }
      opt.add_slot(std::move(slot));
    }
    const double w = weights[trial % 3];
    AssemblyOptimizer::SearchStats stats;
    const auto bnb = opt.best(w, &stats);
    const auto exact = opt.best_exhaustive(w);
    EXPECT_EQ(bnb.selection, exact.selection) << "trial " << trial;
    EXPECT_DOUBLE_EQ(bnb.cost, exact.cost) << "trial " << trial;
    EXPECT_LE(stats.leaves_evaluated, opt.assembly_count()) << "trial " << trial;
  }
}

TEST(Optimizer, TieBreakPicksLowestCandidateIndices) {
  // Identical models everywhere: every assembly costs the same, so the
  // deterministic tie-break must select candidate 0 in each slot.
  core::PolynomialModel flat{{100.0, 0.0}};
  AssemblyOptimizer opt;
  for (int s = 0; s < 3; ++s) {
    Slot slot;
    slot.functionality = "F" + std::to_string(s);
    slot.candidates = {Candidate{"first", &flat, 1.0}, Candidate{"second", &flat, 1.0},
                       Candidate{"third", &flat, 1.0}};
    slot.workload = {{1'000.0, 5.0}};
    opt.add_slot(std::move(slot));
  }
  for (const double w : {0.0, 2.0}) {
    const auto bnb = opt.best(w);
    const auto exact = opt.best_exhaustive(w);
    EXPECT_EQ(bnb.selection, exact.selection);
    for (int s = 0; s < 3; ++s)
      EXPECT_EQ(bnb.selection.at("F" + std::to_string(s)), "first");
  }
}

TEST(Optimizer, ZeroAccuracyWeightIgnoresAccuracy) {
  // w = 0: a fast-but-inaccurate candidate must win regardless of QoS.
  core::PolynomialModel fast{{1.0, 0.0}};
  core::PolynomialModel slow{{100.0, 0.0}};
  Slot s;
  s.functionality = "F";
  s.candidates = {Candidate{"sloppy", &fast, 0.01}, Candidate{"exact", &slow, 1.0}};
  s.workload = {{10.0, 1.0}};
  AssemblyOptimizer opt;
  opt.add_slot(std::move(s));
  const auto best = opt.best(0.0);
  EXPECT_EQ(best.selection.at("F"), "sloppy");
  EXPECT_DOUBLE_EQ(best.cost, best.predicted_time_us);  // factor is 1
  EXPECT_EQ(opt.best_exhaustive(0.0).selection.at("F"), "sloppy");
}

TEST(Optimizer, EmptyWorkloadSlotCostsNothing) {
  core::PolynomialModel m1{{5.0, 0.0}};
  core::PolynomialModel m2{{50.0, 0.0}};
  Slot idle;
  idle.functionality = "Idle";
  idle.candidates = {Candidate{"a", &m1, 1.0}, Candidate{"b", &m2, 1.0}};
  // no workload: both candidates contribute zero time
  Slot busy;
  busy.functionality = "Busy";
  busy.candidates = {Candidate{"x", &m1, 1.0}, Candidate{"y", &m2, 1.0}};
  busy.workload = {{100.0, 2.0}};
  AssemblyOptimizer opt;
  opt.add_slot(std::move(idle));
  opt.add_slot(std::move(busy));
  const auto best = opt.best(0.0);
  EXPECT_EQ(best.selection.at("Idle"), "a");  // tie broken to index 0
  EXPECT_EQ(best.selection.at("Busy"), "x");
  EXPECT_DOUBLE_EQ(best.predicted_time_us, 2.0 * 5.0);
  EXPECT_EQ(opt.best_exhaustive(0.0).selection, best.selection);
}

TEST(Optimizer, BnBPrunesDominatedSubtrees) {
  // One clearly-cheapest chain: the bound should cut most of the tree.
  std::vector<std::unique_ptr<core::PolynomialModel>> models;
  AssemblyOptimizer opt;
  for (int s = 0; s < 6; ++s) {
    Slot slot;
    slot.functionality = "F" + std::to_string(s);
    for (int c = 0; c < 4; ++c) {
      models.push_back(std::make_unique<core::PolynomialModel>(
          std::vector<double>{c == 0 ? 1.0 : 1'000.0, 0.0}));
      slot.candidates.push_back(Candidate{"c" + std::to_string(c),
                                          models.back().get(), 1.0});
    }
    slot.workload = {{100.0, 1.0}};
    opt.add_slot(std::move(slot));
  }
  AssemblyOptimizer::SearchStats stats;
  const auto best = opt.best(0.0, &stats);
  for (int s = 0; s < 6; ++s)
    EXPECT_EQ(best.selection.at("F" + std::to_string(s)), "c0");
  EXPECT_GT(stats.subtrees_pruned, 0u);
  EXPECT_LT(stats.leaves_evaluated, opt.assembly_count());
}

// --- joint assembly x ranks x threads search ---------------------------------

using core::PatternConfig;
using core::PatternModel;

/// A tree with `nslots` slot leaves under the fig01 shape
/// (RankReplicated(Serial(MapParallel(Scale(Serial(slots..., fixed)),
/// alpha), Const))), plus the optimizer wired with matching slots whose
/// candidate models come from `make_model(slot, cand)`.
struct JointFixture {
  PatternModel tree;
  AssemblyOptimizer opt;
  std::vector<std::unique_ptr<core::PolynomialModel>> models;

  JointFixture(int nslots, int ncands, std::mt19937& rng) {
    std::uniform_real_distribution<double> coeff(0.5, 20.0);
    std::uniform_real_distribution<double> acc(0.6, 1.0);
    std::vector<PatternModel::NodeId> leaves;
    core::LeafScaling s;
    s.ref_q = 100.0;
    s.count_q_exp = 1.0;
    s.count_ranks_exp = 1.0;
    for (int i = 0; i < nslots; ++i) {
      const PatternModel::Workload work = {{100.0, 3.0}, {220.0, 1.0}};
      Slot slot;
      slot.functionality = "F" + std::to_string(i);
      slot.workload = work;
      for (int c = 0; c < ncands; ++c) {
        models.push_back(std::make_unique<core::PolynomialModel>(
            std::vector<double>{coeff(rng), coeff(rng) / 100.0}));
        slot.candidates.push_back(Candidate{
            "c" + std::to_string(c), models.back().get(), acc(rng)});
      }
      leaves.push_back(
          tree.slot_leaf(slot.candidates[0].time_model, work, s));
      opt.add_slot(std::move(slot));
    }
    models.push_back(std::make_unique<core::PolynomialModel>(
        std::vector<double>{4.0, 0.02}));
    leaves.push_back(tree.leaf(models.back().get(), {{100.0, 2.0}}, s));
    const auto inner = tree.scale(tree.serial(std::move(leaves)), 1.3);
    const auto lanes = tree.map_parallel(inner, 0.35);
    const auto per_rank =
        tree.serial({lanes, tree.fork_join(1.5), tree.constant(25.0)});
    tree.set_root(tree.rank_replicated(per_rank, 8.0));
  }
};

TEST(JointOptimizer, MatchesExhaustiveAcrossRandomInstances) {
  std::mt19937 rng(0xc0ffee);
  const std::vector<int> ranks_grid = {1, 2, 4, 8};
  const std::vector<int> threads_grid = {1, 2, 4};
  for (int trial = 0; trial < 12; ++trial) {
    std::uniform_int_distribution<int> ns(1, 3), nc(1, 4);
    JointFixture f(ns(rng), nc(rng), rng);
    for (double w : {0.0, 0.5, 3.0}) {
      AssemblyOptimizer::SearchStats stats;
      const auto bb = f.opt.best_joint(f.tree, PatternConfig{150.0}, ranks_grid,
                                       threads_grid, w, &stats);
      const auto ex = f.opt.best_joint_exhaustive(f.tree, PatternConfig{150.0},
                                                  ranks_grid, threads_grid, w);
      EXPECT_EQ(bb.selection, ex.selection);
      EXPECT_EQ(bb.ranks, ex.ranks);
      EXPECT_EQ(bb.threads, ex.threads);
      EXPECT_DOUBLE_EQ(bb.predicted_us, ex.predicted_us);
      EXPECT_DOUBLE_EQ(bb.cost, ex.cost);
      EXPECT_DOUBLE_EQ(bb.min_accuracy, ex.min_accuracy);
      // Stats sanity: every configuration's DFS reaches at least one leaf,
      // and pruning never exceeds visited nodes.
      EXPECT_GE(stats.leaves_evaluated, 1u);
      EXPECT_LE(stats.subtrees_pruned, stats.nodes_visited);
    }
  }
}

TEST(JointOptimizer, PrefersMoreRanksWhenCollectivesAreFree) {
  // With beta = gamma = 0 the per-rank time strictly shrinks with P, so
  // the largest rank count (and lane count) must win.
  std::mt19937 rng(7);
  JointFixture f(2, 2, rng);
  f.tree.set_coefficient(f.tree.root(), 0.0);  // beta
  const auto best = f.opt.best_joint(f.tree, PatternConfig{100.0}, {1, 2, 4},
                                     {1, 2}, 0.0);
  EXPECT_EQ(best.ranks, 4);
  EXPECT_EQ(best.threads, 2);
}

TEST(JointOptimizer, TieBreaksToEarliestGridPoint) {
  // A tree that ignores ranks and threads entirely: every grid point
  // predicts the same time, so the first (ranks-major) point must win.
  PatternModel t;
  core::PolynomialModel flat{{10.0, 0.0}};
  const auto leaf = t.slot_leaf(&flat, {{100.0, 1.0}});
  t.set_root(leaf);
  AssemblyOptimizer opt;
  Slot s;
  s.functionality = "F";
  s.candidates = {Candidate{"a", &flat, 1.0}, Candidate{"b", &flat, 1.0}};
  s.workload = {{100.0, 1.0}};
  opt.add_slot(std::move(s));
  const auto best = opt.best_joint(t, PatternConfig{100.0}, {4, 2}, {2, 1});
  EXPECT_EQ(best.ranks, 4);  // grid order, not numeric order
  EXPECT_EQ(best.threads, 2);
  EXPECT_EQ(best.selection.at("F"), "a");
  const auto ex =
      opt.best_joint_exhaustive(t, PatternConfig{100.0}, {4, 2}, {2, 1});
  EXPECT_EQ(ex.ranks, 4);
  EXPECT_EQ(ex.threads, 2);
  EXPECT_EQ(ex.selection.at("F"), "a");
}

TEST(JointOptimizer, SlotCountMismatchIsRejected) {
  PatternModel t;
  core::PolynomialModel flat{{10.0, 0.0}};
  t.set_root(t.leaf(&flat, {{100.0, 1.0}}));  // zero slot leaves
  AssemblyOptimizer opt;
  Slot s;
  s.functionality = "F";
  s.candidates = {Candidate{"a", &flat, 1.0}};
  s.workload = {{100.0, 1.0}};
  opt.add_slot(std::move(s));
  EXPECT_THROW(
      (void)opt.best_joint(t, PatternConfig{100.0}, {1}, {1}),
      ccaperf::Error);
  EXPECT_THROW(
      (void)opt.best_joint_exhaustive(t, PatternConfig{100.0}, {1}, {1}),
      ccaperf::Error);
}

TEST(Optimizer, NegativeModelPredictionsClampToZero) {
  // Linear fits can go negative at small Q (the paper's -963 + 0.315 Q);
  // the composite cost must not reward that.
  core::PolynomialModel negative{{-963.0, 0.315}};
  Slot s;
  s.functionality = "F";
  s.candidates = {Candidate{"C", &negative, 1.0}};
  s.workload = {{10.0, 100.0}};  // predict(10) < 0
  AssemblyOptimizer opt;
  opt.add_slot(s);
  EXPECT_DOUBLE_EQ(opt.best().predicted_time_us, 0.0);
}

}  // namespace
