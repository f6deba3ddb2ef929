#pragma once
// core::PatternModel — compositional performance models over parallel
// patterns (DESIGN.md §13; ROADMAP "compositional performance models").
//
// The paper fits per-method models T(Q) and evaluates one assembly at the
// configurations it measured. This module composes those fitted models
// over the *structure* of the application — a recursive tree of pattern
// nodes — so the Mastermind can predict wall time at rank counts, thread
// lane counts and problem sizes it never ran:
//
//   Serial(c1..cn)        = sum_i T(ci)            sequenced stages
//   Pipeline(c1..cn)      = max_i T(ci)            throughput-bound stages
//   MapParallel(c; a)     = T(c) (1 + a (L-1)) / L the thread-lane pattern:
//                           span/lanes plus an imbalance term (a = 0 ideal
//                           speedup, a = 1 fully serialized lanes)
//   RankReplicated(c; b)  = T(c) + b ceil(log2 P)  per-rank cost plus the
//                           O(log P) tree-collective term (DESIGN.md §10)
//   ForkJoin(o)           = o ceil(log2 L)         waking and joining L lanes:
//                           a parallel region ends when its last woken lane
//                           does, and the expected last of L wake-ups grows
//                           as log L
//   Scale(c; k)           = k T(c)                 unmonitored work riding
//                           proportionally on monitored work
//   Const(g)              = g                      fixed per-step overhead
//   Leaf(model, workload) = sum_j n_j max(0, model(q_j))
//
// Leaves wrap fitted PerfModels (streaming or batch, PR 2) applied to a
// workload {(q_j, n_j)} captured from Mastermind records; LeafScaling
// extrapolates the workload to unmeasured problem sizes and rank counts.
// Slot leaves additionally register with the joint AssemblyOptimizer
// search (optimizer.hpp): their model is substituted per candidate.
//
// Free coefficients (a, b, k, g, o) are calibrated against measured end-to-end
// runs by linear least squares: predict() is affine in each coefficient,
// so probing the tree with unit coefficients recovers the design matrix
// (calibrate() verifies the affinity numerically and rejects free sets
// with product terms, e.g. a Scale nested under a free-imbalance
// MapParallel — calibrate such trees in stages).
//
// The tree is an arena (nodes are indices into one vector): no virtual
// dispatch, cheap to copy, and the joint optimizer's branch-and-bound can
// re-evaluate predict() thousands of times without allocation.

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "core/modeling.hpp"

namespace core {

/// The configuration axes a prediction is made at.
struct PatternConfig {
  double q = 0.0;   ///< problem size (fig01: base-domain cell count)
  int ranks = 1;    ///< SCMD rank count P
  int threads = 1;  ///< worker lanes per rank L (CCAPERF_THREADS)
};

/// How a leaf's measured workload {(q_j, n_j)} extrapolates to an
/// unmeasured configuration. Effective workload at cfg:
///   n_eff = n_j * (cfg.q / ref_q)^count_q_exp * (ref_ranks / P)^count_ranks_exp
///   q_eff = q_j * (cfg.q / ref_q)^q_q_exp
/// Defaults leave the workload fixed. fig01 leaves use count_q_exp = 1
/// (a bigger domain means proportionally more patches of the same sizes
/// — the regridder's clustering caps patch size) and count_ranks_exp = 1
/// (the recorded workload is the global per-step work, divided evenly
/// across ranks by the load balancer).
struct LeafScaling {
  double ref_q = 1.0;
  double ref_ranks = 1.0;
  double count_q_exp = 0.0;
  double count_ranks_exp = 0.0;
  double q_q_exp = 0.0;
};

class PatternModel {
 public:
  using NodeId = std::size_t;
  static constexpr NodeId kNoNode = static_cast<NodeId>(-1);

  enum class Kind {
    leaf,
    serial,
    pipeline,
    map_parallel,
    rank_replicated,
    scale,
    constant,
    fork_join
  };

  /// (q_j, n_j): n_j invocations at parameter value q_j.
  using Workload = std::vector<std::pair<double, double>>;

  // --- tree construction -----------------------------------------------------
  // Builders return the new node's id; set_root() names the tree's top.
  // Children must already exist (ids only grow), so trees build bottom-up
  // and cycles are unrepresentable.

  /// Leaf over a fitted model. `variance_us2` is the per-invocation
  /// residual variance of the fit (see StreamingPolyFit::mean_sq_residual),
  /// composed bottom-up by predict_interval().
  NodeId leaf(const PerfModel* model, Workload workload,
              LeafScaling scaling = {}, double variance_us2 = 0.0);

  /// Leaf whose model is substituted per candidate by the joint optimizer
  /// search. `default_model` serves plain predict() calls. Slot ordinals
  /// follow creation order (slot_count()).
  NodeId slot_leaf(const PerfModel* default_model, Workload workload,
                   LeafScaling scaling = {}, double variance_us2 = 0.0);

  NodeId serial(std::vector<NodeId> children);
  NodeId pipeline(std::vector<NodeId> children);
  /// `alpha` in [0, 1]: imbalance (0 = perfect speedup, 1 = serialized).
  NodeId map_parallel(NodeId child, double alpha);
  /// `beta_us`: cost per tree-collective hop, times ceil(log2 P).
  NodeId rank_replicated(NodeId child, double beta_us);
  NodeId scale(NodeId child, double kappa);
  NodeId constant(double value_us);
  /// `cost_us`: cost per doubling of the lane count, times ceil(log2 L).
  NodeId fork_join(double cost_us);

  void set_root(NodeId id);
  NodeId root() const { return root_; }
  std::size_t node_count() const { return nodes_.size(); }
  Kind kind(NodeId id) const { return nodes_.at(id).kind; }

  /// Takes ownership of a fitted model (lifetime convenience: leaves store
  /// raw pointers). Returns the borrowed pointer to pass to leaf().
  const PerfModel* adopt(std::unique_ptr<PerfModel> model);

  // --- coefficients ----------------------------------------------------------
  // Every non-leaf pattern carries one scalar coefficient: alpha for
  // MapParallel, beta for RankReplicated, kappa for Scale, the value for
  // Const, the cost for ForkJoin (Serial/Pipeline have none). These are
  // the calibration targets.

  double coefficient(NodeId id) const;
  void set_coefficient(NodeId id, double value);

  // --- prediction ------------------------------------------------------------

  /// Predicted time (us) at cfg, composed bottom-up from the root.
  double predict(const PatternConfig& cfg) const;

  /// Same, with slot leaf i forced to the precomputed value
  /// slot_values[i] (the joint optimizer's inner loop). predict() is
  /// monotone non-decreasing in every slot value — the property the
  /// branch-and-bound bound relies on.
  double predict_with_slot_values(const PatternConfig& cfg,
                                  const std::vector<double>& slot_values) const;

  /// A slot leaf's value under a specific candidate model (what
  /// predict() would charge that leaf if the candidate were wired in).
  double slot_value(std::size_t slot, const PatternConfig& cfg,
                    const PerfModel& model) const;

  std::size_t slot_count() const { return slots_.size(); }
  NodeId slot_node(std::size_t slot) const { return slots_.at(slot); }

  /// Mean prediction plus a one-sigma band from the leaves' fit-residual
  /// variances: Serial sums variances, Pipeline takes the argmax child's,
  /// MapParallel/Scale square their multipliers, Const/collective/fork-join
  /// terms are exact. A leaf's workload multiplies its per-invocation variance
  /// by sum n_j^2 (independent-residual assumption).
  struct Interval {
    double mean_us = 0.0;
    double stddev_us = 0.0;
  };
  Interval predict_interval(const PatternConfig& cfg) const;

  // --- calibration -----------------------------------------------------------

  /// One observed end-to-end point. `weight` scales the point's residual
  /// in the least-squares objective (unweighted by default): the fig01
  /// harness weights each point by 1 / its observed time, so the fit
  /// minimizes relative residuals.
  struct Observation {
    PatternConfig cfg;
    double observed_us = 0.0;
    double weight = 1.0;
  };

  /// Result of a calibrate() call.
  struct CalibrationReport {
    std::vector<double> fitted;  ///< per free node, in argument order
    double rms_residual_us = 0.0;
    double max_rel_err = 0.0;  ///< on the training points themselves
  };

  /// Fits the coefficients of `free_nodes` to the observations by linear
  /// least squares and installs them (clamped to >= 0; MapParallel alpha
  /// additionally clamped to <= 1.5 so lane scaling stays near-physical).
  /// Requires predict() to be *jointly* affine in the free coefficients —
  /// verified numerically; nest-dependent free sets (a Scale under a free
  /// MapParallel) must calibrate in stages. Needs observations.size() >=
  /// free_nodes.size().
  CalibrationReport calibrate(const std::vector<Observation>& obs,
                              const std::vector<NodeId>& free_nodes);

  /// Human-readable one-line-per-node dump (tests and bench logs).
  std::string describe() const;

 private:
  struct Node {
    Kind kind = Kind::constant;
    std::vector<NodeId> children;
    const PerfModel* model = nullptr;  // leaves
    Workload workload;                 // leaves
    LeafScaling scaling;               // leaves
    double variance_us2 = 0.0;         // leaves: per-invocation residual var
    double coeff = 0.0;    // alpha | beta | kappa | const value | fork-join cost
    std::size_t slot = static_cast<std::size_t>(-1);  // slot leaves
  };

  NodeId add(Node n);
  const Node& at(NodeId id) const;
  double leaf_value(const Node& n, const PatternConfig& cfg,
                    const PerfModel& model) const;
  double eval(NodeId id, const PatternConfig& cfg,
              const std::vector<double>* slot_values) const;
  double eval_var(NodeId id, const PatternConfig& cfg) const;

  std::vector<Node> nodes_;
  std::vector<NodeId> slots_;
  // shared_ptr so tree copies (the joint search and tests take them)
  // share the immutable fitted models instead of forbidding copy.
  std::vector<std::shared_ptr<PerfModel>> owned_;
  NodeId root_ = kNoNode;
};

}  // namespace core
