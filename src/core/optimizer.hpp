#pragma once
// Component assembly optimization (paper §2/§6; Furmento et al.'s
// approach adapted to CCA): "With n components, each having Ci
// implementations, there is a total of prod(Ci) implementations to choose
// from. ... The implementation with the lowest execution time or lowest
// cost is then selected." The composite model is the dual-graph cost
// function with a variable per slot; evaluating a choice substitutes the
// implementation's performance model.
//
// Quality of Service: "the performance of a component implementation
// would be viewed with respect to the size of the problem as well as the
// quality of the solution produced by it" — the cost function optionally
// penalizes inaccurate implementations via `accuracy_weight`.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/modeling.hpp"
#include "core/pattern_model.hpp"

namespace core {

/// One candidate implementation of a functionality slot.
struct Candidate {
  std::string class_name;
  const PerfModel* time_model = nullptr;  ///< per-invocation time vs Q
  double accuracy = 1.0;                  ///< QoS score in [0, 1]
};

/// A replaceable position in the assembly: every candidate provides the
/// same port type; the workload is `invocations` calls at sizes `qs`
/// (typically the distinct patch sizes seen by the call path, each with
/// its own count).
struct Slot {
  std::string functionality;  ///< e.g. "FluxPort"
  std::vector<Candidate> candidates;
  /// Workload: (Q, number of invocations at that Q).
  std::vector<std::pair<double, double>> workload;
};

/// One fully specified assembly and its evaluation.
struct AssemblyChoice {
  std::map<std::string, std::string> selection;  ///< slot -> class name
  double predicted_time_us = 0.0;
  double min_accuracy = 1.0;
  /// cost = time * (1 + w * (1 - min_accuracy)): pure time at w = 0,
  /// increasingly accuracy-dominated as w grows.
  double cost = 0.0;
};

class AssemblyOptimizer {
 public:
  /// `fixed_time_us`: predicted time of the non-replaceable rest of the
  /// dual (it shifts every choice equally but keeps costs interpretable).
  explicit AssemblyOptimizer(double fixed_time_us = 0.0)
      : fixed_time_us_(fixed_time_us) {}

  void add_slot(Slot slot);

  /// Evaluates all prod(Ci) assemblies at the given QoS weight, best
  /// (lowest cost) first. The sort is stable: equal-cost assemblies keep
  /// enumeration order, which is lexicographic in the candidate indices
  /// with slot 0 most significant, so front() is the selection and ties
  /// go to the lowest candidate indices in slot insertion order.
  std::vector<AssemblyChoice> evaluate_all(double accuracy_weight = 0.0) const;

  // --- joint assembly x ranks x threads selection (DESIGN.md §13) ------------
  // The per-slot time sum above cannot rank *configurations*: a rank or
  // lane count changes every term at once. The joint selection evaluates
  // candidates through a composed PatternModel instead — slot i of the
  // optimizer binds to slot leaf i of the tree (creation order on both
  // sides), and a candidate substitutes its time model into that leaf.
  // `fixed_time_us` is ignored here: the tree models the whole app.

  /// One fully specified (assembly, ranks, threads) point.
  struct JointChoice {
    std::map<std::string, std::string> selection;  ///< slot -> class name
    int ranks = 1;
    int threads = 1;
    double predicted_us = 0.0;  ///< tree.predict at the chosen point
    double min_accuracy = 1.0;
    double cost = 0.0;  ///< predicted_us * (1 + w * (1 - min_accuracy))
  };

  /// Best (assembly, ranks, threads) by enumerating every assembly at
  /// every grid point: configurations in grid order (ranks major, threads
  /// minor), assemblies within each in evaluate_all's order. Ties go to
  /// the earliest grid point, then the lowest candidate indices.
  /// `base.q` supplies the problem size; base.ranks/threads are ignored.
  /// Requires tree.slot_count() == the number of added slots.
  JointChoice best_joint(const PatternModel& tree, const PatternConfig& base,
                         const std::vector<int>& ranks_grid,
                         const std::vector<int>& threads_grid,
                         double accuracy_weight = 0.0) const;

 private:
  AssemblyChoice make_choice(const std::vector<std::size_t>& pick,
                             double accuracy_weight) const;

  double fixed_time_us_;
  std::vector<Slot> slots_;
};

}  // namespace core
