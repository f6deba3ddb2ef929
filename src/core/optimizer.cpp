#include "core/optimizer.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace core {

void AssemblyOptimizer::add_slot(Slot slot) {
  CCAPERF_REQUIRE(!slot.candidates.empty(), "AssemblyOptimizer: slot without candidates");
  for (const Candidate& c : slot.candidates)
    CCAPERF_REQUIRE(c.time_model != nullptr,
                    "AssemblyOptimizer: candidate '" + c.class_name +
                        "' has no performance model");
  slots_.push_back(std::move(slot));
}

std::size_t AssemblyOptimizer::assembly_count() const {
  std::size_t n = 1;
  for (const Slot& s : slots_) n *= s.candidates.size();
  return n;
}

double AssemblyOptimizer::slot_time(const Slot& slot, const Candidate& c) const {
  double t = 0.0;
  for (const auto& [q, count] : slot.workload)
    t += count * std::max(0.0, c.time_model->predict(q));
  return t;
}

AssemblyChoice AssemblyOptimizer::make_choice(const std::vector<std::size_t>& pick,
                                              double accuracy_weight) const {
  AssemblyChoice choice;
  choice.predicted_time_us = fixed_time_us_;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    const Slot& slot = slots_[s];
    const Candidate& c = slot.candidates[pick[s]];
    choice.selection[slot.functionality] = c.class_name;
    choice.predicted_time_us += slot_time(slot, c);
    choice.min_accuracy = std::min(choice.min_accuracy, c.accuracy);
  }
  choice.cost = choice.predicted_time_us *
                (1.0 + accuracy_weight * (1.0 - choice.min_accuracy));
  return choice;
}

std::vector<AssemblyChoice> AssemblyOptimizer::evaluate_all(
    double accuracy_weight) const {
  CCAPERF_REQUIRE(!slots_.empty(), "AssemblyOptimizer: no slots");
  std::vector<AssemblyChoice> results;
  std::vector<std::size_t> pick(slots_.size(), 0);

  for (;;) {
    results.push_back(make_choice(pick, accuracy_weight));

    // Advance the mixed-radix counter, last slot fastest, so assemblies
    // enumerate in the same lexicographic order the selection tie-break
    // uses (and stable_sort preserves for equal costs).
    std::size_t s = slots_.size();
    while (s-- > 0) {
      if (++pick[s] < slots_[s].candidates.size()) break;
      pick[s] = 0;
    }
    if (s == static_cast<std::size_t>(-1)) break;
  }

  std::stable_sort(results.begin(), results.end(),
                   [](const AssemblyChoice& a, const AssemblyChoice& b) {
                     return a.cost < b.cost;
                   });
  return results;
}

AssemblyChoice AssemblyOptimizer::best(double accuracy_weight,
                                       SearchStats* stats) const {
  CCAPERF_REQUIRE(!slots_.empty(), "AssemblyOptimizer: no slots");
  const std::size_t n = slots_.size();

  // Candidate times are reused across the whole search — one model
  // evaluation per (slot, candidate), not per assembly.
  std::vector<std::vector<double>> times(n);
  std::vector<double> suffix_min(n + 1, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    times[s].reserve(slots_[s].candidates.size());
    for (const Candidate& c : slots_[s].candidates)
      times[s].push_back(slot_time(slots_[s], c));
  }
  for (std::size_t s = n; s-- > 0;)
    suffix_min[s] = suffix_min[s + 1] + *std::min_element(times[s].begin(), times[s].end());

  SearchStats local;
  SearchStats& st = stats != nullptr ? *stats : local;
  st = SearchStats{};

  std::vector<std::size_t> pick(n, 0), best_pick;
  double best_cost = 0.0;
  bool have_best = false;

  // Iterative DFS in lexicographic pick order (slot 0 most significant):
  // the first complete assembly reaching a given cost is also the
  // tie-break winner, so a strict-improvement incumbent update suffices.
  struct Node {
    std::size_t slot;
    std::size_t cand;
    double time_so_far;
    double min_acc;
  };
  std::vector<Node> dfs;
  dfs.reserve(n * 4);
  for (std::size_t c = slots_[0].candidates.size(); c-- > 0;)
    dfs.push_back(Node{0, c, 0.0, 1.0});

  while (!dfs.empty()) {
    const Node node = dfs.back();
    dfs.pop_back();
    ++st.nodes_visited;

    const Slot& slot = slots_[node.slot];
    const double time = node.time_so_far + times[node.slot][node.cand];
    const double min_acc =
        std::min(node.min_acc, slot.candidates[node.cand].accuracy);
    pick[node.slot] = node.cand;

    // Lower bound on any completion: every remaining slot costs at least
    // its cheapest candidate, and the QoS factor only grows as further
    // (possibly less accurate) candidates bind.
    const double factor = 1.0 + accuracy_weight * (1.0 - min_acc);
    const double bound =
        (fixed_time_us_ + time + suffix_min[node.slot + 1]) * factor;
    if (have_best && bound >= best_cost) {
      ++st.subtrees_pruned;
      continue;
    }

    if (node.slot + 1 == n) {
      ++st.leaves_evaluated;
      const double cost = (fixed_time_us_ + time) * factor;
      if (!have_best || cost < best_cost) {
        have_best = true;
        best_cost = cost;
        best_pick = pick;
      }
      continue;
    }
    // Push children in reverse so candidate 0 is explored first.
    for (std::size_t c = slots_[node.slot + 1].candidates.size(); c-- > 0;)
      dfs.push_back(Node{node.slot + 1, c, time, min_acc});
  }

  return make_choice(best_pick, accuracy_weight);
}

// ---------------------------------------------------------------------------
// Joint assembly x ranks x threads search
// ---------------------------------------------------------------------------

namespace {

/// Per-configuration candidate values: values[slot][cand] is what the
/// tree charges slot leaf `slot` under that candidate's model at cfg.
std::vector<std::vector<double>> slot_candidate_values(
    const PatternModel& tree, const PatternConfig& cfg,
    const std::vector<Slot>& slots) {
  std::vector<std::vector<double>> values(slots.size());
  for (std::size_t s = 0; s < slots.size(); ++s) {
    values[s].reserve(slots[s].candidates.size());
    for (const Candidate& c : slots[s].candidates)
      values[s].push_back(tree.slot_value(s, cfg, *c.time_model));
  }
  return values;
}

}  // namespace

AssemblyOptimizer::JointChoice AssemblyOptimizer::best_joint_exhaustive(
    const PatternModel& tree, const PatternConfig& base,
    const std::vector<int>& ranks_grid, const std::vector<int>& threads_grid,
    double accuracy_weight) const {
  CCAPERF_REQUIRE(!ranks_grid.empty() && !threads_grid.empty(),
                  "best_joint: empty configuration grid");
  CCAPERF_REQUIRE(tree.slot_count() == slots_.size(),
                  "best_joint: tree slot leaves != optimizer slots");

  JointChoice best;
  bool have_best = false;
  std::vector<double> values(slots_.size(), 0.0);
  for (int ranks : ranks_grid) {
    for (int threads : threads_grid) {
      PatternConfig cfg = base;
      cfg.ranks = ranks;
      cfg.threads = threads;
      const auto cand_values = slot_candidate_values(tree, cfg, slots_);

      std::vector<std::size_t> pick(slots_.size(), 0);
      for (;;) {
        double min_acc = 1.0;
        for (std::size_t s = 0; s < slots_.size(); ++s) {
          values[s] = cand_values[s][pick[s]];
          min_acc = std::min(min_acc, slots_[s].candidates[pick[s]].accuracy);
        }
        const double predicted = tree.predict_with_slot_values(cfg, values);
        const double cost =
            predicted * (1.0 + accuracy_weight * (1.0 - min_acc));
        // Grid-major, pick-lex enumeration: strict improvement keeps the
        // earliest minimum, which IS the tie-break winner.
        if (!have_best || cost < best.cost) {
          have_best = true;
          best.ranks = ranks;
          best.threads = threads;
          best.predicted_us = predicted;
          best.min_accuracy = min_acc;
          best.cost = cost;
          best.selection.clear();
          for (std::size_t s = 0; s < slots_.size(); ++s)
            best.selection[slots_[s].functionality] =
                slots_[s].candidates[pick[s]].class_name;
        }
        if (slots_.empty()) break;
        std::size_t s = slots_.size();
        while (s-- > 0) {
          if (++pick[s] < slots_[s].candidates.size()) break;
          pick[s] = 0;
        }
        if (s == static_cast<std::size_t>(-1)) break;
      }
    }
  }
  return best;
}

AssemblyOptimizer::JointChoice AssemblyOptimizer::best_joint(
    const PatternModel& tree, const PatternConfig& base,
    const std::vector<int>& ranks_grid, const std::vector<int>& threads_grid,
    double accuracy_weight, SearchStats* stats) const {
  CCAPERF_REQUIRE(!ranks_grid.empty() && !threads_grid.empty(),
                  "best_joint: empty configuration grid");
  CCAPERF_REQUIRE(tree.slot_count() == slots_.size(),
                  "best_joint: tree slot leaves != optimizer slots");
  const std::size_t n = slots_.size();

  SearchStats local;
  SearchStats& st = stats != nullptr ? *stats : local;
  st = SearchStats{};

  JointChoice best;
  bool have_best = false;
  std::vector<std::size_t> pick(n, 0), best_pick(n, 0);
  std::vector<double> values(n, 0.0);

  for (int ranks : ranks_grid) {
    for (int threads : threads_grid) {
      PatternConfig cfg = base;
      cfg.ranks = ranks;
      cfg.threads = threads;
      const auto cand_values = slot_candidate_values(tree, cfg, slots_);
      // Cheapest completion per slot: predict() is monotone non-decreasing
      // in each slot value, so substituting the per-slot minimum bounds
      // every completion of a partial assignment from below.
      std::vector<double> min_value(n, 0.0);
      for (std::size_t s = 0; s < n; ++s)
        min_value[s] =
            *std::min_element(cand_values[s].begin(), cand_values[s].end());

      if (n == 0) {
        ++st.leaves_evaluated;
        const double predicted = tree.predict_with_slot_values(cfg, values);
        if (!have_best || predicted < best.cost) {
          have_best = true;
          best.ranks = ranks;
          best.threads = threads;
          best.predicted_us = predicted;
          best.min_accuracy = 1.0;
          best.cost = predicted;
        }
        continue;
      }

      struct Node {
        std::size_t slot;
        std::size_t cand;
        double min_acc;
      };
      std::vector<Node> dfs;
      dfs.reserve(n * 4);
      for (std::size_t c = slots_[0].candidates.size(); c-- > 0;)
        dfs.push_back(Node{0, c, 1.0});

      while (!dfs.empty()) {
        const Node node = dfs.back();
        dfs.pop_back();
        ++st.nodes_visited;

        const double min_acc = std::min(
            node.min_acc, slots_[node.slot].candidates[node.cand].accuracy);
        pick[node.slot] = node.cand;
        values[node.slot] = cand_values[node.slot][node.cand];
        for (std::size_t s = node.slot + 1; s < n; ++s) values[s] = min_value[s];

        // The QoS factor only grows as further slots bind, so bounding
        // with the factor-so-far stays admissible (as in best()).
        const double factor = 1.0 + accuracy_weight * (1.0 - min_acc);
        const double partial = tree.predict_with_slot_values(cfg, values);
        const double bound = partial * factor;
        if (have_best && bound >= best.cost) {
          ++st.subtrees_pruned;
          continue;
        }

        if (node.slot + 1 == n) {
          ++st.leaves_evaluated;
          // All slots assigned: partial is the exact prediction and the
          // bound the exact cost.
          if (!have_best || bound < best.cost) {
            have_best = true;
            best.ranks = ranks;
            best.threads = threads;
            best.predicted_us = partial;
            best.min_accuracy = min_acc;
            best.cost = bound;
            best_pick = pick;
          }
          continue;
        }
        for (std::size_t c = slots_[node.slot + 1].candidates.size(); c-- > 0;)
          dfs.push_back(Node{node.slot + 1, c, min_acc});
      }
    }
  }

  best.selection.clear();
  for (std::size_t s = 0; s < n; ++s)
    best.selection[slots_[s].functionality] =
        slots_[s].candidates[best_pick[s]].class_name;
  return best;
}

}  // namespace core
