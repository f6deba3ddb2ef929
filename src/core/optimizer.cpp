#include "core/optimizer.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace core {

namespace {

double slot_time(const Slot& slot, const Candidate& c) {
  double t = 0.0;
  for (const auto& [q, count] : slot.workload)
    t += count * std::max(0.0, c.time_model->predict(q));
  return t;
}

/// Advances the mixed-radix candidate counter, last slot fastest, so
/// assemblies enumerate lexicographically in the candidate indices with
/// slot 0 most significant — the order the selection tie-break uses.
/// Returns false once every assembly has been visited.
bool next_pick(std::vector<std::size_t>& pick, const std::vector<Slot>& slots) {
  for (std::size_t s = pick.size(); s-- > 0;) {
    if (++pick[s] < slots[s].candidates.size()) return true;
    pick[s] = 0;
  }
  return false;
}

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

void AssemblyOptimizer::add_slot(Slot slot) {
  CCAPERF_REQUIRE(!slot.candidates.empty(), "AssemblyOptimizer: slot without candidates");
  for (const Candidate& c : slot.candidates)
    CCAPERF_REQUIRE(c.time_model != nullptr,
                    "AssemblyOptimizer: candidate '" + c.class_name +
                        "' has no performance model");
  slots_.push_back(std::move(slot));
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
  do {
    results.push_back(make_choice(pick, accuracy_weight));
  } while (next_pick(pick, slots_));

  // stable_sort keeps enumeration order among equal costs.
  std::stable_sort(results.begin(), results.end(),
                   [](const AssemblyChoice& a, const AssemblyChoice& b) {
                     return a.cost < b.cost;
                   });
  return results;
}

AssemblyOptimizer::JointChoice AssemblyOptimizer::best_joint(
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
      do {
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
      } while (next_pick(pick, slots_));
    }
  }
  return best;
}

}  // namespace core
