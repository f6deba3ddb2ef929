#include "core/pattern_model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "support/error.hpp"

namespace core {

namespace {

/// ceil(log2 n) for n >= 1: the dissemination-barrier / Bruck round count
/// of the tree collectives over n ranks (DESIGN.md §10), and the lane
/// doublings of a fork-join over n lanes.
double log2_rounds(int n) {
  CCAPERF_REQUIRE(n >= 1, "PatternModel: ranks and threads >= 1");
  int rounds = 0;
  for (int span = 1; span < n; span *= 2) ++rounds;
  return static_cast<double>(rounds);
}

double pow_or_one(double base, double exp) {
  if (exp == 0.0) return 1.0;
  if (exp == 1.0) return base;
  return std::pow(base, exp);
}

const char* kind_name(PatternModel::Kind kind) {
  switch (kind) {
    case PatternModel::Kind::leaf: return "leaf";
    case PatternModel::Kind::serial: return "serial";
    case PatternModel::Kind::pipeline: return "pipeline";
    case PatternModel::Kind::map_parallel: return "map_parallel";
    case PatternModel::Kind::rank_replicated: return "rank_replicated";
    case PatternModel::Kind::scale: return "scale";
    case PatternModel::Kind::constant: return "constant";
    case PatternModel::Kind::fork_join: return "fork_join";
  }
  return "unknown";
}

}  // namespace

PatternModel::NodeId PatternModel::add(Node n) {
  nodes_.push_back(std::move(n));
  return nodes_.size() - 1;
}

const PatternModel::Node& PatternModel::at(NodeId id) const {
  CCAPERF_REQUIRE(id < nodes_.size(), "PatternModel: bad node id");
  return nodes_[id];
}

PatternModel::NodeId PatternModel::leaf(const PerfModel* model, Workload workload,
                                        LeafScaling scaling) {
  CCAPERF_REQUIRE(model != nullptr, "PatternModel::leaf: null model");
  Node n;
  n.kind = Kind::leaf;
  n.model = model;
  n.workload = std::move(workload);
  n.scaling = scaling;
  return add(std::move(n));
}

PatternModel::NodeId PatternModel::slot_leaf(const PerfModel* default_model,
                                             Workload workload, LeafScaling scaling) {
  Node n;
  n.kind = Kind::leaf;
  n.model = default_model;  // may be null: plain predict() then rejects
  n.workload = std::move(workload);
  n.scaling = scaling;
  n.slot = slots_.size();
  const NodeId id = add(std::move(n));
  slots_.push_back(id);
  return id;
}

PatternModel::NodeId PatternModel::serial(std::vector<NodeId> children) {
  CCAPERF_REQUIRE(!children.empty(), "PatternModel::serial: no children");
  for (NodeId c : children)
    CCAPERF_REQUIRE(c < nodes_.size(), "PatternModel::serial: bad child");
  Node n;
  n.kind = Kind::serial;
  n.children = std::move(children);
  return add(std::move(n));
}

PatternModel::NodeId PatternModel::pipeline(std::vector<NodeId> children) {
  CCAPERF_REQUIRE(!children.empty(), "PatternModel::pipeline: no children");
  for (NodeId c : children)
    CCAPERF_REQUIRE(c < nodes_.size(), "PatternModel::pipeline: bad child");
  Node n;
  n.kind = Kind::pipeline;
  n.children = std::move(children);
  return add(std::move(n));
}

PatternModel::NodeId PatternModel::map_parallel(NodeId child, double alpha) {
  CCAPERF_REQUIRE(child < nodes_.size(), "PatternModel::map_parallel: bad child");
  CCAPERF_REQUIRE(alpha >= 0.0, "PatternModel::map_parallel: alpha >= 0");
  Node n;
  n.kind = Kind::map_parallel;
  n.children = {child};
  n.coeff = alpha;
  return add(std::move(n));
}

PatternModel::NodeId PatternModel::rank_replicated(NodeId child, double beta_us) {
  CCAPERF_REQUIRE(child < nodes_.size(), "PatternModel::rank_replicated: bad child");
  CCAPERF_REQUIRE(beta_us >= 0.0, "PatternModel::rank_replicated: beta >= 0");
  Node n;
  n.kind = Kind::rank_replicated;
  n.children = {child};
  n.coeff = beta_us;
  return add(std::move(n));
}

PatternModel::NodeId PatternModel::scale(NodeId child, double kappa) {
  CCAPERF_REQUIRE(child < nodes_.size(), "PatternModel::scale: bad child");
  CCAPERF_REQUIRE(kappa >= 0.0, "PatternModel::scale: kappa >= 0");
  Node n;
  n.kind = Kind::scale;
  n.children = {child};
  n.coeff = kappa;
  return add(std::move(n));
}

PatternModel::NodeId PatternModel::constant(double value_us) {
  CCAPERF_REQUIRE(value_us >= 0.0, "PatternModel::constant: value >= 0");
  Node n;
  n.kind = Kind::constant;
  n.coeff = value_us;
  return add(std::move(n));
}

PatternModel::NodeId PatternModel::fork_join(double cost_us) {
  CCAPERF_REQUIRE(cost_us >= 0.0, "PatternModel::fork_join: cost >= 0");
  Node n;
  n.kind = Kind::fork_join;
  n.coeff = cost_us;
  return add(std::move(n));
}

void PatternModel::set_root(NodeId id) {
  CCAPERF_REQUIRE(id < nodes_.size(), "PatternModel::set_root: bad node");
  root_ = id;
}

const PerfModel* PatternModel::adopt(std::unique_ptr<PerfModel> model) {
  CCAPERF_REQUIRE(model != nullptr, "PatternModel::adopt: null model");
  owned_.push_back(std::move(model));
  return owned_.back().get();
}

double PatternModel::coefficient(NodeId id) const {
  const Node& n = at(id);
  CCAPERF_REQUIRE(n.kind != Kind::leaf && n.kind != Kind::serial &&
                      n.kind != Kind::pipeline,
                  "PatternModel::coefficient: node kind has no coefficient");
  return n.coeff;
}

void PatternModel::set_coefficient(NodeId id, double value) {
  CCAPERF_REQUIRE(value >= 0.0, "PatternModel::set_coefficient: value >= 0");
  const Node& check = at(id);
  CCAPERF_REQUIRE(check.kind != Kind::leaf && check.kind != Kind::serial &&
                      check.kind != Kind::pipeline,
                  "PatternModel::set_coefficient: node kind has no coefficient");
  nodes_[id].coeff = value;
}

double PatternModel::leaf_value(const Node& n, const PatternConfig& cfg,
                                const PerfModel& model) const {
  const LeafScaling& s = n.scaling;
  CCAPERF_REQUIRE(s.ref_q > 0.0 && s.ref_ranks > 0.0,
                  "PatternModel: leaf scaling refs must be positive");
  const double count_factor =
      pow_or_one(cfg.q / s.ref_q, s.count_q_exp) *
      pow_or_one(s.ref_ranks / static_cast<double>(cfg.ranks), s.count_ranks_exp);
  const double q_factor = pow_or_one(cfg.q / s.ref_q, s.q_q_exp);
  double total = 0.0;
  for (const auto& [q, count] : n.workload)
    total += count * count_factor * std::max(0.0, model.predict(q * q_factor));
  return total;
}

double PatternModel::eval(NodeId id, const PatternConfig& cfg,
                          const std::vector<double>* slot_values) const {
  const Node& n = at(id);
  switch (n.kind) {
    case Kind::leaf: {
      if (n.slot != static_cast<std::size_t>(-1) && slot_values != nullptr) {
        CCAPERF_REQUIRE(n.slot < slot_values->size(),
                        "PatternModel: slot values too short");
        return (*slot_values)[n.slot];
      }
      CCAPERF_REQUIRE(n.model != nullptr,
                      "PatternModel: slot leaf predicted without a model");
      return leaf_value(n, cfg, *n.model);
    }
    case Kind::serial: {
      double sum = 0.0;
      for (NodeId c : n.children) sum += eval(c, cfg, slot_values);
      return sum;
    }
    case Kind::pipeline: {
      double best = 0.0;
      for (NodeId c : n.children) best = std::max(best, eval(c, cfg, slot_values));
      return best;
    }
    case Kind::map_parallel: {
      CCAPERF_REQUIRE(cfg.threads >= 1, "PatternModel: threads >= 1");
      const double lanes = static_cast<double>(cfg.threads);
      const double span = eval(n.children[0], cfg, slot_values);
      return span * (1.0 + n.coeff * (lanes - 1.0)) / lanes;
    }
    case Kind::rank_replicated:
      return eval(n.children[0], cfg, slot_values) +
             n.coeff * log2_rounds(cfg.ranks);
    case Kind::scale:
      return n.coeff * eval(n.children[0], cfg, slot_values);
    case Kind::constant:
      return n.coeff;
    case Kind::fork_join:
      return n.coeff * log2_rounds(cfg.threads);
  }
  CCAPERF_REQUIRE(false, "PatternModel: unreachable kind");
  return 0.0;
}

double PatternModel::predict(const PatternConfig& cfg) const {
  CCAPERF_REQUIRE(root_ != kNoNode, "PatternModel: no root set");
  return eval(root_, cfg, nullptr);
}

double PatternModel::predict_with_slot_values(
    const PatternConfig& cfg, const std::vector<double>& slot_values) const {
  CCAPERF_REQUIRE(root_ != kNoNode, "PatternModel: no root set");
  CCAPERF_REQUIRE(slot_values.size() == slots_.size(),
                  "PatternModel: slot value count mismatch");
  return eval(root_, cfg, &slot_values);
}

double PatternModel::slot_value(std::size_t slot, const PatternConfig& cfg,
                                const PerfModel& model) const {
  CCAPERF_REQUIRE(slot < slots_.size(), "PatternModel::slot_value: bad slot");
  return leaf_value(at(slots_[slot]), cfg, model);
}

PatternModel::CalibrationReport PatternModel::calibrate(
    const std::vector<Observation>& obs, const std::vector<NodeId>& free_nodes) {
  const std::size_t k = free_nodes.size();
  CCAPERF_REQUIRE(k >= 1, "PatternModel::calibrate: no free nodes");
  CCAPERF_REQUIRE(obs.size() >= k, "PatternModel::calibrate: need >= k observations");

  // Save the current coefficients; probing overwrites them.
  std::vector<double> saved(k);
  for (std::size_t j = 0; j < k; ++j) saved[j] = coefficient(free_nodes[j]);
  const auto restore = [&] {
    for (std::size_t j = 0; j < k; ++j) set_coefficient(free_nodes[j], saved[j]);
  };

  // predict(cfg) = base(cfg) + sum_j col_j(cfg) * theta_j when jointly
  // affine: base probes all-zero, col_j probes unit theta_j.
  const std::size_t m = obs.size();
  std::vector<double> base(m), cols(m * k);
  for (std::size_t j = 0; j < k; ++j) set_coefficient(free_nodes[j], 0.0);
  for (std::size_t i = 0; i < m; ++i) base[i] = predict(obs[i].cfg);
  for (std::size_t j = 0; j < k; ++j) {
    set_coefficient(free_nodes[j], 1.0);
    for (std::size_t i = 0; i < m; ++i)
      cols[i * k + j] = predict(obs[i].cfg) - base[i];
    set_coefficient(free_nodes[j], 0.0);
  }
  // A coefficient that moves no observation cannot be identified (e.g. an
  // imbalance alpha over a Scale probed at kappa = 0): name it rather than
  // leave the solve to fail on a column of the reduced system.
  for (std::size_t j = 0; j < k; ++j) {
    bool moves = false;
    for (std::size_t i = 0; i < m && !moves; ++i) moves = cols[i * k + j] != 0.0;
    if (moves) continue;
    restore();
    CCAPERF_REQUIRE(false, "PatternModel::calibrate: free coefficient " +
                               std::to_string(j) + " (" +
                               kind_name(at(free_nodes[j]).kind) +
                               ") changes no observation's prediction, so it "
                               "cannot be identified");
  }

  // Bounded least squares by active set: pattern semantics require every
  // coefficient >= 0 (and a MapParallel imbalance <= 1.5 — much above 1
  // stops being a lane model). Naively clamping a joint solution is
  // inconsistent — two coefficients that cancel at the training points
  // (a negative beta balancing a positive gamma, say) leave a wildly
  // biased survivor once one is clamped. Instead, whenever the
  // unconstrained solve violates a bound, pin the worst violator at its
  // bound and re-solve the reduced system, until the solution is
  // feasible (classic NNLS active-set; terminates in <= k rounds).
  const double kAlphaMax = 1.5;
  std::vector<double> theta(k, 0.0);
  std::vector<bool> pinned(k, false);
  try {
    for (std::size_t round = 0; round <= k; ++round) {
      std::vector<std::size_t> free_idx;
      for (std::size_t j = 0; j < k; ++j)
        if (!pinned[j]) free_idx.push_back(j);
      if (free_idx.empty()) break;
      const std::size_t f = free_idx.size();
      // Normal equations over the free coefficients (weighted least
      // squares: each point's squared residual scales by weight^2);
      // pinned coefficients contribute theta_j * col_j to the target.
      std::vector<double> xtx(f * f, 0.0), xty(f, 0.0);
      for (std::size_t i = 0; i < m; ++i) {
        const double w2 = obs[i].weight * obs[i].weight;
        double y = obs[i].observed_us - base[i];
        for (std::size_t j = 0; j < k; ++j)
          if (pinned[j]) y -= cols[i * k + j] * theta[j];
        for (std::size_t r = 0; r < f; ++r) {
          xty[r] += w2 * cols[i * k + free_idx[r]] * y;
          for (std::size_t c = 0; c < f; ++c)
            xtx[r * f + c] +=
                w2 * cols[i * k + free_idx[r]] * cols[i * k + free_idx[c]];
        }
      }
      const std::vector<double> sol =
          solve_linear_system(std::move(xtx), std::move(xty), f,
                              "PatternModel::calibrate");
      // Find the worst bound violation among the free coefficients.
      std::size_t worst = k;
      double worst_by = 0.0, worst_at = 0.0;
      for (std::size_t r = 0; r < f; ++r) {
        const std::size_t j = free_idx[r];
        theta[j] = sol[r];
        const bool is_alpha = at(free_nodes[j]).kind == Kind::map_parallel;
        const double lo_by = -sol[r];
        const double hi_by = is_alpha ? sol[r] - kAlphaMax : -1.0;
        if (lo_by > worst_by) { worst = j; worst_by = lo_by; worst_at = 0.0; }
        if (hi_by > worst_by) { worst = j; worst_by = hi_by; worst_at = kAlphaMax; }
      }
      if (worst == k) break;  // feasible: done
      pinned[worst] = true;
      theta[worst] = worst_at;
    }
  } catch (...) {
    // A degenerate free set (e.g. two coefficients with proportional probe
    // columns) makes the system singular; restore the saved coefficients
    // before letting the error out.
    restore();
    throw;
  }
  for (std::size_t j = 0; j < k; ++j) set_coefficient(free_nodes[j], theta[j]);

  // Affinity check: the installed coefficients must reproduce the linear
  // combination (a nonlinear free set — e.g. a Scale nested under a free
  // MapParallel — breaks superposition and must calibrate in stages).
  CalibrationReport report;
  report.fitted = theta;
  double ss = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    double linear = base[i];
    for (std::size_t j = 0; j < k; ++j) linear += cols[i * k + j] * theta[j];
    const double direct = predict(obs[i].cfg);
    const double scale_ref = std::max({std::abs(direct), std::abs(linear), 1e-9});
    if (std::abs(direct - linear) > 1e-6 * scale_ref) {
      restore();
      CCAPERF_REQUIRE(false,
                      "PatternModel::calibrate: predict is not jointly affine in "
                      "the free coefficients (calibrate in stages)");
    }
    const double err = obs[i].observed_us - direct;
    ss += err * err;
    if (obs[i].observed_us > 0.0)
      report.max_rel_err =
          std::max(report.max_rel_err, std::abs(err) / obs[i].observed_us);
  }
  report.rms_residual_us = std::sqrt(ss / static_cast<double>(m));
  return report;
}

std::string PatternModel::describe() const {
  std::ostringstream os;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    os << "#" << id << " ";
    switch (n.kind) {
      case Kind::leaf:
        os << (n.slot != static_cast<std::size_t>(-1) ? "slot-leaf" : "leaf")
           << " (" << n.workload.size() << " workload bins";
        if (n.model != nullptr) os << ", " << n.model->family();
        os << ")";
        break;
      case Kind::serial:
        os << "serial(" << n.children.size() << ")";
        break;
      case Kind::pipeline:
        os << "pipeline(" << n.children.size() << ")";
        break;
      case Kind::map_parallel:
        os << "map-parallel(alpha=" << n.coeff << ")";
        break;
      case Kind::rank_replicated:
        os << "rank-replicated(beta=" << n.coeff << ")";
        break;
      case Kind::scale:
        os << "scale(kappa=" << n.coeff << ")";
        break;
      case Kind::constant:
        os << "const(" << n.coeff << " us)";
        break;
      case Kind::fork_join:
        os << "fork-join(" << n.coeff << " us per lane doubling)";
        break;
    }
    if (id == root_) os << " <- root";
    os << "\n";
  }
  return os.str();
}

}  // namespace core
