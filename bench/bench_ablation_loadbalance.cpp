// Ablation — load-balancing policy (DESIGN.md design-choice ablation).
//
// AMRMesh "results in load-balancing and domain (re-)decomposition". It
// cuts each new fine level's boxes to the per-rank share
// (amr::split_for_balance) and places them by knapsack/LPT on cell
// counts, its only placement. This bench reports two views of the case-study decomposition on
// 3 ranks, both deterministic (the mesh, the cutting and the min-heap
// placement are), so scripts/bench_gate.py gates them via
// bench/baselines/loadbalance.json: a placement change that worsens the
// decomposition fails CI.
//
//  * Snapshot: the hierarchy after 4 steps, cell-count imbalance (max/mean
//    per rank) per level, under the LPT owners the run installed and under
//    round-robin owners (patch k on rank k mod 3) computed here over the
//    same patch list. The patch set does not depend on the owners: the
//    flags come from the physics, which is identical on any placement, and
//    split_for_balance cuts for LPT.
//  * Stepped: the load that sets the step. Every rank's subcycle-weighted
//    cell updates (a level-l cell is advanced ratio^l times per coarse
//    step) averaged over all steps of a 120-step run with regrids every 4
//    steps, per level and in total; imbalance is max/mean of those means.
//
// Results land in bench_out/loadbalance.json.

#include "bench_common.hpp"
#include "components/app_assembly.hpp"

namespace {

/// Per-level imbalance of the case-study hierarchy after 4 steps: LPT (the
/// owners AMRMesh installed) and round robin (patch k on rank k mod 3).
struct Snapshot {
  std::vector<double> knap, rr;
};

Snapshot snapshot_imbalances() {
  components::AppConfig cfg = components::AppConfig::case_study();
  cfg.driver.nsteps = 4;
  cfg.driver.regrid_interval = 2;

  auto imbalance = [](const std::vector<long>& load) {
    const long total = load[0] + load[1] + load[2];
    const long peak = std::max({load[0], load[1], load[2]});
    return total > 0 ? 3.0 * static_cast<double>(peak) / static_cast<double>(total)
                     : 1.0;
  };
  Snapshot snap;
  mpp::Runtime::run(3, [&](mpp::Comm& world) {
    auto fw = components::assemble_app(world, cfg);
    fw->services("driver").provided_as<components::GoPort>("go")->go();
    if (world.rank() != 0) return;
    auto* mesh = fw->services("driver").get_port_as<components::MeshPort>("mesh");
    amr::Hierarchy& h = mesh->hierarchy();
    for (int l = 0; l < h.num_levels(); ++l) {
      std::vector<long> knap(3, 0), rr(3, 0);
      const auto& patches = h.level(l).patches();
      for (std::size_t k = 0; k < patches.size(); ++k) {
        knap[static_cast<std::size_t>(patches[k].owner)] += patches[k].box.num_pts();
        rr[k % 3] += patches[k].box.num_pts();
      }
      snap.knap.push_back(imbalance(knap));
      snap.rr.push_back(imbalance(rr));
    }
  });
  return snap;
}

/// Per-rank subcycle-weighted cell updates, per level, averaged over
/// every step of a `nsteps`-step case-study run on `nranks` ranks.
std::vector<std::vector<double>> stepped_loads(int nranks, int nsteps) {
  components::AppConfig cfg = components::AppConfig::case_study();
  std::vector<std::vector<double>> mean_load;  // [level][rank]
  mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
    auto fw = components::assemble_app(world, cfg);
    cca::Services& driver = fw->services("driver");
    auto* mesh = driver.get_port_as<components::MeshPort>("mesh");
    auto* integrator =
        driver.get_port_as<components::IntegratorPort>("integrator");
    amr::Hierarchy& h = mesh->hierarchy();
    // The step order of ShockDriverComponent::go, sampling the layout
    // each step runs on.
    mesh->initialize();
    std::vector<std::vector<double>> sum(
        static_cast<std::size_t>(cfg.mesh.max_levels),
        std::vector<double>(static_cast<std::size_t>(nranks), 0.0));
    for (int step = 1; step <= nsteps; ++step) {
      long weight = 1;  // ratio^l
      for (int l = 0; l < h.num_levels(); ++l, weight *= cfg.mesh.ratio)
        for (const auto& p : h.level(l).patches())
          sum[static_cast<std::size_t>(l)][static_cast<std::size_t>(p.owner)] +=
              static_cast<double>(p.box.num_pts() * weight);
      integrator->advance(integrator->stable_dt(cfg.driver.cfl));
      if (step % cfg.driver.regrid_interval == 0 && step < nsteps) mesh->regrid();
    }
    if (world.rank() != 0) return;
    for (auto& level : sum)
      for (double& v : level) v /= nsteps;
    mean_load = std::move(sum);
  });
  return mean_load;
}

double imbalance_of(const std::vector<double>& load) {
  double total = 0.0, peak = 0.0;
  for (double v : load) {
    total += v;
    peak = std::max(peak, v);
  }
  return total > 0.0 ? static_cast<double>(load.size()) * peak / total : 1.0;
}

}  // namespace

int main() {
  std::cout << "Ablation: load-balance policy on the case-study hierarchy "
               "(imbalance = max rank cells / mean rank cells; 1.0 is perfect)\n\n";
  const auto [knap, rr] = snapshot_imbalances();

  ccaperf::TextTable t;
  t.set_header({"level", "knapsack (LPT)", "round robin"});
  for (std::size_t l = 0; l < std::max(knap.size(), rr.size()); ++l)
    t.add_row({std::to_string(l),
               l < knap.size() ? ccaperf::fmt_double(knap[l], 4) : "-",
               l < rr.size() ? ccaperf::fmt_double(rr[l], 4) : "-"});
  t.render(std::cout);

  double knap_worst = 1.0, rr_worst = 1.0;
  for (double v : knap) knap_worst = std::max(knap_worst, v);
  for (double v : rr) rr_worst = std::max(rr_worst, v);

  std::vector<bench::JsonEntry> json{
      {"policy", "knapsack_worst_imbalance", knap_worst},
      {"policy", "round_robin_worst_imbalance", rr_worst},
      {"policy", "knapsack_no_worse", knap_worst <= rr_worst ? 1.0 : 0.0},
  };
  for (std::size_t l = 0; l < knap.size(); ++l)
    json.push_back({"policy", "knapsack_imbalance_l" + std::to_string(l),
                    knap[l]});

  constexpr int kRanks = 3, kSteps = 120;
  std::cout << "\nStepped load: subcycle-weighted cell updates per rank, "
               "averaged over the "
            << kSteps << " steps of a " << kRanks << "-rank case-study run\n\n";
  const auto loads = stepped_loads(kRanks, kSteps);
  std::vector<double> total(kRanks, 0.0);
  ccaperf::TextTable st;
  st.set_header({"level", "rank 0", "rank 1", "rank 2", "max/mean"});
  auto add_row = [&](const std::string& label, const std::vector<double>& v) {
    st.add_row({label, ccaperf::fmt_double(v[0], 6), ccaperf::fmt_double(v[1], 6),
                ccaperf::fmt_double(v[2], 6),
                ccaperf::fmt_double(imbalance_of(v), 4)});
  };
  for (std::size_t l = 0; l < loads.size(); ++l) {
    for (std::size_t r = 0; r < total.size(); ++r) total[r] += loads[l][r];
    add_row(std::to_string(l), loads[l]);
    json.push_back({"stepped", "stepped_imbalance_l" + std::to_string(l),
                    imbalance_of(loads[l])});
  }
  add_row("total", total);
  st.render(std::cout);
  json.push_back({"stepped", "stepped_worst_rank_imbalance", imbalance_of(total)});
  bench::write_bench_json("bench_out/loadbalance.json", json);

  bench::print_comparison(
      "load-balance ablation",
      {
          {"policy", "knapsack-style decomposition in AMRMesh",
           "knapsack worst-level imbalance " + ccaperf::fmt_double(knap_worst, 4)},
          {"naive alternative", "-",
           "round-robin worst-level imbalance " + ccaperf::fmt_double(rr_worst, 4)},
          {"conclusion",
           "communication + imbalance limit scalability (paper Section 5)",
           knap_worst <= rr_worst ? "knapsack no worse than round robin"
                                  : "round robin happened to win on this mesh"},
      });
  return 0;
}
