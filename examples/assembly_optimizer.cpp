// Assembly optimization end-to-end (the paper's Section 6 vision):
//  1. measure EFMFlux and GodunovFlux through the PMM infrastructure on a
//     synthetic workload sweep;
//  2. fit per-implementation performance models;
//  3. evaluate the composite model for each possible assembly over the
//     workload the application actually runs;
//  4. pick the winner for a range of Quality-of-Service weights and show
//     the crossover between "fastest" (EFM) and "most accurate" (Godunov).
//
//   ./examples/assembly_optimizer

#include <iostream>

#include "../bench/bench_common.hpp"
#include "core/optimizer.hpp"

int main() {
  const euler::GasModel gas;

  std::cout << "measuring flux implementations through proxies...\n";
  // Power-law fits: positive for every Q (a linear fit's negative
  // intercept would corrupt the optimizer's cost at small patches).
  auto fit_flux = [](const std::vector<core::Sample>& all) {
    std::vector<core::Sample> means;
    for (const core::Bin& b : core::bin_by_q(all))
      means.push_back(core::Sample{b.q, b.mean});
    return core::fit_power_law(means);
  };
  const auto god_model = fit_flux(bench::sweep_component("godunov", 1, 3, 80'000).all);
  const auto efm_model = fit_flux(bench::sweep_component("efm", 1, 3, 80'000).all);

  std::cout << "  T_Godunov(Q) = " << god_model->formula() << '\n'
            << "  T_EFM(Q)     = " << efm_model->formula() << "\n\n";

  // Workload: flux invocations of a typical AMR step (a few patch sizes,
  // invoked many times).
  core::Slot slot;
  slot.functionality = "euler.FluxPort";
  slot.candidates = {core::Candidate{"EFMFlux", efm_model.get(), 0.7},
                     core::Candidate{"GodunovFlux", god_model.get(), 1.0}};
  slot.workload = {{4'000.0, 400.0}, {16'000.0, 150.0}, {64'000.0, 40.0}};

  core::AssemblyOptimizer opt;
  opt.add_slot(slot);

  std::cout << "QoS sweep (cost = time * (1 + w * (1 - min accuracy))):\n";
  ccaperf::TextTable t;
  t.set_header({"accuracy weight w", "selected flux", "predicted time (ms)",
                "cost (ms)"});
  std::string prev;
  double crossover = -1.0;
  for (double w = 0.0; w <= 8.0; w += 0.5) {
    const auto best = opt.evaluate_all(w).front();
    const std::string& pick = best.selection.at("euler.FluxPort");
    if (!prev.empty() && pick != prev && crossover < 0) crossover = w;
    prev = pick;
    t.add_row({ccaperf::fmt_double(w, 3), pick,
               ccaperf::fmt_double(best.predicted_time_us / 1000.0, 5),
               ccaperf::fmt_double(best.cost / 1000.0, 5)});
  }
  t.render(std::cout);

  std::cout << "\nperformance-only choice : "
            << opt.evaluate_all(0.0).front().selection.at("euler.FluxPort")
            << "  (the paper: \"from a performance point of view, EFMFlux has "
               "better characteristics\")\n";
  if (crossover >= 0)
    std::cout << "QoS crossover          : accuracy weight ~ "
              << ccaperf::fmt_double(crossover, 3)
              << " flips the choice to GodunovFlux (\"the preferred choice "
                 "for scientists\")\n";
  return 0;
}
