// Fig. 10 — the application dual and assembly optimization: "a composite
// performance model where the variables are the individual performance
// models of the components themselves", built in the Mastermind from the
// wiring diagram + call trace, with "edge weights corresponding to the
// number of invocations and the vertex weights being the compute and
// communication times determined from the performance models"; negligible
// sub-graphs are pruned; the Mastermind is connected to the framework "to
// enable dynamic replacement of sub-optimal components".
//
// Pipeline reproduced here:
//   1. fit EFM/Godunov/States models from instrumented sweeps (Figs. 6-8);
//   2. run the instrumented application to record the call path
//      (invocation counts and the Q workload actually seen);
//   3. build + prune the dual, predicting vertex weights from the models;
//   4. enumerate the 2 flux assemblies, pick the best at QoS weight 0
//      (performance only -> EFMFlux) and at a high accuracy weight
//      (-> GodunovFlux), and *dynamically reconnect* the app to the winner.

#include <map>

#include "bench_common.hpp"
#include "components/app_assembly.hpp"
#include "core/dual_graph.hpp"
#include "core/optimizer.hpp"

int main() {
  const euler::GasModel gas;

  // ---- 1. component performance models (reduced sweeps) ----
  // Power-law fits (the paper's Eq. 1 form for States): positive for all
  // Q, so the optimizer's composite cost stays meaningful down to the
  // small patches the application actually processes — a linear fit's
  // negative intercept would zero out the cheap implementation there.
  std::cout << "building component performance models...\n";
  auto fit_flux = [](const std::vector<core::Sample>& all) {
    std::vector<core::Sample> means;
    for (const core::Bin& b : core::bin_by_q(all))
      means.push_back(core::Sample{b.q, b.mean});
    return core::fit_power_law(means);
  };
  const auto states_model = fit_flux(bench::sweep_component("states", 1, 3, 60'000).all);
  const auto godunov_model = fit_flux(bench::sweep_component("godunov", 1, 3, 60'000).all);
  const auto efm_model = fit_flux(bench::sweep_component("efm", 1, 3, 60'000).all);
  std::cout << "  T_States(Q)  = " << states_model->formula() << '\n'
            << "  T_Godunov(Q) = " << godunov_model->formula() << '\n'
            << "  T_EFM(Q)     = " << efm_model->formula() << "\n\n";

  // ---- 2. call path from an instrumented run ----
  components::AppConfig cfg = components::AppConfig::case_study();
  cfg.driver.nsteps = 4;
  cfg.driver.regrid_interval = 0;

  std::map<double, double> flux_workload;  // Q -> invocation count
  std::map<std::string, std::pair<double, double>> measured;  // inst -> (compute, comm)
  std::map<std::string, double> invocation_counts;
  cca::WiringDiagram wiring;

  mpp::Runtime::run(1, [&](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, cfg);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    wiring = app.fw().wiring();
    const std::map<std::string, std::string> keys{
        {"sc_proxy", "sc_proxy::compute()"},
        {"flux_proxy", "g_proxy::compute()"},
        {"icc_proxy", "icc_proxy::ghost_update()"}};
    for (const auto& [inst, key] : keys) {
      const core::Record* rec = app.mastermind->record(key);
      if (rec == nullptr) continue;
      double compute = 0.0, comm = 0.0;
      for (std::size_t i = 0; i < rec->count(); ++i) {
        compute += rec->compute_us(i);
        comm += rec->mpi_us(i);
        if (inst == "flux_proxy") flux_workload[rec->param_at(i, "Q")] += 1.0;
      }
      measured[inst] = {compute, comm};
      invocation_counts[key] = static_cast<double>(rec->count());
    }
  });

  // ---- 3. the dual ----
  const auto dual = core::DualGraph::build(
      wiring,
      [&](const std::string& inst) -> std::pair<double, double> {
        auto it = measured.find(inst);
        return it == measured.end() ? std::pair{0.0, 0.0} : it->second;
      },
      [&](const cca::Connection& c) -> double {
        if (c.provider_instance == "sc_proxy")
          return invocation_counts["sc_proxy::compute()"];
        if (c.provider_instance == "flux_proxy")
          return invocation_counts["g_proxy::compute()"];
        if (c.provider_instance == "icc_proxy")
          return invocation_counts["icc_proxy::ghost_update()"];
        return 1.0;
      });
  std::cout << "=== application dual ===\n";
  dual.print(std::cout);
  const auto pruned = dual.pruned(0.02);
  std::cout << "\nafter pruning sub-2% vertices (" << dual.vertices().size()
            << " -> " << pruned.vertices().size() << " vertices):\n";
  pruned.print(std::cout);
  std::cout << "\nGraphViz:\n" << dual.to_dot() << '\n';

  // ---- 4. assembly optimization over the recorded workload ----
  core::Slot flux_slot;
  flux_slot.functionality = "euler.FluxPort";
  flux_slot.candidates = {
      core::Candidate{"EFMFlux", efm_model.get(), 0.7},
      core::Candidate{"GodunovFlux", godunov_model.get(), 1.0}};
  for (const auto& [q, n] : flux_workload) flux_slot.workload.emplace_back(q, n);

  core::AssemblyOptimizer opt;
  opt.add_slot(flux_slot);
  const auto all = opt.evaluate_all(0.0);
  std::cout << "=== assembly choices (QoS weight 0: pure performance) ===\n";
  ccaperf::TextTable t;
  t.set_header({"assembly", "predicted flux time (ms)", "min accuracy", "cost"});
  for (const auto& choice : all)
    t.add_row({choice.selection.at("euler.FluxPort"),
               ccaperf::fmt_double(choice.predicted_time_us / 1000.0, 5),
               ccaperf::fmt_double(choice.min_accuracy, 3),
               ccaperf::fmt_double(choice.cost / 1000.0, 5)});
  t.render(std::cout);

  const auto fast = all.front();
  const auto accurate = opt.evaluate_all(10.0).front();

  // Dynamic replacement: reconnect the live app's flux port to the winner.
  mpp::Runtime::run(1, [&](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, cfg);
    const std::string winner = fast.selection.at("euler.FluxPort");
    if (!app.fw().has_instance("alt_flux"))
      app.fw().instantiate("alt_flux", winner == cfg.flux_impl ? "EFMFlux" : winner);
    app.fw().reconnect("flux_proxy", "flux_real", "alt_flux", "flux");
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    std::cout << "\ndynamically reconnected flux_proxy -> " << winner
              << " and re-ran: OK\n";
  });

  bench::print_comparison(
      "Fig. 10 (dual graph + assembly optimization)",
      {
          {"dual structure",
           "vertices = components (compute+comm), edges = invocation counts",
           std::to_string(dual.vertices().size()) + " vertices / " +
               std::to_string(dual.edges().size()) + " edges"},
          {"negligible sub-graphs pruned", "identified via vertex weights",
           std::to_string(dual.vertices().size() - pruned.vertices().size()) +
               " vertices pruned at 2%"},
          {"performance-optimal flux", "EFMFlux (better characteristics)",
           fast.selection.at("euler.FluxPort")},
          {"QoS-weighted choice",
           "GodunovFlux preferred by scientists (more accurate)",
           accurate.selection.at("euler.FluxPort") + " at accuracy weight 10"},
          {"dynamic replacement", "via AbstractFramework port",
           "Framework::reconnect applied to the live assembly"},
      });
  return 0;
}
