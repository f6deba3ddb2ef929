// End-to-end integration of the full PMM stack on the case-study app:
// non-intrusiveness (instrumented == plain physics), the paper's profile
// structure, record completeness, the recursive level-processing
// sequence, and model construction from real measurement data.

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "components/app_assembly.hpp"
#include "core/dual_graph.hpp"
#include "core/instrumented_app.hpp"
#include "core/modeling.hpp"
#include "mpp/runtime.hpp"
#include "tau/profile.hpp"

namespace {

using components::AppConfig;

AppConfig tiny_config(int nsteps) {
  AppConfig cfg;
  cfg.mesh.domain = amr::Box{0, 0, 47, 23};
  cfg.mesh.max_levels = 3;
  cfg.mesh.ncomp = euler::kNcomp;
  cfg.mesh.level0_patch_size = 12;
  cfg.mesh.cluster = amr::ClusterParams{0.75, 4, 0};
  cfg.mesh.geom = amr::Geometry{0.0, 0.0, 2.0 / 48.0, 1.0 / 24.0};
  cfg.driver = components::DriverConfig{nsteps, 0.4, 0};
  cfg.flux_impl = "GodunovFlux";
  return cfg;
}

double run_plain_mass(int nranks, const AppConfig& cfg) {
  std::vector<double> mass(static_cast<std::size_t>(nranks), 0.0);
  mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
    auto fw = components::assemble_app(world, cfg);
    fw->services("driver").provided_as<components::GoPort>("go")->go();
    auto* mesh = fw->services("driver").get_port_as<components::MeshPort>("mesh");
    double m = 0.0;
    for (auto& [id, data] : mesh->hierarchy().level(0).local_data()) {
      double totals[euler::kNcomp];
      euler::total_conserved(data, mesh->hierarchy().level(0).patch(id).box, totals);
      m += totals[euler::kRho];
    }
    mass[static_cast<std::size_t>(world.rank())] = world.allreduce_value<>(m);
  });
  return mass[0];
}

TEST(InstrumentedApp, NonIntrusive) {
  // "Program modification is simplified to ... switching in a similar
  // component without affecting the rest of the application": proxies must
  // not change the physics at all.
  const AppConfig cfg = tiny_config(2);
  const double plain = run_plain_mass(2, cfg);

  std::vector<double> mass(2, 0.0);
  mpp::Runtime::run(2, [&](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, cfg);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    auto* mesh =
        app.fw().services("driver").get_port_as<components::MeshPort>("mesh");
    double m = 0.0;
    for (auto& [id, data] : mesh->hierarchy().level(0).local_data()) {
      double totals[euler::kNcomp];
      euler::total_conserved(data, mesh->hierarchy().level(0).patch(id).box, totals);
      m += totals[euler::kRho];
    }
    mass[static_cast<std::size_t>(world.rank())] = world.allreduce_value<>(m);
  });
  EXPECT_DOUBLE_EQ(plain, mass[0]);
}

TEST(InstrumentedApp, ProfileHasPaperStructure) {
  std::vector<std::vector<tau::ProfileRow>> profiles(2);
  mpp::Runtime::run(2, mpp::NetworkModel{30.0, 50.0, 0.2, 7},
                    [&](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, tiny_config(2));
    tau::Registry& reg = app.registry();
    const auto root = reg.timer("int main(int, char **)");
    reg.start(root);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    reg.stop(root);
    profiles[static_cast<std::size_t>(world.rank())] = tau::profile_rows(reg);
  });
  const auto mean = tau::mean_rows(profiles);
  ASSERT_FALSE(mean.empty());
  // Root dominates; the Fig. 3 rows are present.
  EXPECT_EQ(mean[0].name, "int main(int, char **)");
  auto has = [&](const std::string& name) {
    for (const auto& r : mean)
      if (r.name == name) return true;
    return false;
  };
  EXPECT_TRUE(has("MPI_Waitsome()"));
  EXPECT_TRUE(has("MPI_Isend()"));
  EXPECT_TRUE(has("MPI_Allreduce()"));
  EXPECT_TRUE(has("g_proxy::compute()"));
  EXPECT_TRUE(has("sc_proxy::compute()"));
  EXPECT_TRUE(has("icc_proxy::prolong()"));
  EXPECT_TRUE(has("icc_proxy::restrict()"));
  // Inclusive >= exclusive for every row; root %-dominance.
  for (const auto& r : mean) EXPECT_GE(r.inclusive_us + 1e-9, r.exclusive_us);
}

TEST(InstrumentedApp, RecursiveSequenceMatchesPaper) {
  // One coarse step with 3 levels at r=2: RK2 issues two ghost updates
  // per level visit, and visits follow L0 L1 L2 L2 L1 L2 L2 — so
  // ghost_update counts per level are L0:2, L1:4, L2:8.
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    AppConfig cfg = tiny_config(1);
    auto app = core::assemble_instrumented_app(world, cfg);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    const core::Record* rec =
        app.mastermind->record("icc_proxy::ghost_update()");
    ASSERT_NE(rec, nullptr);
    ASSERT_EQ(app.mastermind->record("icc_proxy::prolong()")->count() +
                  rec->count(),
              rec->count() * 2u - 2u);  // prolong on l>0 visits only
    std::map<double, int> per_level;
    for (std::size_t i = 0; i < rec->count(); ++i) ++per_level[rec->param_at(i, "level")];
    ASSERT_EQ(per_level.size(), 3u);
    EXPECT_EQ(per_level[0.0], 2);
    EXPECT_EQ(per_level[1.0], 4);
    EXPECT_EQ(per_level[2.0], 8);
    // restrict called once per parent visit: L1->L0 once, L2->L1 twice.
    EXPECT_EQ(app.mastermind->record("icc_proxy::restrict()")->count(), 3u);
  });
}

TEST(InstrumentedApp, StatesRecordSupportsModelFitting) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, tiny_config(2));
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    const core::Record* rec = app.mastermind->record("sc_proxy::compute()");
    ASSERT_NE(rec, nullptr);
    ASSERT_GE(rec->count(), 16u);
    auto raw = rec->samples("Q", core::Record::Metric::compute);
    std::vector<core::Sample> samples;
    for (auto [q, t] : raw) samples.push_back({q, t});
    const auto ms = core::build_mean_sigma_models(samples);
    ASSERT_NE(ms.mean, nullptr);
    EXPECT_GE(ms.bins.size(), 2u);
    // Compute time grows with array size (within the observed Q range —
    // extrapolation beyond the data is not meaningful).
    const double q_lo = ms.bins.front().q, q_hi = ms.bins.back().q;
    EXPECT_GT(ms.mean->predict(q_hi), ms.mean->predict(q_lo));
    // States does no message passing (paper §5).
    for (std::size_t i = 0; i < rec->count(); ++i) EXPECT_NEAR(rec->mpi_us(i), 0.0, 50.0);
  });
}

TEST(InstrumentedApp, DualGraphFromRealRun) {
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, tiny_config(1));
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    auto* mm = app.mastermind;

    const auto vertex_weight =
        [&](const std::string& inst) -> std::pair<double, double> {
      // Sum measured compute/comm over the records of the matching proxy.
      const std::map<std::string, std::string> keys{
          {"sc_proxy", "sc_proxy::compute()"},
          {"flux_proxy", "g_proxy::compute()"},
          {"icc_proxy", "icc_proxy::ghost_update()"}};
      auto it = keys.find(inst);
      if (it == keys.end()) return {0.0, 0.0};
      const core::Record* rec = mm->record(it->second);
      double compute = 0.0, comm = 0.0;
      for (std::size_t i = 0; i < rec->count(); ++i) {
        compute += rec->compute_us(i);
        comm += rec->mpi_us(i);
      }
      return {compute, comm};
    };
    const auto edge_weight = [&](const cca::Connection& c) -> double {
      const core::Record* rec = nullptr;
      if (c.provider_instance == "sc_proxy") rec = mm->record("sc_proxy::compute()");
      if (c.provider_instance == "flux_proxy") rec = mm->record("g_proxy::compute()");
      return rec ? static_cast<double>(rec->count()) : 0.0;
    };
    const auto dual =
        core::DualGraph::build(app.fw().wiring(), vertex_weight, edge_weight);
    EXPECT_EQ(dual.vertices().size(), app.fw().wiring().nodes.size());
    EXPECT_GT(dual.total_us(), 0.0);
    const int flux = dual.vertex_index("flux_proxy");
    ASSERT_GE(flux, 0);
    EXPECT_GT(dual.vertices()[static_cast<std::size_t>(flux)].compute_us, 0.0);
    // Pruning keeps the heavy kernels.
    const auto pruned = dual.pruned(0.01);
    EXPECT_GE(pruned.vertex_index("flux_proxy"), 0);
  });
}

TEST(InstrumentedApp, MpiGroupDisableZerosRecordedMpiTime) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, tiny_config(1));
    app.registry().set_group_enabled(tau::kMpiGroup, false);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    const core::Record* rec = app.mastermind->record("icc_proxy::ghost_update()");
    ASSERT_NE(rec, nullptr);
    for (std::size_t i = 0; i < rec->count(); ++i) EXPECT_DOUBLE_EQ(rec->mpi_us(i), 0.0);
  });
}

}  // namespace
