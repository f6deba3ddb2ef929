// The plain (uninstrumented) case-study application: assembly, stepping,
// physical sanity of the evolved solution, distribution independence
// (SCMD), determinism, and the EFM/Godunov implementation swap.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "components/app_assembly.hpp"
#include "components/rk2_component.hpp"
#include "mpp/runtime.hpp"
#include "support/thread_pool.hpp"

namespace {

using components::AppConfig;

AppConfig tiny_config(int nsteps, const std::string& flux) {
  AppConfig cfg;
  cfg.mesh.domain = amr::Box{0, 0, 47, 23};
  cfg.mesh.max_levels = 2;
  cfg.mesh.ncomp = euler::kNcomp;
  cfg.mesh.level0_patch_size = 12;
  cfg.mesh.cluster = amr::ClusterParams{0.75, 4, 0};
  cfg.mesh.geom = amr::Geometry{0.0, 0.0, 2.0 / 48.0, 1.0 / 24.0};
  cfg.driver = components::DriverConfig{nsteps, 0.4, 0};
  cfg.flux_impl = flux;
  return cfg;
}

struct RunResult {
  double mass = 0.0;
  double energy = 0.0;
  double min_rho = 1e300;
  double min_p = 1e300;
  int levels = 0;
  double time = 0.0;
};

RunResult run_app(int nranks, const AppConfig& cfg) {
  std::vector<RunResult> results(static_cast<std::size_t>(nranks));
  mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
    auto fw = components::assemble_app(world, cfg);
    auto* go = fw->services("driver").provided_as<components::GoPort>("go");
    ASSERT_EQ(go->go(), 0);

    auto* mesh = fw->services("driver").get_port_as<components::MeshPort>("mesh");
    amr::Hierarchy& h = mesh->hierarchy();
    RunResult r;
    r.levels = h.num_levels();
    const double cell = h.dx(0) * h.dy(0);
    // Level-0 totals (fine data has been restricted onto level 0).
    for (auto& [id, data] : h.level(0).local_data()) {
      const amr::Box box = h.level(0).patch(id).box;
      double totals[euler::kNcomp];
      euler::total_conserved(data, box, totals);
      r.mass += totals[euler::kRho] * cell;
      r.energy += totals[euler::kE] * cell;
      for (int j = box.lo().j; j <= box.hi().j; ++j)
        for (int i = box.lo().i; i <= box.hi().i; ++i) {
          double U[euler::kNcomp];
          for (int c = 0; c < euler::kNcomp; ++c) U[c] = data(i, j, c);
          const euler::Prim w = euler::cons_to_prim(U, cfg.problem.gas);
          r.min_rho = std::min(r.min_rho, w.rho);
          r.min_p = std::min(r.min_p, w.p);
        }
    }
    r.mass = world.allreduce_value<>(r.mass);
    r.energy = world.allreduce_value<>(r.energy);
    r.min_rho = world.allreduce_value<mpp::MinOp<double>>(r.min_rho);
    r.min_p = world.allreduce_value<mpp::MinOp<double>>(r.min_p);
    auto* driver =
        dynamic_cast<components::ShockDriverComponent*>(&fw->component("driver"));
    r.time = driver->time();
    results[static_cast<std::size_t>(world.rank())] = r;
  });
  return results[0];
}

TEST(App, RunsAndStaysPhysical) {
  const RunResult r = run_app(1, tiny_config(3, "GodunovFlux"));
  EXPECT_GE(r.levels, 2);
  EXPECT_GT(r.time, 0.0);
  EXPECT_GT(r.min_rho, 0.0);
  EXPECT_GT(r.min_p, 0.0);
  EXPECT_GT(r.mass, 0.0);
}

TEST(App, DistributionIndependence) {
  // SCMD: the evolved solution must not depend on the number of ranks.
  const AppConfig cfg = tiny_config(2, "GodunovFlux");
  const RunResult serial = run_app(1, cfg);
  const RunResult parallel = run_app(3, cfg);
  EXPECT_NEAR(serial.mass, parallel.mass, 1e-9 * serial.mass);
  EXPECT_NEAR(serial.energy, parallel.energy, 1e-9 * serial.energy);
  EXPECT_EQ(serial.levels, parallel.levels);
}

/// Order-independent digest of every patch interior: each cell's
/// (level, i, j, c) and value bits are mixed into one word, and the words
/// are summed, so the digest does not depend on which patch or rank holds
/// a cell.
struct FieldDigest {
  std::uint64_t hash = 0;
  long cells = 0;
  std::vector<std::size_t> patches;  ///< per level
  /// Some level's multi-lane job list (largest patch first) differs from
  /// its id order in the final hierarchy.
  bool size_order_differs = false;
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// `lanes` > 0 rebuilds each rank's pool with that many lanes first.
FieldDigest field_digest(int nranks, const AppConfig& cfg, int lanes = 0) {
  std::vector<FieldDigest> per_rank(static_cast<std::size_t>(nranks));
  mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
    if (lanes > 0) ccaperf::set_rank_pool_threads(lanes);
    auto fw = components::assemble_app(world, cfg);
    ASSERT_EQ(fw->services("driver").provided_as<components::GoPort>("go")->go(), 0);
    auto* mesh = fw->services("driver").get_port_as<components::MeshPort>("mesh");
    amr::Hierarchy& h = mesh->hierarchy();
    FieldDigest& d = per_rank[static_cast<std::size_t>(world.rank())];
    for (int l = 0; l < h.num_levels(); ++l) {
      d.patches.push_back(h.level(l).patches().size());
      if (components::patch_jobs(h.level(l), 1) !=
          components::patch_jobs(h.level(l), 3))
        d.size_order_differs = true;
      for (const auto& [id, data] : h.level(l).local_data()) {
        const amr::Box box = h.level(l).patch(id).box;
        d.cells += box.num_pts();
        for (int c = 0; c < data.ncomp(); ++c)
          for (int j = box.lo().j; j <= box.hi().j; ++j)
            for (int i = box.lo().i; i <= box.hi().i; ++i) {
              const double v = data(i, j, c);
              std::uint64_t bits = 0;
              std::memcpy(&bits, &v, sizeof bits);
              const auto key = (static_cast<std::uint64_t>(l) << 60) ^
                               (static_cast<std::uint64_t>(i) << 40) ^
                               (static_cast<std::uint64_t>(j) << 20) ^
                               static_cast<std::uint64_t>(c);
              d.hash += mix(key ^ mix(bits));
            }
      }
    }
  });
  FieldDigest all = per_rank[0];
  for (std::size_t r = 1; r < per_rank.size(); ++r) {
    all.hash += per_rank[r].hash;
    all.cells += per_rank[r].cells;
  }
  return all;
}

TEST(App, FieldBitIdenticalAcrossRankCounts) {
  // The case-study mesh (3 levels, Godunov) with regrids: every rank count
  // cuts the fine levels differently for balance, but the refined region
  // and every cell value must be bit-identical to the serial run.
  AppConfig cfg = AppConfig::case_study();
  cfg.driver = components::DriverConfig{6, 0.4, 2};
  const FieldDigest serial = field_digest(1, cfg);
  ASSERT_EQ(serial.patches.size(), 3u);
  for (int nranks : {2, 3}) {
    const FieldDigest parallel = field_digest(nranks, cfg);
    EXPECT_EQ(parallel.cells, serial.cells) << nranks << " ranks";
    EXPECT_EQ(parallel.hash, serial.hash) << nranks << " ranks";
    EXPECT_NE(parallel.patches, serial.patches)
        << "the layout should differ from the serial run's at " << nranks
        << " ranks";
  }
}

TEST(App, FieldBitIdenticalAcrossLaneCounts) {
  // At 3 lanes RK2 runs a level's patches largest first and the pool
  // splits kernel rows across lanes; the field must be bit-identical to
  // the 1-lane run, which walks the patches in id order.
  AppConfig cfg = AppConfig::case_study();
  cfg.driver = components::DriverConfig{6, 0.4, 2};
  const FieldDigest serial = field_digest(1, cfg, 1);
  const FieldDigest lanes = field_digest(1, cfg, 3);
  ccaperf::set_rank_pool_threads(ccaperf::configured_threads());
  ASSERT_EQ(serial.patches.size(), 3u);
  ASSERT_TRUE(lanes.size_order_differs)
      << "no level's size order differs from its id order";
  EXPECT_EQ(lanes.patches, serial.patches);
  EXPECT_EQ(lanes.cells, serial.cells);
  EXPECT_EQ(lanes.hash, serial.hash);
}

TEST(App, DeterministicAcrossRuns) {
  const AppConfig cfg = tiny_config(2, "EFMFlux");
  const RunResult a = run_app(2, cfg);
  const RunResult b = run_app(2, cfg);
  EXPECT_DOUBLE_EQ(a.mass, b.mass);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);
}

TEST(App, EfmAndGodunovBothEvolveTheShock) {
  const RunResult efm = run_app(1, tiny_config(3, "EFMFlux"));
  const RunResult god = run_app(1, tiny_config(3, "GodunovFlux"));
  EXPECT_GT(efm.min_p, 0.0);
  EXPECT_GT(god.min_p, 0.0);
  // Same problem, nearly the same mass budget (flux choice changes only
  // numerical diffusion, and boundary outflow is tiny over 3 steps).
  EXPECT_NEAR(efm.mass, god.mass, 0.01 * god.mass);
}

TEST(App, MassBudgetMatchesBoundaryInflow) {
  // The left (transmissive) boundary sits in the post-shock flow, so mass
  // enters at rate rho1*u1*Ly. The evolved mass must match that budget
  // (loosely: the simplified scheme has no coarse-fine refluxing, and the
  // first-order boundary model is approximate).
  AppConfig cfg = tiny_config(0, "GodunovFlux");
  const RunResult start = run_app(1, cfg);
  cfg = tiny_config(4, "GodunovFlux");
  const RunResult evolved = run_app(1, cfg);
  const euler::Prim post = cfg.problem.post_shock_state();
  const double ly = 1.0;
  const double expected_gain = post.rho * post.u * ly * evolved.time;
  const double gain = evolved.mass - start.mass;
  EXPECT_GT(gain, 0.0);
  EXPECT_NEAR(gain, expected_gain, 0.5 * expected_gain);
}

TEST(App, RegridDuringRunKeepsPhysicalState) {
  AppConfig cfg = tiny_config(4, "EFMFlux");
  cfg.driver.regrid_interval = 2;
  const RunResult r = run_app(2, cfg);
  EXPECT_GT(r.min_rho, 0.0);
  EXPECT_GT(r.min_p, 0.0);
}

TEST(App, WiringMatchesPaperFigure2) {
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    auto fw = components::assemble_app(world, tiny_config(1, "EFMFlux"));
    const cca::WiringDiagram w = fw->wiring();
    EXPECT_EQ(w.nodes.size(), 6u);
    EXPECT_EQ(w.connections.size(), 6u);
    bool invflux_to_flux = false;
    for (const auto& c : w.connections)
      invflux_to_flux |= (c.user_instance == "invflux" && c.provider_instance == "flux");
    EXPECT_TRUE(invflux_to_flux);
  });
}

TEST(App, StableDtShrinksWithRefinement) {
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    auto cfg = tiny_config(1, "EFMFlux");
    auto fw = components::assemble_app(world, cfg);
    auto* mesh = fw->services("driver").get_port_as<components::MeshPort>("mesh");
    auto* integ =
        fw->services("driver").get_port_as<components::IntegratorPort>("integrator");
    mesh->initialize();
    const double dt = integ->stable_dt(0.4);
    EXPECT_GT(dt, 0.0);
    // CFL bound: dt <= cfl * dx0 / c0 with c0 >= 1 (post-shock speeds > 1).
    EXPECT_LT(dt, 0.4 * (2.0 / 48.0) / 1.0);
  });
}

/// FNV-1a over one rank's local density bits, keyed by (level, patch id)
/// and walked in (j, i) order — the physics digest of the session
/// workloads (core/session_workloads.cpp).
void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= static_cast<std::uint8_t>(v >> (8 * b));
    h *= 1099511628211ull;
  }
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Digest of the density field after a run: per-rank digests combined in
/// rank order, so it pins both the bits and the decomposition.
std::uint64_t density_digest(int nranks, const AppConfig& cfg) {
  std::vector<std::uint64_t> per_rank(static_cast<std::size_t>(nranks), 0);
  mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
    auto fw = components::assemble_app(world, cfg);
    ASSERT_EQ(fw->services("driver").provided_as<components::GoPort>("go")->go(), 0);
    auto* mesh = fw->services("driver").get_port_as<components::MeshPort>("mesh");
    amr::Hierarchy& h = mesh->hierarchy();
    std::uint64_t d = kFnvBasis;
    for (int l = 0; l < h.num_levels(); ++l)
      for (auto& [id, data] : h.level(l).local_data()) {
        fnv_u64(d, static_cast<std::uint64_t>(l));
        fnv_u64(d, static_cast<std::uint64_t>(id));
        const amr::Box box = h.level(l).patch(id).box;
        for (int j = box.lo().j; j <= box.hi().j; ++j)
          for (int i = box.lo().i; i <= box.hi().i; ++i) {
            std::uint64_t bits = 0;
            const double rho = data(i, j, euler::kRho);
            std::memcpy(&bits, &rho, sizeof bits);
            fnv_u64(d, bits);
          }
      }
    per_rank[static_cast<std::size_t>(world.rank())] = d;
  });
  std::uint64_t all = kFnvBasis;
  for (const std::uint64_t d : per_rank) fnv_u64(all, d);
  return all;
}

TEST(App, RegridInstallsLptOwners) {
  // AMRMesh places each level once: init_level0 and every regrid install
  // greedy-LPT owners, so placing any level's patch list again must return
  // exactly the owners already there. This is why regrid needs no
  // rebalance pass afterwards.
  for (int nranks = 1; nranks <= 4; ++nranks) {
    AppConfig cfg = AppConfig::case_study();
    constexpr int kSteps = 13;  // regrids after steps 4, 8 and 12
    std::vector<int> regrids(static_cast<std::size_t>(nranks), 0);
    mpp::Runtime::run(nranks, [&](mpp::Comm& world) {
      auto fw = components::assemble_app(world, cfg);
      cca::Services& driver = fw->services("driver");
      auto* mesh = driver.get_port_as<components::MeshPort>("mesh");
      auto* integrator =
          driver.get_port_as<components::IntegratorPort>("integrator");
      amr::Hierarchy& h = mesh->hierarchy();
      mesh->initialize();
      for (int step = 1; step <= kSteps; ++step) {
        integrator->advance(integrator->stable_dt(cfg.driver.cfl));
        if (step % cfg.driver.regrid_interval != 0) continue;
        mesh->regrid();
        ++regrids[static_cast<std::size_t>(world.rank())];
        ASSERT_EQ(h.num_levels(), cfg.mesh.max_levels);
        for (int l = 0; l < h.num_levels(); ++l) {
          std::vector<amr::PatchInfo> placed = h.level(l).patches();
          amr::balance_owners(placed, nranks);
          for (std::size_t k = 0; k < placed.size(); ++k)
            EXPECT_EQ(placed[k].owner, h.level(l).patches()[k].owner)
                << nranks << " rank(s), step " << step << ", level " << l
                << ", patch " << k;
        }
      }
    });
    for (const int n : regrids) EXPECT_EQ(n, 3) << nranks << " rank(s)";
  }
}

TEST(App, CaseStudyDigestKnownAnswer) {
  // Known answers pinned across commits: every other bitwise check
  // compares two runs of one binary, so a change that moves the physics
  // bits everywhere at once would pass them all. The constants depend on
  // the toolchain and libm (pow, sqrt, erf, exp); a different compiler or
  // C library may legitimately produce other bits — re-pin them there
  // from the printed actual digests.
  struct Case {
    const char* flux;
    int nranks;
    std::uint64_t expected;
  };
  const Case cases[] = {
      {"GodunovFlux", 1, 0xae320a5f363bfce8ull},
      {"GodunovFlux", 3, 0x5c43414003ac88f7ull},
      {"EFMFlux", 1, 0xc4b415b412d66a14ull},
  };
  for (const Case& c : cases) {
    AppConfig cfg = AppConfig::case_study();
    cfg.driver.nsteps = 22;
    cfg.flux_impl = c.flux;
    const std::uint64_t actual = density_digest(c.nranks, cfg);
    EXPECT_EQ(actual, c.expected)
        << c.flux << " at " << c.nranks << " rank(s): actual digest 0x"
        << std::hex << actual << "ull";
  }
}

}  // namespace
