#include "core/session_workloads.hpp"

#include <chrono>
#include <cstring>
#include <mutex>
#include <vector>

#include "components/app_assembly.hpp"
#include "components/lu_workload.hpp"
#include "core/instrumented_app.hpp"
#include "core/trace_export.hpp"
#include "mpp/runtime.hpp"
#include "support/error.hpp"
#include "support/thread_pool.hpp"

namespace core {
namespace {

void fnv_byte(std::uint64_t& h, std::uint8_t b) {
  h ^= b;
  h *= 1099511628211ull;
}

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) fnv_byte(h, static_cast<std::uint8_t>(v >> (8 * b)));
}

void fnv_double(std::uint64_t& h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  fnv_u64(h, bits);
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// The fig01 configuration scaled down (the prediction bench's tiny_config
/// shape): small grids keep a 64-session soak tractable on one box.
components::AppConfig session_amr_config(const SessionScenario& sc) {
  components::AppConfig cfg;
  cfg.mesh.domain = amr::Box{0, 0, sc.nx - 1, sc.ny - 1};
  cfg.mesh.max_levels = 3;
  cfg.mesh.ncomp = euler::kNcomp;
  cfg.mesh.level0_patch_size = 12;
  cfg.mesh.cluster = amr::ClusterParams{0.75, 4, 0};
  cfg.mesh.geom = amr::Geometry{0.0, 0.0, 2.0 / sc.nx, 1.0 / sc.ny};
  cfg.driver = components::DriverConfig{sc.steps, 0.4, 0};
  cfg.flux_impl = "GodunovFlux";
  return cfg;
}

/// FNV over one rank's local density field, in (level, patch id, j, i)
/// order — local_data() is a std::map so iteration order is the patch id
/// order, deterministic for a fixed decomposition.
std::uint64_t rank_density_digest(amr::Hierarchy& h) {
  std::uint64_t d = kFnvBasis;
  for (int l = 0; l < h.num_levels(); ++l) {
    for (auto& [id, data] : h.level(l).local_data()) {
      fnv_u64(d, static_cast<std::uint64_t>(l));
      fnv_u64(d, static_cast<std::uint64_t>(id));
      const amr::Box box = h.level(l).patch(id).box;
      for (int j = box.lo().j; j <= box.hi().j; ++j)
        for (int i = box.lo().i; i <= box.hi().i; ++i)
          fnv_double(d, data(i, j, euler::kRho));
    }
  }
  return d;
}

SessionResult run_amr_session(SessionHandle& handle, const SessionScenario& sc) {
  const components::AppConfig cfg = session_amr_config(sc);
  mpp::RunOptions opts;
  opts.net = mpp::NetworkModel::classic_cluster();
  if (!sc.fault_plan.empty()) {
    opts.faults = mpp::FaultSpec::parse(sc.fault_plan);
    opts.faults.seed = sc.seed;
  }

  // Ranks are SCMD threads of this process: per-rank digests land in a
  // rank-indexed slot and combine in rank order afterwards — no
  // reduction needed, and the combination is decomposition-stable.
  std::vector<std::uint64_t> rank_digests(static_cast<std::size_t>(sc.ranks), 0);
  std::vector<std::uint64_t> rank_lines(static_cast<std::size_t>(sc.ranks), 0);

  const auto t0 = std::chrono::steady_clock::now();
  mpp::Runtime::run(sc.ranks, opts, [&](mpp::Comm& world) {
    // Worker lanes are configured programmatically: CCAPERF_THREADS is
    // process-global and concurrent sessions would race on it.
    ccaperf::set_rank_pool_threads(sc.threads);
    InstrumentedApp app = assemble_instrumented_app(world, cfg);
    if (sc.trace) {
      app.registry().set_trace_capacity(sc.trace_events);
      app.registry().set_tracing(true);
      app.tau->sync_shard_tracing();
    }
    app.mastermind->set_telemetry_session(handle.name());
    // One sink per rank: HubSinkBuf buffers per producer, so concurrent
    // ranks never interleave partial lines.
    std::ostream& sink = handle.make_sink();
    auto* tport =
        app.fw().services("mastermind").provided_as<TelemetryPort>("telemetry");
    tport->start_telemetry(sink, sc.telemetry_interval);

    app.fw().services("driver").provided_as<components::GoPort>("go")->go();

    auto* mesh = app.fw().services("driver").get_port_as<components::MeshPort>("mesh");
    rank_digests[static_cast<std::size_t>(world.rank())] =
        rank_density_digest(mesh->hierarchy());
    tport->stop_telemetry();
    rank_lines[static_cast<std::size_t>(world.rank())] = tport->telemetry_lines();
    if (sc.trace) {
      handle.add_trace(collect_rank_trace(app.registry(), world.rank()));
      if (tau::RegistryShards* sh = app.tau->shards(); sh->lanes() > 1)
        for (int t = 1; t < sh->lanes(); ++t)
          handle.add_trace(collect_rank_trace(sh->shard(t), world.rank(), t));
    }
  });
  const auto t1 = std::chrono::steady_clock::now();

  SessionResult r;
  r.physics_digest = kFnvBasis;
  for (const std::uint64_t d : rank_digests) fnv_u64(r.physics_digest, d);
  for (const std::uint64_t n : rank_lines) r.telemetry_lines += n;
  r.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  return r;
}

SessionResult run_lu_session(SessionHandle& handle, const SessionScenario& sc) {
  // Single-rank mini assembly, the KernelRig shape: Mastermind + TAU +
  // the LU component behind its proxy.
  cca::ComponentRepository repo;
  repo.register_class("TauMeasurement",
                      [] { return std::make_unique<TauMeasurementComponent>(); });
  repo.register_class("Mastermind",
                      [] { return std::make_unique<MastermindComponent>(); });
  repo.register_class("LuFactor", [] {
    return std::make_unique<components::LuFactorComponent>();
  });
  repo.register_class("LuProxy", [] { return std::make_unique<LuProxy>(); });

  const auto t0 = std::chrono::steady_clock::now();
  SessionResult r;
  r.physics_digest = kFnvBasis;
  {
    cca::Framework fw(std::move(repo));
    fw.instantiate("tau", "TauMeasurement");
    fw.instantiate("mm", "Mastermind");
    fw.instantiate("lu", "LuFactor");
    fw.instantiate("lu_proxy", "LuProxy");
    fw.connect("mm", "measurement", "tau", "measurement");
    fw.connect("lu_proxy", "monitor", "mm", "monitor");
    fw.connect("lu_proxy", "lu_real", "lu", "lu");

    auto* mm = dynamic_cast<MastermindComponent*>(&fw.component("mm"));
    auto* tau = dynamic_cast<TauMeasurementComponent*>(&fw.component("tau"));
    CCAPERF_REQUIRE(mm != nullptr && tau != nullptr,
                    "lu session: component cast failed");
    if (sc.trace) {
      tau->registry().set_trace_capacity(sc.trace_events);
      tau->registry().set_tracing(true);
    }
    mm->set_telemetry_session(handle.name());
    auto* tport = fw.services("mm").provided_as<TelemetryPort>("telemetry");
    tport->start_telemetry(handle.make_sink(), sc.telemetry_interval);

    auto* lu = fw.services("lu_proxy").provided_as<components::LuPort>("lu");
    for (int rep = 0; rep < sc.lu_reps; ++rep) {
      const components::LuResult res =
          lu->factor(sc.lu_n, sc.lu_block, sc.seed + static_cast<std::uint64_t>(rep));
      // Partial pivoting keeps the random matrix backward-stable: a loose
      // absolute bound still catches wrong math (typical residuals ~1e-13).
      CCAPERF_REQUIRE(res.residual_max < 1e-6, "lu session: residual too large");
      fnv_u64(r.physics_digest, res.digest);
      fnv_u64(r.physics_digest, res.row_swaps);
    }
    tport->stop_telemetry();
    r.telemetry_lines = tport->telemetry_lines();
    if (sc.trace) handle.add_trace(collect_rank_trace(tau->registry(), 0));
  }
  const auto t1 = std::chrono::steady_clock::now();
  r.wall_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
  return r;
}

}  // namespace

std::string SessionScenario::describe() const {
  if (kind == "lu")
    return "lu n=" + std::to_string(lu_n) + " b=" + std::to_string(lu_block) +
           " reps=" + std::to_string(lu_reps);
  std::string d = "amr " + std::to_string(nx) + "x" + std::to_string(ny) + " p" +
                  std::to_string(ranks) + " t" + std::to_string(threads) + " s" +
                  std::to_string(steps);
  if (!fault_plan.empty()) d += " faults=" + fault_plan;
  return d;
}

SessionResult run_session(SessionHandle& handle, const SessionScenario& sc) {
  CCAPERF_REQUIRE(handle.valid(), "run_session: closed handle");
  if (sc.kind == "lu") return run_lu_session(handle, sc);
  CCAPERF_REQUIRE(sc.kind == "amr", "run_session: unknown scenario kind");
  return run_amr_session(handle, sc);
}

}  // namespace core
