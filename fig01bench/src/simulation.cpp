#include "simulation.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "chain_hooks.hpp"
#include "cpu_placement.hpp"
#include "core/instrumented_app.hpp"
#include "interposers.hpp"
#include "mpp/runtime.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "timed_sink.hpp"

namespace fig01bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;
/// Records per telemetry line: the hub sessions' default (run_session).
constexpr std::uint64_t kTelemetryInterval = 8;
/// Trace ring per rank, sized so a whole simulation fits without overwrite.
constexpr std::size_t kTraceEvents = std::size_t{1} << 18;
/// The hub session every instrumented simulation reopens.
constexpr const char* kSession = "fig01bench";

void fnv_u64(std::uint64_t& h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {
    h ^= static_cast<std::uint8_t>(v >> (8 * b));
    h *= 1099511628211ull;
  }
}

std::uint64_t rank_density_digest(amr::Hierarchy& h) {
  std::uint64_t d = kFnvBasis;
  for (int l = 0; l < h.num_levels(); ++l) {
    for (auto& [id, data] : h.level(l).local_data()) {
      fnv_u64(d, static_cast<std::uint64_t>(l));
      fnv_u64(d, static_cast<std::uint64_t>(id));
      const amr::Box box = h.level(l).patch(id).box;
      for (int j = box.lo().j; j <= box.hi().j; ++j)
        for (int i = box.lo().i; i <= box.hi().i; ++i) {
          std::uint64_t bits;
          const double rho = data(i, j, euler::kRho);
          std::memcpy(&bits, &rho, sizeof bits);
          fnv_u64(d, bits);
        }
    }
  }
  return d;
}

double cell_updates(amr::Hierarchy& h) {
  double cells = 0.0, subcycles = 1.0;
  for (int l = 0; l < h.num_levels(); ++l) {
    cells += static_cast<double>(h.level(l).total_cells()) * subcycles;
    subcycles *= h.config().ratio;
  }
  return cells;
}

/// CPU time of the program's threads: the process's, less the idle pollers'.
double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec) -
         IdlePollers::cpu_s();
}

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

struct RankOut {
  double setup_us = 0.0;
  std::vector<double> step_us;
  std::vector<double> cells;
  std::uint64_t digest = 0;
  Totals ledger;
  Totals threads;
  double cpu_s = 0.0;
  std::uint64_t trace_events = 0;
  std::uint64_t trace_dropped = 0;
  std::uint64_t telemetry_lines = 0;
};

/// The stepping loop shared by every assembly. `mesh` and `integrator` are
/// the providers the driver's uses ports are connected to.
void step_loop(const SimSpec& spec, components::MeshPort& mesh,
               components::IntegratorPort& integrator, bool rank0, RankOut& out) {
  const components::DriverConfig& drv = spec.cfg.driver;
  out.step_us.reserve(static_cast<std::size_t>(spec.run_steps));
  for (int step = 1; step <= spec.run_steps; ++step) {
    if (rank0) out.cells.push_back(cell_updates(mesh.hierarchy()));
    const double cpu0 = spec.traced && rank0 ? process_cpu_s() : 0.0;
    const Clock::time_point t0 = Clock::now();
    integrator.advance(integrator.stable_dt(drv.cfl));
    if (drv.regrid_interval > 0 && step % drv.regrid_interval == 0 && step < kSteps)
      mesh.regrid();
    out.step_us.push_back(us_since(t0));
    if (spec.traced && rank0) out.cpu_s += process_cpu_s() - cpu0;
    if (step == kDigestStep) out.digest = rank_density_digest(mesh.hierarchy());
  }
}

/// Steps an assembled framework, with the ledger and chained hooks when
/// traced. Both are set up after initialize(), so set-up is not stepped
/// time.
void drive(const SimSpec& spec, cca::Framework& fw, bool rank0, RankOut& out,
           const std::function<void()>& before_steps,
           const std::function<void()>& after_steps) {
  auto* mesh = fw.services("driver").get_port_as<components::MeshPort>("mesh");
  auto* integrator =
      fw.services("driver").get_port_as<components::IntegratorPort>("integrator");
  mesh->initialize();
  if (!spec.traced) {
    before_steps();
    step_loop(spec, *mesh, *integrator, rank0, out);
    after_steps();
    return;
  }
  ChainHooks hooks;
  mpp::HooksInstaller installer(&hooks);
  SpanStack& own = thread_stack();
  const bool all = spec.lanes > 1;
  const Totals own0 = own.totals();
  const Totals all0 = all ? all_stacks_totals() : Totals{};
  before_steps();
  step_loop(spec, *mesh, *integrator, rank0, out);
  after_steps();
  out.ledger = own.totals() - own0;
  out.threads = all ? all_stacks_totals() - all0 : out.ledger;
}

void run_plain_rank(const SimSpec& spec, mpp::Comm& world, RankOut& out) {
  IdlePollers::pin_program_thread(world.rank());
  world.barrier();  // set-up starts together on every rank, not at thread spawn
  const Clock::time_point t0 = Clock::now();
  ccaperf::set_rank_pool_threads(spec.lanes);
  pin_pool_lanes(spec.lanes);
  std::unique_ptr<cca::Framework> fw = components::assemble_app(world, spec.cfg);
  if (spec.traced) insert_interposers(*fw, false);
  auto noop = [] {};
  drive(spec, *fw, world.rank() == 0, out, [&] { out.setup_us = us_since(t0); }, noop);
}

void run_instrumented_rank(const SimSpec& spec, mpp::Comm& world,
                           core::SessionHandle& handle, RankOut& out) {
  IdlePollers::pin_program_thread(world.rank());
  world.barrier();
  const Clock::time_point t0 = Clock::now();
  ccaperf::set_rank_pool_threads(spec.lanes);
  pin_pool_lanes(spec.lanes);
  core::InstrumentedApp app = core::assemble_instrumented_app(world, spec.cfg);
  tau::Registry& reg = app.registry();
  reg.set_trace_capacity(kTraceEvents);
  reg.set_tracing(true);
  app.tau->sync_shard_tracing();
  app.mastermind->set_telemetry_session(handle.name());
  std::ostream& hub_sink = handle.make_sink();
  std::optional<TimedLineSink> timed;
  if (spec.traced) {
    timed.emplace(hub_sink);
    insert_interposers(app.fw(), true);
  }
  auto* tport = app.fw().services("mastermind").provided_as<core::TelemetryPort>("telemetry");
  tport->start_telemetry(timed ? static_cast<std::ostream&>(*timed) : hub_sink,
                         kTelemetryInterval);
  std::uint64_t events0 = 0;
  drive(
      spec, app.fw(), world.rank() == 0, out,
      [&] {
        out.setup_us = us_since(t0);
        events0 = reg.trace().total();
      },
      [&] {
        out.trace_events = reg.trace().total() - events0;
        out.trace_dropped = reg.trace().dropped();
      });
  tport->stop_telemetry();
  out.telemetry_lines = tport->telemetry_lines();
}

}  // namespace

components::AppConfig make_config(std::uint64_t seed) {
  components::AppConfig cfg = components::AppConfig::case_study();
  ccaperf::Rng rng(seed);
  cfg.problem.amplitude = rng.uniform(0.03002, 0.03078);
  cfg.problem.mode = 2;
  return cfg;
}

SimResult run_sim(const SimSpec& spec) {
  if (spec.lanes > 1 && spec.ranks != 1)
    throw std::invalid_argument("run_sim: pool lanes need a single rank");
  if (spec.instrumented && spec.hub == nullptr)
    throw std::invalid_argument("run_sim: instrumented run without a hub");

  std::vector<RankOut> ranks(static_cast<std::size_t>(spec.ranks));
  double session_open_us = 0.0;
  core::SessionHandle handle;
  if (spec.instrumented) {
    const Clock::time_point t0 = Clock::now();
    handle = spec.hub->open_session(kSession, "amr");
    session_open_us = us_since(t0);
  }

  mpp::RunOptions opts;
  opts.net = mpp::NetworkModel::null_model();
  mpp::Runtime::run(spec.ranks, opts, [&](mpp::Comm& world) {
    RankOut& out = ranks[static_cast<std::size_t>(world.rank())];
    if (spec.instrumented)
      run_instrumented_rank(spec, world, handle, out);
    else
      run_plain_rank(spec, world, out);
  });

  SimResult r;
  r.step_us.assign(static_cast<std::size_t>(spec.run_steps), 0.0);
  r.digest = kFnvBasis;
  for (const RankOut& o : ranks) {
    r.setup_s = std::max(r.setup_s, o.setup_us * 1e-6);
    for (std::size_t i = 0; i < r.step_us.size(); ++i)
      r.step_us[i] = std::max(r.step_us[i], o.step_us[i]);
    fnv_u64(r.digest, o.digest);
    if (spec.traced) {
      r.rank_ledger.push_back(o.ledger);
      double sum = 0.0;
      for (const double s : o.step_us) sum += s;
      r.rank_step_us.push_back(sum);
      r.all_threads += o.threads;
    }
    r.trace_events += o.trace_events;
    r.trace_dropped += o.trace_dropped;
    r.telemetry_lines += o.telemetry_lines;
  }
  r.setup_s += session_open_us * 1e-6;
  r.cell_updates = ranks[0].cells;
  if (spec.traced) {
    r.process_cpu_s = ranks[0].cpu_s;
    r.rank0_wall_s = r.rank_step_us[0] * 1e-6;
  }

  if (spec.instrumented) {
    const core::SessionId id = handle.id();
    handle.close();
    const core::SessionStats st = spec.hub->session_stats(id);
    r.hub_published = st.published;
    r.hub_dropped = st.dropped_ring + st.dropped_evicted;
  }
  return r;
}

}  // namespace fig01bench
