// Ablation: thread-parallel patch execution (DESIGN.md §9).
//
// Runs the instrumented fig01 simulation twice in-process — on 1 lane and on
// N lanes (default 8) — and reports the step-loop scaling plus the two
// determinism guarantees the threading design makes:
//
//  * physics_equal: the density fields of the serial and threaded runs are
//    bit-identical (every parallel loop partitions pure writes or exact
//    folds, so lane count cannot change a single ulp);
//  * counters_equal: merged measurement totals (timer call counts, monitor
//    record rows, summed Q) match the serial run exactly.
//
// Each run's rank main sets its own pool's lane count and reports the lanes
// it ran on (pool.lanes_used); a threaded run on fewer lanes than asked
// exits nonzero, since it would compare a serial run with a serial run.
//
// Correctness failures exit nonzero. scripts/bench_gate.py gates the
// determinism metrics everywhere and the speedup against a floor
// (bench/baselines/threads.json); the speedup is report-only on hosts with
// fewer than 3 hardware threads, where lanes only time-share a core.
//
// Results land in bench_out/threads.json.
//
// Environment: CCAPERF_BENCH_THREADS (default 8), CCAPERF_STEPS (default 8).

#include <chrono>
#include <cmath>
#include <thread>

#include "bench_common.hpp"
#include "components/app_assembly.hpp"

namespace {

struct RunResult {
  int lanes_used = 0;             ///< rank_pool() size the run stepped on
  double step_ms = 0.0;
  std::vector<double> field;      ///< all local cells, canonical order
  std::uint64_t timer_calls = 0;  ///< merged registry, all timers
  std::uint64_t record_rows = 0;  ///< monitor rows across proxy records
  double q_sum = 0.0;             ///< summed Q over those rows
};

/// One single-rank instrumented fig01 run at the given lane count. A
/// 1-rank run executes rank 0 on this thread, so the rank main rebuilds
/// the thread's pool rather than reuse the previous run's.
RunResult run_fig01(int threads, int steps) {
  components::AppConfig cfg = components::AppConfig::case_study();
  cfg.driver.nsteps = steps;
  cfg.driver.regrid_interval = 3;

  RunResult res;
  mpp::Runtime::run(1, mpp::NetworkModel::classic_cluster(),
                    [&](mpp::Comm& world) {
    ccaperf::set_rank_pool_threads(threads);
    core::InstrumentedApp app = core::assemble_instrumented_app(world, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    res.step_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    res.lanes_used = ccaperf::rank_pool().size();

    // Canonical field dump: levels outer, patch ids ascending (map order),
    // then (c, j, i) — identical layout for any lane count.
    auto* mesh =
        app.fw().services("driver").get_port_as<components::MeshPort>("mesh");
    amr::Hierarchy& h = mesh->hierarchy();
    for (int l = 0; l < h.num_levels(); ++l) {
      for (auto& [id, data] : h.level(l).local_data()) {
        const amr::Box box = h.level(l).patch(id).box;
        for (int c = 0; c < euler::kNcomp; ++c)
          for (int j = box.lo().j; j <= box.hi().j; ++j)
            for (int i = box.lo().i; i <= box.hi().i; ++i)
              res.field.push_back(data(i, j, c));
      }
    }

    // Merged measurement totals (worker shards have been folded into the
    // primary registry at region ends).
    const tau::Registry& reg = app.registry();
    for (std::size_t id = 0; id < reg.num_timers(); ++id)
      res.timer_calls += reg.calls(static_cast<tau::TimerId>(id));
    for (const char* key :
         {"sc_proxy::compute()", "efm_proxy::compute()", "g_proxy::compute()",
          "icc_proxy::ghost_update()", "icc_proxy::regrid()"}) {
      const core::Record* rec = app.mastermind->record(key);
      if (rec == nullptr) continue;
      for (std::size_t i = 0; i < rec->count(); ++i) {
        ++res.record_rows;
        const double q = rec->param_at(i, "Q");
        if (!std::isnan(q)) res.q_sum += q;
      }
    }
  });
  return res;
}

}  // namespace

int main() {
  const int threads =
      ccaperf::env_int<int>("CCAPERF_BENCH_THREADS", 2, 256).value_or(8);
  const int steps = ccaperf::env_int<int>("CCAPERF_STEPS", 1).value_or(8);
  const unsigned hw = std::thread::hardware_concurrency();

  std::cout << "Ablation: thread-parallel patch execution — fig01 step loop, "
            << steps << " steps, 1 rank, " << threads
            << " lanes (hardware_concurrency = " << hw << ")\n\n";

  const RunResult serial = run_fig01(1, steps);
  const RunResult mt = run_fig01(threads, steps);

  const bool physics_equal = serial.field == mt.field;
  const bool counters_equal = serial.timer_calls == mt.timer_calls &&
                              serial.record_rows == mt.record_rows &&
                              serial.q_sum == mt.q_sum;
  const double speedup = mt.step_ms > 0.0 ? serial.step_ms / mt.step_ms : 0.0;
  const double efficiency = speedup / threads;

  ccaperf::TextTable t;
  t.set_header({"quantity", "serial", std::to_string(threads) + " lanes"});
  t.add_row({"lanes used", std::to_string(serial.lanes_used),
             std::to_string(mt.lanes_used)});
  t.add_row({"step loop [ms]", ccaperf::fmt_double(serial.step_ms, 5),
             ccaperf::fmt_double(mt.step_ms, 5)});
  t.add_row({"timer calls", std::to_string(serial.timer_calls),
             std::to_string(mt.timer_calls)});
  t.add_row({"monitor rows", std::to_string(serial.record_rows),
             std::to_string(mt.record_rows)});
  t.add_row({"summed Q", ccaperf::fmt_double(serial.q_sum, 12),
             ccaperf::fmt_double(mt.q_sum, 12)});
  t.render(std::cout);
  std::cout << "\nspeedup: " << ccaperf::fmt_double(speedup, 2) << "x ("
            << ccaperf::fmt_double(100.0 * efficiency, 1)
            << "% efficiency)\nphysics bit-identical: "
            << (physics_equal ? "yes" : "NO")
            << "\nmerged counters equal:  " << (counters_equal ? "yes" : "NO")
            << '\n';
  if (hw < static_cast<unsigned>(threads))
    std::cout << "note: only " << hw << " hardware threads — speedup is not "
              << "meaningful on this box (correctness checks still hold)\n";

  bench::print_comparison(
      "threaded patch execution",
      {
          {"thread-count invariance", "merged view equals serial",
           physics_equal && counters_equal ? "bit-equal fields + counters"
                                           : "MISMATCH"},
          {"step-loop scaling", "near-linear on idle cores",
           ccaperf::fmt_double(speedup, 2) + "x on " + std::to_string(threads) +
               " lanes / " + std::to_string(hw) + " cores"},
      });

  bench::write_bench_json("bench_out/threads.json",
             {
                 {"fig01_step_loop", "serial_ms", serial.step_ms},
                 {"fig01_step_loop", "threaded_ms", mt.step_ms},
                 {"fig01_step_loop", "speedup", speedup},
                 {"fig01_step_loop", "efficiency", efficiency},
                 {"fig01_step_loop", "physics_equal", physics_equal ? 1.0 : 0.0},
                 {"fig01_step_loop", "counters_equal",
                  counters_equal ? 1.0 : 0.0},
                 {"pool", "threads", static_cast<double>(threads)},
                 {"pool", "lanes_used", static_cast<double>(mt.lanes_used)},
                 {"pool", "hardware_concurrency", static_cast<double>(hw)},
             });

  if (serial.lanes_used != 1 || mt.lanes_used != threads) {
    std::cout << "LANE COUNT NOT APPLIED: threaded run stepped on "
              << mt.lanes_used << " of " << threads << " lanes\n";
    return 1;
  }
  if (!physics_equal || !counters_equal) {
    std::cout << "THREAD DETERMINISM FAILED\n";
    return 1;
  }
  return 0;
}
