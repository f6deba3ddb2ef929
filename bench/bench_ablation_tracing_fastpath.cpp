// Ablation — tracing fast paths: batched cache simulation and SIMD raw
// kernels (DESIGN.md §11).
//
// The paper's measurement harness must not distort what it measures:
// "these instrumentation related overheads are small" (§4). Two layers
// shape the traced-vs-raw gap, each gated against bench/baselines/:
//
//   batched  — access_run collapses strided element runs into per-line
//              work with counters bit-identical to an element-by-element
//              `access` loop (tests/hwc/test_access_run.cpp). Traced
//              sweeps always run the scalar kernel, so the raw scalar
//              sweep is the uninstrumented reference: traced_over_raw_scalar
//              (batched traced / raw scalar, lower is better) is the cost
//              of the cache simulation itself, and a batching regression
//              shows there;
//   SIMD     — the raw path dispatches to AVX2/AVX-512 kernels selected at
//              startup (CCAPERF_SIMD), bit-identical to the scalar
//              reference, so the raw denominator itself speeds up
//              (simd_raw_speedup).
//
// This bench times the States sequential (X) sweep at Q ~ 1e5 raw (per
// compiled ISA) and batched traced, and records the series in
// bench_out/tracing_fastpath.json. Timing is best-of-5 blocks per
// configuration with the blocks round-robin interleaved across
// configurations (the bench_ablation_ranks minimum-of-blocks protocol,
// plus interleaving so ambient load hits every config alike: contention
// only ever adds time, so per-config minima over shared load epochs are
// the honest estimate).

#include <chrono>
#include <functional>

#include "bench_common.hpp"
#include "euler/simd.hpp"

namespace {

/// One timed configuration: a closure running a single States sweep, and
/// the best per-sweep time seen so far. Configurations are timed in
/// interleaved round-robin blocks (see time_all): sequential per-config
/// timing reads ambient load spikes as config differences, because the
/// configs are measured minutes apart; interleaving makes every config
/// sample the same load epochs, and the per-config minimum then compares
/// like with like (contention only ever adds time).
struct TimedConfig {
  std::string name;
  std::function<void()> sweep;
  double best_us = 1e300;
};

/// Best-of-`blocks` timed blocks of `reps` sweeps per configuration,
/// round-robin interleaved. Each config gets one untimed warmup sweep.
void time_all(std::vector<TimedConfig>& cfgs, int blocks, int reps) {
  for (auto& c : cfgs) c.sweep();  // warmup
  for (int b = 0; b < blocks; ++b)
    for (auto& c : cfgs) {
      const auto t0 = std::chrono::steady_clock::now();
      for (int rep = 0; rep < reps; ++rep) c.sweep();
      const auto t1 = std::chrono::steady_clock::now();
      c.best_us = std::min(
          c.best_us,
          std::chrono::duration<double, std::micro>(t1 - t0).count() / reps);
    }
}

}  // namespace

int main() {
  const euler::GasModel gas;
  namespace simd = euler::simd;

  // The shape from the paper sweep closest to Q = 1e5 (the top of the
  // paper's array-size range, where tracing overhead hurts the most).
  bench::PatchShape shape{};
  for (const auto& s : bench::paper_q_sweep())
    if (shape.q == 0 ||
        std::abs(static_cast<double>(s.q) - 1e5) <
            std::abs(static_cast<double>(shape.q) - 1e5))
      shape = s;
  const auto u = bench::workload_patch(shape.interior, gas, 7);
  int nx = 0, ny = 0;
  euler::face_dims(shape.interior, euler::Dir::x, nx, ny);
  euler::Array2 l(nx, ny, euler::kNcomp), r(nx, ny, euler::kNcomp);

  std::cout << "Ablation: tracing fast paths — States sequential sweep, Q = "
            << shape.q << "\n\n";

  const int blocks = 5, reps = 3;

  const simd::Isa top = simd::highest_supported();

  // Raw wall-clock per compiled-and-supported ISA level; the highest one
  // is the production raw configuration every slowdown is measured against.
  // Traced configurations run the scalar kernel whatever the active ISA
  // level (a cache-traced call never dispatches to a SIMD unit), so their
  // cost is the scalar arithmetic plus the cache simulation.
  // The cache is the paper's 512 kB Xeon L2 — the one Figs. 4-5 model.
  hwc::NullProbe null_probe;
  hwc::CacheSim cache(512 * 1024, 64, 8);
  hwc::CacheProbe probe(&cache);

  std::vector<TimedConfig> cfgs;
  for (simd::Isa isa : {simd::Isa::scalar, simd::Isa::avx2, simd::Isa::avx512}) {
    if (isa > top) break;
    cfgs.push_back({std::string("raw_") + simd::isa_name(isa), [&, isa] {
                      simd::set_isa(isa);
                      euler::compute_states(u, shape.interior, euler::Dir::x,
                                            gas, l, r, null_probe);
                    }});
  }
  cfgs.push_back({"batched", [&] {
                    euler::compute_states(u, shape.interior, euler::Dir::x, gas,
                                          l, r, probe);
                  }});
  time_all(cfgs, blocks, reps);
  simd::set_isa(top);

  auto best = [&](const std::string& name) {
    for (const auto& c : cfgs)
      if (c.name == name) return c.best_us;
    CCAPERF_REQUIRE(false, "unknown bench configuration");
    return 0.0;
  };
  const double raw_scalar_us = best("raw_scalar");
  const double raw_us = best(std::string("raw_") + simd::isa_name(top));
  const double simd_speedup = raw_scalar_us / raw_us;
  const double batched_us = best("batched");
  std::vector<std::pair<std::string, double>> raw_by_isa;
  for (const auto& c : cfgs)
    if (c.name.rfind("raw_", 0) == 0)
      raw_by_isa.emplace_back(c.name.substr(4), c.best_us);

  const double slowdown_batched = batched_us / raw_us;
  const double traced_over_raw_scalar = batched_us / raw_scalar_us;

  ccaperf::TextTable t;
  t.set_header({"configuration", "us/sweep", "slowdown vs raw"});
  for (const auto& [name, us] : raw_by_isa)
    t.add_row({"raw (" + name + ")", ccaperf::fmt_double(us, 6),
               ccaperf::fmt_double(us / raw_us, 4)});
  t.add_row({"traced, batched runs", ccaperf::fmt_double(batched_us, 6),
             ccaperf::fmt_double(slowdown_batched, 4)});
  t.render(std::cout);
  std::cout << "\nraw SIMD speedup (" << simd::isa_name(top)
            << " vs scalar): " << ccaperf::fmt_double(simd_speedup, 4) << "x\n"
            << "batched traced / raw scalar: "
            << ccaperf::fmt_double(traced_over_raw_scalar, 4) << "x\n";

  bench::print_comparison(
      "tracing overhead",
      {{"instrumentation overhead", "\"small\" (paper section 4)",
        ccaperf::fmt_double(slowdown_batched, 3) + "x traced-vs-raw"}});

  std::vector<bench::JsonEntry> entries{
      {"tracing_fastpath", "q", static_cast<double>(shape.q)},
      {"tracing_fastpath", "raw_scalar_us_per_sweep", raw_scalar_us},
      {"tracing_fastpath", "raw_us_per_sweep", raw_us},
      {"tracing_fastpath", "simd_raw_speedup", simd_speedup},
      {"tracing_fastpath", "batched_traced_us_per_sweep", batched_us},
      {"tracing_fastpath", "slowdown_batched_vs_raw", slowdown_batched},
      {"tracing_fastpath", "traced_over_raw_scalar", traced_over_raw_scalar}};
  for (const auto& [name, us] : raw_by_isa)
    entries.push_back(
        {"tracing_fastpath", "raw_us_per_sweep_" + std::string(name), us});
  bench::write_bench_json("bench_out/tracing_fastpath.json", entries);
  return 0;
}
