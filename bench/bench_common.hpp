#pragma once
// Shared machinery for the figure-reproduction benches (see DESIGN.md §4):
// synthetic patch workloads spanning the paper's Q range, an instrumented
// kernel rig (proxies + Mastermind + TAU on each rank), and table/series
// printing in a consistent format.
//
// Benches print a "paper vs measured" block at the end; EXPERIMENTS.md
// records the comparison.

#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "components/flux_components.hpp"
#include "components/states_component.hpp"
#include "core/instrumented_app.hpp"
#include "core/modeling.hpp"
#include "mpp/runtime.hpp"
#include "support/env.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace bench {

/// The paper sweeps array sizes up to ~1.5e5 elements (Figs. 4-8). We
/// generate near-square patch shapes whose ghost-inclusive cell count Q
/// spans that range.
struct PatchShape {
  amr::Box interior;
  std::size_t q = 0;  ///< cells including 2 ghost layers (the proxy's Q)
};

inline std::vector<PatchShape> paper_q_sweep(std::size_t q_max = 150'000,
                                             std::size_t q_min = 1'000,
                                             double factor = 1.35) {
  std::vector<PatchShape> shapes;
  for (double target = static_cast<double>(q_min);
       target <= static_cast<double>(q_max); target *= factor) {
    // Tall (1:4) patches: the strided (Y) sweep's cache reuse distance is
    // proportional to the column height, so it crosses the 512 kB cache
    // around Q ~ 7e4 — the same "arrays overflow the cache" crossover the
    // paper's 1-D data arrays exhibit (Figs. 4-5). Patches "can be of any
    // size or aspect ratio" (paper §5).
    const int w = std::max(8, static_cast<int>(std::sqrt(target) / 2.0));
    const int h = 4 * w;
    PatchShape s;
    s.interior = amr::Box{0, 0, w - 1, h - 1};
    s.q = static_cast<std::size_t>((w + 4)) * static_cast<std::size_t>(h + 4);
    shapes.push_back(s);
  }
  return shapes;
}

/// Fills a patch with a smooth-but-nontrivial flow (keeps the Riemann
/// iteration counts realistic for GodunovFlux).
inline amr::PatchData<double> workload_patch(const amr::Box& interior,
                                             const euler::GasModel& gas,
                                             std::uint64_t seed) {
  amr::PatchData<double> u(interior, 2, euler::kNcomp);
  ccaperf::Rng rng(seed);
  const amr::Box g = u.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j) {
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      // Mix of smooth gradients and occasional sharp jumps (shock-like).
      const bool jump = ((i / 16) % 3 == 0);
      const euler::Prim w{
          (jump ? 1.8 : 1.0) + 0.05 * std::sin(0.07 * i) + 0.04 * std::cos(0.05 * j),
          0.3 * std::sin(0.03 * i) + (jump ? 0.5 : 0.0),
          0.1 * std::cos(0.04 * j),
          (jump ? 2.4 : 1.0) + 0.02 * std::sin(0.06 * (i + j)),
          (i % 32 < 16) ? 1.0 : 0.0};
      double U[euler::kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < euler::kNcomp; ++c) u(i, j, c) = U[c];
      (void)rng;
    }
  }
  return u;
}

/// An instrumented kernel rig on one rank: States + EFMFlux + GodunovFlux
/// behind proxies, with Mastermind/TAU recording (the paper's measurement
/// path, minus the mesh).
struct KernelRig {
  cca::Framework fw;
  core::MastermindComponent* mm = nullptr;
  core::TauMeasurementComponent* tau = nullptr;
  components::StatesPort* states = nullptr;   // via sc_proxy
  components::FluxPort* godunov = nullptr;    // via g_proxy
  components::FluxPort* efm = nullptr;        // via efm_proxy

  explicit KernelRig(const euler::GasModel& gas) : fw(make_repo(gas)) {
    fw.instantiate("tau", "TauMeasurement");
    fw.instantiate("mm", "Mastermind");
    fw.instantiate("states", "States");
    fw.instantiate("godunov", "GodunovFlux");
    fw.instantiate("efm", "EFMFlux");
    fw.instantiate("sc_proxy", "StatesProxy");
    fw.instantiate("g_proxy", "GodunovProxy");
    fw.instantiate("efm_proxy", "EfmProxy");
    fw.connect("mm", "measurement", "tau", "measurement");
    for (const char* p : {"sc_proxy", "g_proxy", "efm_proxy"})
      fw.connect(p, "monitor", "mm", "monitor");
    fw.connect("sc_proxy", "states_real", "states", "states");
    fw.connect("g_proxy", "flux_real", "godunov", "flux");
    fw.connect("efm_proxy", "flux_real", "efm", "flux");
    mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
    tau = dynamic_cast<core::TauMeasurementComponent*>(&fw.component("tau"));
    states = fw.services("sc_proxy").provided_as<components::StatesPort>("states");
    godunov = fw.services("g_proxy").provided_as<components::FluxPort>("flux");
    efm = fw.services("efm_proxy").provided_as<components::FluxPort>("flux");
  }

  static cca::ComponentRepository make_repo(const euler::GasModel& gas) {
    cca::ComponentRepository repo;
    repo.register_class("TauMeasurement", [] {
      return std::make_unique<core::TauMeasurementComponent>();
    });
    repo.register_class("Mastermind",
                        [] { return std::make_unique<core::MastermindComponent>(); });
    repo.register_class("States", [gas] {
      return std::make_unique<components::StatesComponent>(gas);
    });
    repo.register_class("GodunovFlux", [gas] {
      return std::make_unique<components::GodunovFluxComponent>(gas);
    });
    repo.register_class("EFMFlux", [gas] {
      return std::make_unique<components::EFMFluxComponent>(gas);
    });
    repo.register_class("StatesProxy",
                        [] { return std::make_unique<core::StatesProxy>(); });
    repo.register_class("GodunovProxy", [] {
      return std::make_unique<core::FluxProxy>("g_proxy::compute()");
    });
    repo.register_class("EfmProxy", [] {
      return std::make_unique<core::FluxProxy>("efm_proxy::compute()");
    });
    return repo;
  }

  /// One full States (+ optionally flux) invocation pair through the
  /// proxies in the given direction.
  void invoke(const amr::PatchData<double>& u, euler::Dir dir,
              components::FluxPort* flux) {
    const amr::Box interior = u.interior();
    int nx = 0, ny = 0;
    euler::face_dims(interior, dir, nx, ny);
    euler::Array2 l(nx, ny, euler::kNcomp), r(nx, ny, euler::kNcomp);
    states->compute(u, interior, dir, l, r);
    if (flux != nullptr) {
      euler::Array2 f(nx, ny, euler::kNcomp);
      flux->compute(l, r, dir, f);
    }
  }
};

/// Samples of one record as core::Sample points for the chosen metric.
inline std::vector<core::Sample> record_samples(const core::Record& rec,
                                                core::Record::Metric metric) {
  std::vector<core::Sample> out;
  for (auto [q, t] : rec.samples("Q", metric)) out.push_back({q, t});
  return out;
}

/// Result of a "3 processors" kernel sweep (the paper ran each component
/// on 3 cluster nodes; we run 3 independent measurement passes — on this
/// in-process substrate concurrent rank threads would share one CPU, so
/// passes run back-to-back, preserving per-proc independence without
/// scheduler-induced cross-talk).
struct SweepResult {
  /// Per-proc (Q, wall_us) samples, both access modes interleaved.
  std::vector<std::vector<core::Sample>> by_proc;
  /// All procs merged.
  std::vector<core::Sample> all;
  /// Merged, split by access mode: [0] = sequential (X), [1] = strided (Y).
  std::vector<core::Sample> by_mode[2];
};

/// Sweeps one monitored component over the paper's Q range.
/// `which`: "states", "godunov" or "efm".
inline SweepResult sweep_component(const std::string& which, int nprocs, int reps,
                                   std::size_t q_max = 150'000) {
  const euler::GasModel gas;
  const auto shapes = paper_q_sweep(q_max);
  SweepResult result;
  result.by_proc.resize(static_cast<std::size_t>(nprocs));

  const std::string record_key = which == "states"    ? "sc_proxy::compute()"
                                 : which == "godunov" ? "g_proxy::compute()"
                                                      : "efm_proxy::compute()";
  for (int proc = 0; proc < nprocs; ++proc) {
    KernelRig rig(gas);
    components::FluxPort* flux = which == "godunov" ? rig.godunov
                                 : which == "efm"   ? rig.efm
                                                    : nullptr;
    std::size_t shape_id = 0;
    for (const PatchShape& shape : shapes) {
      const auto u = workload_patch(
          shape.interior, gas,
          0xbeef + static_cast<std::uint64_t>(proc) * 131 + shape_id++);
      for (int rep = 0; rep < reps; ++rep) {
        rig.invoke(u, euler::Dir::x, flux);
        rig.invoke(u, euler::Dir::y, flux);
      }
    }
    const core::Record* rec = rig.mm->record(record_key);
    CCAPERF_REQUIRE(rec != nullptr, "sweep: record missing");
    for (std::size_t i = 0; i < rec->count(); ++i) {
      const core::Sample s{rec->param_at(i, "Q"), rec->wall_us(i)};
      result.by_proc[static_cast<std::size_t>(proc)].push_back(s);
      result.all.push_back(s);
      result.by_mode[rec->param_at(i, "mode") > 0.5 ? 1 : 0].push_back(s);
    }
  }
  return result;
}

/// Resolves a generated-figure filename to its output directory
/// (CCAPERF_FIG_DIR, default bench_out/figs — gitignored), creating the
/// directory on first use. Generated CSVs never land in the repo root.
inline std::string fig_path(const std::string& filename) {
  const std::string dir =
      ccaperf::env_text("CCAPERF_FIG_DIR").value_or("bench_out/figs");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // EEXIST and races are fine
  return dir + "/" + filename;
}

/// Writes a data series as CSV (under fig_path) next to the bench's stdout
/// table, for the gnuplot scripts in plots/. Returns the path.
inline std::string write_series_csv(const std::string& filename,
                                    const std::vector<std::string>& header,
                                    const std::vector<std::vector<std::string>>& rows) {
  const std::string path = fig_path(filename);
  std::ofstream os(path);
  ccaperf::CsvWriter csv(os);
  csv.row(header);
  for (const auto& r : rows) csv.row(r);
  std::cout << "series written to " << path << '\n';
  return path;
}

/// One gateable data point for scripts/bench_gate.py: benches write a list
/// of these to bench_out/<name>.json and the checked-in baseline in
/// bench/baselines/<name>.json selects which metrics are gated.
struct JsonEntry {
  std::string name;
  std::string metric;
  double value = 0.0;
};

inline void write_bench_json(const std::string& path,
                             const std::vector<JsonEntry>& entries) {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream os(path);
  if (!os) {
    std::cout << "warning: cannot open " << path << " (run from the repo root)\n";
    return;
  }
  os << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << "  {\"name\": \"" << entries[i].name << "\", \"metric\": \""
       << entries[i].metric << "\", \"value\": " << entries[i].value << "}"
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "]\n";
  std::cout << "series written to " << path << '\n';
}

/// One row of the paper-vs-measured comparison block.
struct Comparison {
  std::string quantity;
  std::string paper;
  std::string measured;
};

/// Prints a paper-comparison block in a consistent format.
inline void print_comparison(const std::string& what,
                             const std::vector<Comparison>& rows) {
  std::cout << "\n--- paper vs measured: " << what << " ---\n";
  ccaperf::TextTable t;
  t.set_header({"quantity", "paper", "measured"});
  for (const Comparison& r : rows) t.add_row({r.quantity, r.paper, r.measured});
  t.render(std::cout);
}

}  // namespace bench
