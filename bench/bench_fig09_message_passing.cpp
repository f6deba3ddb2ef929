// Fig. 9 — "Message passing time for different levels of the grid
// hierarchy for the 3 processors. We see a clustering of message passing
// times ... The grid hierarchy was subjected to a re-grid step during the
// simulation which resulted in a different domain decomposition and
// consequently message passing times. ... the substantial scatter is
// caused by fluctuating network loads."
//
// Runs the instrumented app on 3 ranks; the AMRMesh proxy records each
// ghost-cell update's MPI time together with the hierarchy level. One
// regrid happens mid-run, splitting the per-level clusters.

#include <map>

#include "bench_common.hpp"
#include "components/app_assembly.hpp"

int main() {
  constexpr int kRanks = 3;
  components::AppConfig cfg = components::AppConfig::case_study();
  cfg.driver.nsteps = 8;
  cfg.driver.regrid_interval = 4;  // exactly one mid-run regrid (step 4)

  // Collected per rank: (level, invocation index, mpi_us).
  struct Obs {
    int level;
    std::size_t seq;
    double mpi_us;
  };
  std::vector<std::vector<Obs>> observations(kRanks);

  mpp::Runtime::run(kRanks, mpp::NetworkModel::classic_cluster(),
                    [&](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, cfg);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    const core::Record* rec = app.mastermind->record("icc_proxy::ghost_update()");
    CCAPERF_REQUIRE(rec != nullptr, "no ghost_update record");
    auto& mine = observations[static_cast<std::size_t>(world.rank())];
    std::size_t seq = 0;
    for (std::size_t i = 0; i < rec->count(); ++i)
      mine.push_back(Obs{static_cast<int>(rec->param_at(i, "level")), seq++,
                         rec->mpi_us(i)});
  });

  std::cout << "Fig. 9: per-ghost-update MPI time by hierarchy level "
               "(microseconds). One regrid at mid-run.\n\n";
  ccaperf::TextTable t;
  t.set_header({"rank", "level", "phase", "N", "mean us", "sd us", "min", "max"});
  // Split each rank's series at the regrid (half the invocations, since
  // steps are uniform).
  std::map<std::pair<int, int>, std::pair<double, double>> phase_means;
  for (int rank = 0; rank < kRanks; ++rank) {
    const auto& obs = observations[static_cast<std::size_t>(rank)];
    const std::size_t split = obs.empty() ? 0 : obs[obs.size() / 2].seq;
    for (int level = 0; level < 3; ++level) {
      for (int phase = 0; phase < 2; ++phase) {
        ccaperf::RunningStats s;
        for (const auto& o : obs) {
          if (o.level != level) continue;
          const bool late = o.seq >= split;
          if ((phase == 1) == late) s.add(o.mpi_us);
        }
        if (s.count() == 0) continue;
        t.add_row({std::to_string(rank), std::to_string(level),
                   phase == 0 ? "pre-regrid" : "post-regrid",
                   std::to_string(s.count()), ccaperf::fmt_double(s.mean(), 5),
                   ccaperf::fmt_double(s.sample_stddev(), 4),
                   ccaperf::fmt_double(s.min(), 5),
                   ccaperf::fmt_double(s.max(), 5)});
        if (rank == 0)
          (phase == 0 ? phase_means[{level, 0}].first
                      : phase_means[{level, 0}].second) = s.mean();
      }
    }
  }
  t.render(std::cout);

  std::vector<std::vector<std::string>> csv_rows;
  for (int rank = 0; rank < kRanks; ++rank)
    for (const auto& o : observations[static_cast<std::size_t>(rank)])
      csv_rows.push_back({std::to_string(rank), std::to_string(o.level),
                          std::to_string(o.seq),
                          ccaperf::fmt_double(o.mpi_us, 9)});
  bench::write_series_csv("fig09_message_passing.csv",
                          {"rank", "level", "invocation", "mpi_us"}, csv_rows);

  // Scatter and clustering summary.
  double shift0 = 0.0, shift2 = 0.0;
  if (phase_means.count({0, 0}))
    shift0 = phase_means[{0, 0}].second / std::max(1e-9, phase_means[{0, 0}].first);
  if (phase_means.count({2, 0}))
    shift2 = phase_means[{2, 0}].second / std::max(1e-9, phase_means[{2, 0}].first);

  bench::print_comparison(
      "Fig. 9 (ghost-update message-passing times)",
      {
          {"per-level clustering", "times cluster by level",
           "see per-level means above"},
          {"regrid splits clusters",
           "clustering at levels 0 and 2 after one re-grid",
           "post/pre mean ratio: L0 = " + ccaperf::fmt_double(shift0, 3) +
               ", L2 = " + ccaperf::fmt_double(shift2, 3)},
          {"scatter source", "fluctuating network loads",
           "modeled log-normal jitter (sd columns)"},
          {"comparable to compute loads",
           "message times ~ States/Godunov compute times",
           "cross-check bench_fig06/07 outputs"},
      });
  return 0;
}
