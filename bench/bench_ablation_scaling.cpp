// Ablation — communication/computation balance vs rank count.
//
// Paper §5: "message passing times are generally comparable to the purely
// computational loads of States and GodunovFlux, and it is unlikely that
// the code, in the current configuration ... will scale well. This is
// also borne out by Fig. 3 where almost a quarter of the time is shown to
// be spent in message passing."
//
// Wall-clock speedup is not measurable on this substrate (rank threads
// time-share one CPU), but the paper's actual argument — the MPI share of
// each rank's time and the message volume both grow with the rank count
// on a fixed problem — is, and this bench measures it.

#include "bench_common.hpp"
#include "components/app_assembly.hpp"
#include "tau/profile.hpp"

namespace {

struct ScalePoint {
  int nranks;
  double mpi_share = 0.0;      // mean over ranks: MPI group / total time
  double messages = 0.0;       // total messages sent (sum over ranks)
  double proxy_compute_us = 0.0;  // mean monitored kernel compute time
};

ScalePoint run_at(int nranks) {
  components::AppConfig cfg = components::AppConfig::case_study();
  cfg.driver.nsteps = 4;
  cfg.driver.regrid_interval = 0;

  ScalePoint point;
  point.nranks = nranks;
  std::vector<double> shares(static_cast<std::size_t>(nranks), 0.0);
  std::vector<double> msgs(static_cast<std::size_t>(nranks), 0.0);
  std::vector<double> compute(static_cast<std::size_t>(nranks), 0.0);

  mpp::Runtime::run(nranks, mpp::NetworkModel::classic_cluster(),
                    [&](mpp::Comm& world) {
    auto app = core::assemble_instrumented_app(world, cfg);
    tau::Registry& reg = app.registry();
    const auto root = reg.timer("int main(int, char **)");
    reg.start(root);
    app.fw().services("driver").provided_as<components::GoPort>("go")->go();
    reg.stop(root);

    const std::size_t me = static_cast<std::size_t>(world.rank());
    shares[me] = reg.group_inclusive_us(tau::kMpiGroup) / reg.inclusive_us(root);
    const auto isend = reg.timer("MPI_Isend()", tau::kMpiGroup);
    msgs[me] = static_cast<double>(reg.calls(isend));
    for (const char* key : {"sc_proxy::compute()", "g_proxy::compute()"}) {
      const core::Record* rec = app.mastermind->record(key);
      if (rec == nullptr) continue;
      for (std::size_t i = 0; i < rec->count(); ++i) compute[me] += rec->compute_us(i);
    }
  });
  for (int r = 0; r < nranks; ++r) {
    point.mpi_share += shares[static_cast<std::size_t>(r)] / nranks;
    point.messages += msgs[static_cast<std::size_t>(r)];
    point.proxy_compute_us += compute[static_cast<std::size_t>(r)] / nranks;
  }
  return point;
}

}  // namespace

int main() {
  std::cout << "Ablation: fixed case-study problem, growing rank count "
               "(classic-cluster network model)\n\n";
  ccaperf::TextTable t;
  t.set_header({"ranks", "mean MPI share", "messages sent", "mean kernel compute (ms)"});
  std::vector<ScalePoint> points;
  for (int n : {1, 2, 3, 4}) {
    points.push_back(run_at(n));
    const ScalePoint& p = points.back();
    t.add_row({std::to_string(p.nranks),
               ccaperf::fmt_double(100.0 * p.mpi_share, 3) + "%",
               ccaperf::fmt_double(p.messages, 6),
               ccaperf::fmt_double(p.proxy_compute_us / 1000.0, 5)});
  }
  t.render(std::cout);

  bench::print_comparison(
      "scaling ablation (paper Section 5)",
      {
          {"comm comparable to compute", "message times ~ kernel times",
           "MPI share " + ccaperf::fmt_double(100.0 * points[2].mpi_share, 3) +
               "% at 3 ranks"},
          {"scaling outlook", "unlikely to scale well in this configuration",
           "MPI share grows " + ccaperf::fmt_double(100.0 * points[0].mpi_share, 3) +
               "% -> " + ccaperf::fmt_double(100.0 * points.back().mpi_share, 3) +
               "% from 1 to 4 ranks on the fixed problem"},
          {"message volume", "-",
           ccaperf::fmt_double(points[0].messages, 6) + " -> " +
               ccaperf::fmt_double(points.back().messages, 6) + " messages"},
      });
  return 0;
}
