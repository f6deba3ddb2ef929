// Writing your own monitored component: the full PMM workflow for a
// user-defined port type, mirroring §4.2's recipe — define the port,
// implement the component, write the (mechanical) proxy on core::ProxyOf,
// wire TAU + Mastermind, extract the performance parameter, and fit a
// model.
//
//   ./examples/custom_component

#include <iostream>
#include <vector>

#include "core/mastermind.hpp"
#include "core/modeling.hpp"
#include "core/ports.hpp"
#include "core/proxies.hpp"
#include "core/tau_component.hpp"
#include "support/table.hpp"

namespace {

// --- 1. the port: a dense matrix-vector multiply service --------------------

class MatVecPort : public cca::Port {
 public:
  /// y = A x for a row-major n x n matrix.
  virtual void apply(const std::vector<double>& a, const std::vector<double>& x,
                     std::vector<double>& y) = 0;
};

// --- 2. the component --------------------------------------------------------

class MatVecComponent final : public cca::Component, public MatVecPort {
 public:
  void setServices(cca::Services& svc) override {
    svc.add_provides_port(cca::non_owning(static_cast<MatVecPort*>(this)),
                          "matvec", "demo.MatVecPort");
  }
  void apply(const std::vector<double>& a, const std::vector<double>& x,
             std::vector<double>& y) override {
    const std::size_t n = x.size();
    for (std::size_t i = 0; i < n; ++i) {
      double s = 0.0;
      for (std::size_t j = 0; j < n; ++j) s += a[i * n + j] * x[j];
      y[i] = s;
    }
  }
};

// --- 3. the proxy: same interface, monitored forward -------------------------
// Mechanical given the header; "it is not difficult to envision proxy
// creation being fully automated" (§4.2). core::ProxyOf does the wiring;
// the proxy names its port, the monitored method and its performance
// parameter — here N (the matrix dimension), chosen by "someone with a
// knowledge of the algorithm": cost is O(N^2).

class MatVecProxy final : public core::ProxyOf<MatVecPort> {
 public:
  MatVecProxy() : ProxyOf("matvec", "demo.MatVecPort", {{"mv_proxy::apply()", {"N"}}}) {}

  void apply(const std::vector<double>& a, const std::vector<double>& x,
             std::vector<double>& y) override {
    monitored(0, {static_cast<double>(x.size())},
              [&](MatVecPort& real) { real.apply(a, x, y); });
  }
};

}  // namespace

int main() {
  // --- 4. assemble with the PMM components -----------------------------------
  cca::ComponentRepository repo;
  repo.register_class("MatVec", [] { return std::make_unique<MatVecComponent>(); });
  repo.register_class("MatVecProxy", [] { return std::make_unique<MatVecProxy>(); });
  repo.register_class("TauMeasurement",
                      [] { return std::make_unique<core::TauMeasurementComponent>(); });
  repo.register_class("Mastermind",
                      [] { return std::make_unique<core::MastermindComponent>(); });

  cca::Framework fw(std::move(repo));
  fw.instantiate("tau", "TauMeasurement");
  fw.instantiate("mm", "Mastermind");
  fw.instantiate("matvec", "MatVec");
  fw.instantiate("mv_proxy", "MatVecProxy");
  fw.connect("mm", "measurement", "tau", "measurement");
  fw.connect("mv_proxy", "monitor", "mm", "monitor");
  fw.connect("mv_proxy", "matvec_real", "matvec", "matvec");

  // --- 5. exercise through the proxy ------------------------------------------
  auto* service = fw.services("mv_proxy").provided_as<MatVecPort>("matvec");
  for (std::size_t n = 64; n <= 1024; n *= 2) {
    std::vector<double> a(n * n, 1.0 / static_cast<double>(n)), x(n, 1.0), y(n);
    for (int rep = 0; rep < 5; ++rep) service->apply(a, x, y);
  }

  // --- 6. records -> performance model ----------------------------------------
  auto* mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
  const core::Record* rec = mm->record("mv_proxy::apply()");
  std::vector<core::Sample> samples;
  for (auto [n, t] : rec->samples("N")) samples.push_back({n, t});
  const auto model = core::fit_best(samples, 2);

  std::cout << "monitored " << rec->count() << " invocations of mv_proxy::apply()\n";
  ccaperf::TextTable t;
  t.set_header({"N", "mean us"});
  for (const core::Bin& b : core::bin_by_q(samples))
    t.add_row({ccaperf::fmt_double(b.q, 5), ccaperf::fmt_double(b.mean, 5)});
  t.render(std::cout);
  std::cout << "\nfitted model: T(N) = " << model->formula() << "   [family "
            << model->family() << ", R^2 = " << ccaperf::fmt_double(model->r2, 4)
            << "]\n"
            << "(matvec is O(N^2): expect a quadratic or ~N^2 power law)\n";
  return 0;
}
