#pragma once
// ShockDriverComponent — "a component that orchestrates the simulation"
// (paper §5, Fig. 2). Initializes the mesh, then steps: CFL dt ->
// recursive RK2 advance -> periodic regrid/load-balance (the paper's run
// was "load-balanced once, resulting in a different domain decomposition",
// visible as the Fig. 9 cluster split).

#include "components/ports.hpp"

namespace components {

struct DriverConfig {
  int nsteps = 8;
  double cfl = 0.4;
  /// Regrid (which also load-balances the new levels) every
  /// `regrid_interval` steps; 0 disables.
  int regrid_interval = 4;
};

class ShockDriverComponent final : public cca::Component, public GoPort {
 public:
  explicit ShockDriverComponent(DriverConfig cfg) : cfg_(cfg) {}

  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<GoPort*>(this)), "go",
                          "cca.GoPort");
    svc.register_uses_port("mesh", "amr.MeshPort");
    svc.register_uses_port("integrator", "euler.IntegratorPort");
  }

  int go() override {
    auto* mesh = svc_->get_port_as<MeshPort>("mesh");
    auto* integrator = svc_->get_port_as<IntegratorPort>("integrator");
    mesh->initialize();
    for (int step = 1; step <= cfg_.nsteps; ++step) {
      const double dt = integrator->stable_dt(cfg_.cfl);
      integrator->advance(dt);
      time_ += dt;
      if (cfg_.regrid_interval > 0 && step % cfg_.regrid_interval == 0 &&
          step < cfg_.nsteps)
        mesh->regrid();
    }
    return 0;
  }

  double time() const { return time_; }

 private:
  DriverConfig cfg_;
  cca::Services* svc_ = nullptr;
  double time_ = 0.0;
};

}  // namespace components
