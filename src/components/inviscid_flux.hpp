#pragma once
// InviscidFluxComponent — assembles dU/dt for one patch by driving the
// States and Flux components through their ports in both directions
// ("during the execution of the application, both the X- and Y-derivatives
// are calculated and the two modes of operation of these components are
// invoked in an alternating fashion", paper §5).
//
// In the instrumented assembly the proxies sit between this component and
// States/EFMFlux/GodunovFlux — this is the caller whose invocations they
// snoop.

#include <initializer_list>

#include "components/ports.hpp"
#include "support/thread_pool.hpp"

namespace components {

class InviscidFluxComponent final : public cca::Component, public FluxDivergencePort {
 public:
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<FluxDivergencePort*>(this)),
                          "invflux", "euler.FluxDivergencePort");
    svc.register_uses_port("states", "euler.StatesPort");
    svc.register_uses_port("flux", "euler.FluxPort");
  }

  void compute(const amr::PatchData<double>& u, const amr::Box& interior,
               double dx, double dy, amr::PatchData<double>& dudt) override {
    // Look the ports up per call: the Mastermind may dynamically reconnect
    // the flux port to a different implementation between steps.
    auto* states = svc_->get_port_as<StatesPort>("states");
    auto* flux = svc_->get_port_as<FluxPort>("flux");

    // Face arrays are per-thread scratch, reshaped without clearing: the
    // states, flux and divergence kernels write every element before
    // anything reads it. thread_local because RK2 calls compute from
    // every pool lane at once.
    thread_local Scratch s;
    int nx = 0, ny = 0;
    euler::face_dims(interior, euler::Dir::x, nx, ny);
    for (euler::Array2* a : {&s.lx, &s.rx, &s.fx}) a->reshape(nx, ny, euler::kNcomp);
    states->compute(u, interior, euler::Dir::x, s.lx, s.rx);
    flux->compute(s.lx, s.rx, euler::Dir::x, s.fx);

    euler::face_dims(interior, euler::Dir::y, nx, ny);
    for (euler::Array2* a : {&s.ly, &s.ry, &s.fy}) a->reshape(nx, ny, euler::kNcomp);
    states->compute(u, interior, euler::Dir::y, s.ly, s.ry);
    flux->compute(s.ly, s.ry, euler::Dir::y, s.fy);

    euler::flux_divergence_mt(ccaperf::rank_pool(), s.fx, s.fy, interior, dx, dy,
                              dudt);
  }

 private:
  struct Scratch {
    euler::Array2 lx, rx, fx, ly, ry, fy;
  };

  cca::Services* svc_ = nullptr;
};

}  // namespace components
