#include "interposers.hpp"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace fig01bench {

namespace {

constexpr const char* kStatesType = "euler.StatesPort";
constexpr const char* kFluxType = "euler.FluxPort";
constexpr const char* kFluxDivType = "euler.FluxDivergencePort";
constexpr const char* kIntegratorType = "euler.IntegratorPort";
constexpr const char* kMeshType = "amr.MeshPort";

template <class P, class Self>
void declare_ports(cca::Services& svc, Self* self, const char* type) {
  svc.add_provides_port(cca::non_owning(static_cast<P*>(self)), "port", type);
  svc.register_uses_port("inner", type);
}

/// Puts interposer `name` between `provider.port` and every uses port
/// currently connected to it.
void splice(cca::Framework& fw, const std::string& name,
            std::function<std::unique_ptr<cca::Component>()> make,
            const std::string& provider, const std::string& port) {
  std::vector<cca::Connection> users;
  for (const cca::Connection& c : fw.wiring().connections)
    if (c.provider_instance == provider && c.provides_port == port) users.push_back(c);
  fw.repository().register_class(name, std::move(make));
  fw.instantiate(name, name);
  fw.connect(name, "inner", provider, port);
  for (const cca::Connection& c : users)
    fw.reconnect(c.user_instance, c.uses_port, name, "port");
}

}  // namespace

void StatesInterposer::setServices(cca::Services& svc) {
  svc_ = &svc;
  declare_ports<components::StatesPort>(svc, this, kStatesType);
}
void StatesInterposer::bind() {
  inner_ = svc_->get_port_as<components::StatesPort>("inner");
}
euler::KernelCounts StatesInterposer::compute(const amr::PatchData<double>& u,
                                              const amr::Box& interior,
                                              euler::Dir dir, euler::Array2& left,
                                              euler::Array2& right) {
  Span s(layer_);
  return inner_->compute(u, interior, dir, left, right);
}

void FluxInterposer::setServices(cca::Services& svc) {
  svc_ = &svc;
  declare_ports<components::FluxPort>(svc, this, kFluxType);
}
void FluxInterposer::bind() { inner_ = svc_->get_port_as<components::FluxPort>("inner"); }
euler::KernelCounts FluxInterposer::compute(const euler::Array2& left,
                                            const euler::Array2& right, euler::Dir dir,
                                            euler::Array2& flux) {
  Span s(layer_);
  return inner_->compute(left, right, dir, flux);
}

void FluxDivergenceInterposer::setServices(cca::Services& svc) {
  svc_ = &svc;
  declare_ports<components::FluxDivergencePort>(svc, this, kFluxDivType);
}
void FluxDivergenceInterposer::bind() {
  inner_ = svc_->get_port_as<components::FluxDivergencePort>("inner");
}
void FluxDivergenceInterposer::compute(const amr::PatchData<double>& u,
                                       const amr::Box& interior, double dx, double dy,
                                       amr::PatchData<double>& dudt) {
  Span s(Layer::invflux);
  inner_->compute(u, interior, dx, dy, dudt);
}

void IntegratorInterposer::setServices(cca::Services& svc) {
  svc_ = &svc;
  declare_ports<components::IntegratorPort>(svc, this, kIntegratorType);
}
void IntegratorInterposer::bind() {
  inner_ = svc_->get_port_as<components::IntegratorPort>("inner");
}
double IntegratorInterposer::stable_dt(double cfl) {
  Span s(Layer::rk2);
  return inner_->stable_dt(cfl);
}
void IntegratorInterposer::advance(double dt) {
  Span s(Layer::rk2);
  inner_->advance(dt);
}

void MeshInterposer::setServices(cca::Services& svc) {
  svc_ = &svc;
  declare_ports<components::MeshPort>(svc, this, kMeshType);
}
void MeshInterposer::bind() { inner_ = svc_->get_port_as<components::MeshPort>("inner"); }
amr::ExchangeStats MeshInterposer::ghost_update(int level) {
  Span s(layer(Layer::ghost_update));
  return inner_->ghost_update(level);
}
void MeshInterposer::prolong(int level) {
  Span s(layer(Layer::prolong));
  inner_->prolong(level);
}
void MeshInterposer::restrict_level(int fine_level) {
  Span s(layer(Layer::restrict_level));
  inner_->restrict_level(fine_level);
}
void MeshInterposer::regrid() {
  Span s(layer(Layer::regrid));
  inner_->regrid();
}

void insert_interposers(cca::Framework& fw, bool instrumented) {
  std::vector<std::string> names;
  auto add = [&](const std::string& name,
                 std::function<std::unique_ptr<cca::Component>()> make,
                 const std::string& provider, const std::string& port) {
    splice(fw, name, std::move(make), provider, port);
    names.push_back(name);
  };
  add("integrator_tap", [] { return std::make_unique<IntegratorInterposer>(); }, "rk2",
      "integrator");
  add("invflux_tap", [] { return std::make_unique<FluxDivergenceInterposer>(); },
      "invflux", "invflux");
  if (instrumented) {
    // Outer taps in front of the proxies, inner taps behind them.
    add("mesh_outer_tap", [] { return std::make_unique<MeshInterposer>(true); },
        "icc_proxy", "mesh");
    add("states_outer_tap",
        [] { return std::make_unique<StatesInterposer>(Layer::monitor); }, "sc_proxy",
        "states");
    add("flux_outer_tap", [] { return std::make_unique<FluxInterposer>(Layer::monitor); },
        "flux_proxy", "flux");
  }
  add("mesh_tap", [] { return std::make_unique<MeshInterposer>(false); }, "mesh", "mesh");
  add("states_tap", [] { return std::make_unique<StatesInterposer>(Layer::states); },
      "states", "states");
  add("flux_tap", [] { return std::make_unique<FluxInterposer>(Layer::flux); }, "flux",
      "flux");
  for (const std::string& n : names) dynamic_cast<Interposer&>(fw.component(n)).bind();
}

}  // namespace fig01bench
