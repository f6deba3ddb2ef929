#pragma once
// Proxy components (paper §4.2).
//
// "For each component that the user wants to analyze, a proxy component is
// created. The proxy component shares the same interface as the actual
// component. ... the proxy is able to snoop the method invocation on the
// ProvidesPort, and then forward the method invocation to the component on
// the UsesPort. In addition, the proxy also uses a MonUF port to make
// measurements."
//
// Timer names follow the paper's Fig. 3 profile: sc_proxy (States),
// g_proxy (GodunovFlux), efm_proxy (EFMFlux), icc_proxy (AMRMesh).
// Each proxy extracts its component's performance parameters (array size
// Q, access mode, hierarchy level) before forwarding — §3.2 requirement 4.
//
// The proxies are mechanical — "it is not difficult to envision proxy
// creation being fully automated" — so the wiring lives once, in ProxyOf:
// a concrete proxy only lists its monitored methods and, per method, the
// parameter values it extracts before forwarding.

#include <initializer_list>
#include <mutex>

#include "components/lu_workload.hpp"
#include "components/ports.hpp"
#include "core/ports.hpp"

namespace core {

/// RAII monitor bracket: parameter values live in a caller-owned stack
/// array; start/stop never allocate.
class MonitoredHandleScope {
 public:
  MonitoredHandleScope(MonitorPort& monitor, MethodHandle method, ParamSpan params)
      : monitor_(monitor), method_(method) {
    monitor_.start(method_, params);
  }
  ~MonitoredHandleScope() { monitor_.stop(method_); }
  MonitoredHandleScope(const MonitoredHandleScope&) = delete;
  MonitoredHandleScope& operator=(const MonitoredHandleScope&) = delete;

 private:
  MonitorPort& monitor_;
  MethodHandle method_;
};

/// One monitored method of a proxied port: its timer key and the names of
/// the performance parameters the proxy extracts, in reporting order.
struct ProxiedMethod {
  std::string key;
  std::vector<std::string> params;
};

/// The generic proxy for `Port`: provides `Port` as `port_name`, uses the
/// real provider as "<port_name>_real" and the Mastermind as "monitor".
/// The monitor is resolved and every method registered once, on the first
/// invocation (wiring completes after setServices, and that first call may
/// land inside a parallel region where several lanes race). The real
/// provider is fetched per call, so Framework::reconnect keeps working
/// (candidate swapping, §6).
template <class Port>
class ProxyOf : public cca::Component, public Port {
 public:
  ProxyOf(std::string port_name, std::string port_type,
          std::vector<ProxiedMethod> methods)
      : port_name_(std::move(port_name)),
        real_name_(port_name_ + "_real"),
        port_type_(std::move(port_type)),
        methods_(std::move(methods)) {}

  void setServices(cca::Services& svc) final {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<Port*>(this)), port_name_,
                          port_type_);
    svc.register_uses_port(real_name_, port_type_);
    svc.register_uses_port("monitor", "pmm.MonitorPort");
  }

 protected:
  Port& real() const { return *svc_->get_port_as<Port>(real_name_); }

  /// Returns `call(real())`, monitored as methods[method] with one value
  /// per registered parameter name.
  template <class Call>
  decltype(auto) monitored(std::size_t method, std::initializer_list<double> params,
                           Call&& call) {
    std::call_once(once_, [this] {
      monitor_ = svc_->get_port_as<MonitorPort>("monitor");
      for (const ProxiedMethod& m : methods_)
        handles_.push_back(monitor_->register_method(m.key, m.params));
    });
    Port& target = real();
    MonitoredHandleScope scope(*monitor_, handles_[method],
                               ParamSpan(params.begin(), params.size()));
    return call(target);
  }

 private:
  std::string port_name_, real_name_, port_type_;
  std::vector<ProxiedMethod> methods_;
  cca::Services* svc_ = nullptr;
  std::once_flag once_;
  MonitorPort* monitor_ = nullptr;
  std::vector<MethodHandle> handles_;  ///< parallel to methods_
};

/// Proxy for the States component ("sc_proxy"). Performance parameters:
/// Q = input array size (cells incl. ghosts), mode = 0 sequential / 1 strided.
class StatesProxy final : public ProxyOf<components::StatesPort> {
 public:
  StatesProxy()
      : ProxyOf("states", "euler.StatesPort", {{"sc_proxy::compute()", {"Q", "mode"}}}) {}

  euler::KernelCounts compute(const amr::PatchData<double>& u,
                              const amr::Box& interior, euler::Dir dir,
                              euler::Array2& left, euler::Array2& right) override {
    return monitored(0,
                     {static_cast<double>(u.pts_per_comp()),
                      dir == euler::Dir::x ? 0.0 : 1.0},
                     [&](StatesPort& s) { return s.compute(u, interior, dir, left, right); });
  }
};

/// Proxy for a FluxPort implementation. The timer key is chosen at
/// construction ("g_proxy::compute()" for GodunovFlux,
/// "efm_proxy::compute()" for EFMFlux). Q = faces * ncomp of the input
/// state arrays (the "array size" handed to the flux component).
class FluxProxy final : public ProxyOf<components::FluxPort> {
 public:
  explicit FluxProxy(std::string timer_key)
      : ProxyOf("flux", "euler.FluxPort", {{std::move(timer_key), {"Q", "mode"}}}) {}

  euler::KernelCounts compute(const euler::Array2& left, const euler::Array2& right,
                              euler::Dir dir, euler::Array2& flux) override {
    return monitored(
        0,
        {static_cast<double>(static_cast<std::size_t>(left.nx()) * left.ny()),
         dir == euler::Dir::x ? 0.0 : 1.0},
        [&](FluxPort& f) { return f.compute(left, right, dir, flux); });
  }

  std::string method_name() const override { return real().method_name(); }
  double accuracy() const override { return real().accuracy(); }
};

/// Proxy for AMRMesh ("icc_proxy"), capturing the message-passing costs:
/// each monitored invocation's MPI time is the Fig. 9 data. Parameters:
/// level, and the level's total cells.
class AMRMeshProxy final : public ProxyOf<components::MeshPort> {
 public:
  AMRMeshProxy()
      : ProxyOf("mesh", "amr.MeshPort",
                {{"icc_proxy::initialize()", {}},
                 {"icc_proxy::ghost_update()", {"level", "cells"}},
                 {"icc_proxy::prolong()", {"level", "cells"}},
                 {"icc_proxy::restrict()", {"level", "cells"}},
                 {"icc_proxy::regrid()", {}}}) {}

  amr::Hierarchy& hierarchy() override { return real().hierarchy(); }

  void initialize() override {
    monitored(kInitialize, {}, [](MeshPort& m) { m.initialize(); });
  }
  amr::ExchangeStats ghost_update(int level) override {
    return monitored(kGhostUpdate, {static_cast<double>(level), cells(level)},
                     [&](MeshPort& m) { return m.ghost_update(level); });
  }
  void prolong(int level) override {
    monitored(kProlong, {static_cast<double>(level), cells(level)},
              [&](MeshPort& m) { m.prolong(level); });
  }
  void restrict_level(int fine_level) override {
    monitored(kRestrict, {static_cast<double>(fine_level), cells(fine_level)},
              [&](MeshPort& m) { m.restrict_level(fine_level); });
  }
  void regrid() override {
    monitored(kRegrid, {}, [](MeshPort& m) { m.regrid(); });
  }

 private:
  enum : std::size_t { kInitialize, kGhostUpdate, kProlong, kRestrict, kRegrid };

  double cells(int level) const {
    return static_cast<double>(real().hierarchy().level(level).total_cells());
  }
};

/// Proxy for the dense-LU workload ("lu_proxy") — the HPL-style scenario
/// the TelemetryHub soaks alongside AMR sessions. Performance parameters:
/// N (matrix order) and the panel block width.
class LuProxy final : public ProxyOf<components::LuPort> {
 public:
  LuProxy() : ProxyOf("lu", "hpl.LuPort", {{"lu_proxy::factor()", {"N", "block"}}}) {}

  components::LuResult factor(int n, int block, std::uint64_t seed) override {
    return monitored(0, {static_cast<double>(n), static_cast<double>(block)},
                     [&](LuPort& lu) { return lu.factor(n, block, seed); });
  }
};

}  // namespace core
