#pragma once
// Bench-only interposer components for the traced run.
//
// Each interposer provides the same port interface as the component it
// fronts and forwards every call through its "inner" uses port inside a
// ledger span — the paper's proxy pattern, measuring from outside the
// component without modifying it. insert_interposers() splices them into
// an assembled framework with cca::Framework::connect/reconnect only.

#include "cca/framework.hpp"
#include "components/ports.hpp"
#include "ledger.hpp"

namespace fig01bench {

/// Resolves the inner port once the wiring is final (the hot path then
/// forwards through a plain pointer instead of a per-call port lookup).
class Interposer {
 public:
  virtual ~Interposer() = default;
  virtual void bind() = 0;
};

class StatesInterposer final : public cca::Component,
                               public components::StatesPort,
                               public Interposer {
 public:
  explicit StatesInterposer(Layer layer) : layer_(layer) {}
  void setServices(cca::Services& svc) override;
  void bind() override;
  euler::KernelCounts compute(const amr::PatchData<double>& u, const amr::Box& interior,
                              euler::Dir dir, euler::Array2& left,
                              euler::Array2& right) override;

 private:
  Layer layer_;
  cca::Services* svc_ = nullptr;
  components::StatesPort* inner_ = nullptr;
};

class FluxInterposer final : public cca::Component,
                             public components::FluxPort,
                             public Interposer {
 public:
  explicit FluxInterposer(Layer layer) : layer_(layer) {}
  void setServices(cca::Services& svc) override;
  void bind() override;
  euler::KernelCounts compute(const euler::Array2& left, const euler::Array2& right,
                              euler::Dir dir, euler::Array2& flux) override;
  std::string method_name() const override { return inner_->method_name(); }
  double accuracy() const override { return inner_->accuracy(); }

 private:
  Layer layer_;
  cca::Services* svc_ = nullptr;
  components::FluxPort* inner_ = nullptr;
};

class FluxDivergenceInterposer final : public cca::Component,
                                       public components::FluxDivergencePort,
                                       public Interposer {
 public:
  void setServices(cca::Services& svc) override;
  void bind() override;
  void compute(const amr::PatchData<double>& u, const amr::Box& interior, double dx,
               double dy, amr::PatchData<double>& dudt) override;

 private:
  cca::Services* svc_ = nullptr;
  components::FluxDivergencePort* inner_ = nullptr;
};

class IntegratorInterposer final : public cca::Component,
                                   public components::IntegratorPort,
                                   public Interposer {
 public:
  void setServices(cca::Services& svc) override;
  void bind() override;
  double stable_dt(double cfl) override;
  void advance(double dt) override;

 private:
  cca::Services* svc_ = nullptr;
  components::IntegratorPort* inner_ = nullptr;
};

/// MeshPort interposer. In front of a PMM proxy (`outer`) every call is
/// a core.monitor span, so outer minus inner is the measurement stack;
/// elsewhere each method has its own amr layer. hierarchy() and
/// initialize() are forwarded untimed: the first is an accessor, the
/// second is set-up.
class MeshInterposer final : public cca::Component,
                             public components::MeshPort,
                             public Interposer {
 public:
  explicit MeshInterposer(bool outer) : outer_(outer) {}
  void setServices(cca::Services& svc) override;
  void bind() override;
  amr::Hierarchy& hierarchy() override { return inner_->hierarchy(); }
  void initialize() override { inner_->initialize(); }
  amr::ExchangeStats ghost_update(int level) override;
  void prolong(int level) override;
  void restrict_level(int fine_level) override;
  void regrid() override;

 private:
  Layer layer(Layer own) const { return outer_ ? Layer::monitor : own; }

  bool outer_;
  cca::Services* svc_ = nullptr;
  components::MeshPort* inner_ = nullptr;
};

/// Splices interposers around every port of the fig01 assembly in `fw`:
/// IntegratorPort and FluxDivergencePort always; MeshPort, StatesPort and
/// FluxPort once in the plain assembly, or on both sides of their PMM
/// proxy when `instrumented` (the assemble_instrumented_app wiring).
void insert_interposers(cca::Framework& fw, bool instrumented);

}  // namespace fig01bench
