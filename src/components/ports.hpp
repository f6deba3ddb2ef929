#pragma once
// Port interfaces of the case-study application (paper Fig. 2).
//
// The wiring:
//   ShockDriver --GoPort--> (framework "go")
//   ShockDriver uses MeshPort (AMRMesh) and IntegratorPort (RK2)
//   RK2 uses MeshPort and FluxDivergencePort (InviscidFlux)
//   InviscidFlux uses StatesPort (States) and FluxPort (EFMFlux OR
//   GodunovFlux — the interchangeable implementations of §5)
//
// Proxies in src/core implement these same interfaces and are interposed
// by the instrumented app builder.

#include <string>

#include "amr/hierarchy.hpp"
#include "cca/framework.hpp"
#include "euler/kernels.hpp"

namespace components {

/// Entry point of an application assembly (CCAFFEINE's go port).
class GoPort : public cca::Port {
 public:
  virtual int go() = 0;
};

/// Reconstruction of interface states on one patch, one direction.
/// Dir::x is the sequential-access mode, Dir::y the strided mode.
class StatesPort : public cca::Port {
 public:
  virtual euler::KernelCounts compute(const amr::PatchData<double>& u,
                                      const amr::Box& interior, euler::Dir dir,
                                      euler::Array2& left, euler::Array2& right) = 0;
};

/// Numerical flux from reconstructed interface states. EFMFlux and
/// GodunovFlux both provide this — the interchangeable pair whose
/// performance/accuracy trade-off the paper studies.
class FluxPort : public cca::Port {
 public:
  virtual euler::KernelCounts compute(const euler::Array2& left,
                                      const euler::Array2& right, euler::Dir dir,
                                      euler::Array2& flux) = 0;
  /// Implementation name (for models/records, e.g. "EFMFlux").
  virtual std::string method_name() const = 0;
  /// QoS metadata: relative solution quality in [0, 1] (Godunov is "the
  /// preferred choice for scientists (it is more accurate)").
  virtual double accuracy() const = 0;
};

/// dU/dt for one patch: X+Y sweeps through StatesPort and FluxPort.
class FluxDivergencePort : public cca::Port {
 public:
  virtual void compute(const amr::PatchData<double>& u, const amr::Box& interior,
                       double dx, double dy, amr::PatchData<double>& dudt) = 0;
};

/// Patch/hierarchy management: the AMRMesh component. All message passing
/// of the application happens behind this port.
class MeshPort : public cca::Port {
 public:
  virtual amr::Hierarchy& hierarchy() = 0;
  /// Builds the initial hierarchy (level 0, refinement passes, IC fill).
  /// Call once before stepping. Leaves interiors valid; ghosts are valid
  /// only after a level's first prolong + ghost_update.
  virtual void initialize() = 0;
  /// Same-level ghost-cell update + physical BCs (Isend/Irecv/Waitsome).
  virtual amr::ExchangeStats ghost_update(int level) = 0;
  /// Coarse->fine ghost prolongation (call before ghost_update on l > 0).
  virtual void prolong(int level) = 0;
  /// Conservative fine->coarse averaging.
  virtual void restrict_level(int fine_level) = 0;
  /// Re-flag, re-cluster, balance, migrate (the paper's "load-balancing
  /// and domain (re-)decomposition" method). Leaves interiors valid; ghosts
  /// are valid again only after the next prolong + ghost_update, which
  /// RK2 always runs on a level before reading it.
  virtual void regrid() = 0;
};

/// Time integration: recursive RK2 over the level hierarchy with
/// subcycling (the L0 L1 L2 L2 L1 L2 L2 sequence of §5).
class IntegratorPort : public cca::Port {
 public:
  /// CFL-stable level-0 time step (collective).
  virtual double stable_dt(double cfl) = 0;
  /// One coarse step of size `dt` (children subcycle by the ratio).
  virtual void advance(double dt) = 0;
};

}  // namespace components
