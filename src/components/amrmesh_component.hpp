#pragma once
// AMRMeshComponent — owns the SAMR hierarchy; all of the application's
// message passing happens behind this port ("Neither of these components
// involve message passing, most of which is done by AMRMesh", paper §5).
// Its ghost_update and regrid methods are the two callers of
// MPI_Waitsome that dominate the paper's Fig. 3 profile.

#include <optional>

#include "components/ports.hpp"
#include "euler/problem.hpp"

namespace components {

class AMRMeshComponent final : public cca::Component, public MeshPort {
 public:
  AMRMeshComponent(mpp::Comm& world, amr::HierarchyConfig cfg,
                   euler::ShockInterfaceProblem problem)
      : hierarchy_(world, std::move(cfg)), problem_(std::move(problem)),
        bc_(problem_.bc()) {}

  void setServices(cca::Services& svc) override {
    svc.add_provides_port(cca::non_owning(static_cast<MeshPort*>(this)), "mesh",
                          "amr.MeshPort");
  }

  amr::Hierarchy& hierarchy() override { return hierarchy_; }

  /// Builds level 0 and iteratively deepens the hierarchy (each new level
  /// is re-initialized from the exact ICs so refined regions start sharp).
  /// Leaves interiors valid; RK2 fills a level's ghosts before reading it.
  void initialize() override {
    hierarchy_.init_level0();
    problem_.fill_hierarchy(hierarchy_);
    for (int pass = 1; pass < hierarchy_.config().max_levels; ++pass) {
      hierarchy_.regrid(problem_.flagger(), bc_);
      problem_.fill_hierarchy(hierarchy_);
    }
  }

  amr::ExchangeStats ghost_update(int level) override {
    return hierarchy_.exchange_and_bc(level, bc_);
  }

  void prolong(int level) override { hierarchy_.prolong(level, /*ghosts_only=*/true); }

  void restrict_level(int fine_level) override {
    hierarchy_.restrict_level(fine_level);
  }

  void regrid() override { hierarchy_.regrid(problem_.flagger(), bc_); }

  const amr::BcSpec& bc() const { return bc_; }
  const euler::ShockInterfaceProblem& problem() const { return problem_; }

 private:
  amr::Hierarchy hierarchy_;
  euler::ShockInterfaceProblem problem_;
  amr::BcSpec bc_;
};

}  // namespace components
