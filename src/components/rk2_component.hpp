#pragma once
// RK2Component — "orchestrates the recursive processing of patches"
// (paper §5): a two-stage Heun integrator over the level hierarchy with
// time subcycling. With refinement ratio 2 and three levels, one coarse
// advance processes levels in the paper's L0 L1 L2 L2 L1 L2 L2 sequence.
//
// Note on coarse-fine time coupling: fine-level ghost prolongation during
// subcycles uses the already-advanced coarse state (first-order-in-time
// boundary data) rather than interpolating between coarse time levels —
// standard simplification that does not change any measured quantity.

#include <algorithm>
#include <utility>
#include <vector>

#include "components/ports.hpp"
#include "euler/kernels.hpp"
#include "support/thread_pool.hpp"

namespace components {

using PatchJobs = std::vector<std::pair<int, amr::PatchData<double>*>>;

/// Snapshot of a level's local patches as an indexable job list, so a pool
/// of `lanes` lanes can split it. At one lane the jobs keep the map's
/// ascending id order, so a serial run calls the kernels in exactly the
/// order of a per-map loop. With more lanes the largest patch (interior
/// cells) comes first and equal sizes stay in id order (a stable sort):
/// each lane starts from the front of its share, and a big patch started
/// last would leave the other lanes only its nested rows to help with.
inline PatchJobs patch_jobs(amr::Level& lvl, int lanes) {
  PatchJobs jobs;
  jobs.reserve(lvl.local_data().size());
  for (auto& [id, data] : lvl.local_data()) jobs.emplace_back(id, &data);
  if (lanes > 1)
    std::stable_sort(jobs.begin(), jobs.end(), [](const auto& a, const auto& b) {
      return a.second->interior().num_pts() > b.second->interior().num_pts();
    });
  return jobs;
}

class RK2Component final : public cca::Component, public IntegratorPort {
 public:
  void setServices(cca::Services& svc) override {
    svc_ = &svc;
    svc.add_provides_port(cca::non_owning(static_cast<IntegratorPort*>(this)),
                          "integrator", "euler.IntegratorPort");
    svc.register_uses_port("mesh", "amr.MeshPort");
    svc.register_uses_port("invflux", "euler.FluxDivergencePort");
  }

  double stable_dt(double cfl) override {
    auto* mesh = svc_->get_port_as<MeshPort>("mesh");
    amr::Hierarchy& h = mesh->hierarchy();
    ccaperf::ThreadPool& pool = ccaperf::rank_pool();
    double vmax = 1e-12;
    for (int l = 0; l < h.num_levels(); ++l) {
      // Per-lane max fold: max is order-independent, so the result is
      // exact for any lane count.
      std::vector<MaxSlot> lane_max(static_cast<std::size_t>(pool.size()),
                                    MaxSlot{1e-12});
      const PatchJobs jobs = patch_jobs(h.level(l), pool.size());
      pool.parallel_for(jobs.size(), [&](std::size_t k, int lane) {
        const amr::Box interior = h.level(l).patch(jobs[k].first).box;
        double& slot = lane_max[static_cast<std::size_t>(lane)].v;
        slot = std::max(slot,
                        euler::max_wave_speed(*jobs[k].second, interior, gas_));
      });
      for (const MaxSlot& s : lane_max) vmax = std::max(vmax, s.v);
    }
    vmax = h.comm().allreduce_value<mpp::MaxOp<double>>(vmax);
    const double dx = std::min(h.dx(0), h.dy(0));
    return cfl * dx / vmax;
  }

  void advance(double dt) override { advance_level(0, dt); }

  void set_gas(const euler::GasModel& gas) { gas_ = gas; }

 private:
  struct alignas(64) MaxSlot {
    double v;
  };

  void advance_level(int l, double dt) {
    auto* mesh = svc_->get_port_as<MeshPort>("mesh");
    auto* invflux = svc_->get_port_as<FluxDivergencePort>("invflux");
    amr::Hierarchy& h = mesh->hierarchy();
    amr::Level& lvl = h.level(l);
    ccaperf::ThreadPool& pool = ccaperf::rank_pool();
    const double dx = h.dx(l), dy = h.dy(l);

    if (l > 0) mesh->prolong(l);
    mesh->ghost_update(l);

    // Patches are independent between ghost updates: each stage fans the
    // patch list out over the pool's lanes (comm stays on the rank thread,
    // between regions). Per-patch math is untouched, so any lane count
    // produces bit-identical fields.
    const PatchJobs jobs = patch_jobs(lvl, pool.size());

    // U for the Heun average lives in per-level buffers that keep their
    // storage from one advance of the level to the next, and dU/dt in one
    // buffer per lane (a lane never runs two patches at once). Both are
    // reshaped without clearing: each stage-1 task copies its patch's
    // interior before touching it, and flux_divergence writes every dU/dt
    // cell.
    if (u_old_.size() <= static_cast<std::size_t>(l))
      u_old_.resize(static_cast<std::size_t>(l) + 1);
    std::vector<amr::PatchData<double>>& u_old =
        u_old_[static_cast<std::size_t>(l)];
    u_old.resize(jobs.size());
    if (lane_dudt_.size() < static_cast<std::size_t>(pool.size()))
      lane_dudt_.resize(static_cast<std::size_t>(pool.size()));
    auto dudt_for = [&](int lane, const amr::Box& box) -> amr::PatchData<double>& {
      amr::PatchData<double>& dudt = lane_dudt_[static_cast<std::size_t>(lane)];
      dudt.reshape(box, 0, euler::kNcomp);
      return dudt;
    };

    // Stage 1: U1 = U + dt L(U), keeping U for the Heun average.
    pool.parallel_for(jobs.size(), [&](std::size_t k, int lane) {
      amr::PatchData<double>& data = *jobs[k].second;
      const amr::Box box = lvl.patch(jobs[k].first).box;
      u_old[k].reshape(box, 0, euler::kNcomp);
      u_old[k].copy_from(data, box);
      amr::PatchData<double>& dudt = dudt_for(lane, box);
      invflux->compute(data, box, dx, dy, dudt);
      // Row-contiguous update through the ISA-dispatched kernel (identical
      // to `data(i,j,c) += dt * dudt(i,j,c)` at every level, see
      // euler/simd.hpp); data and dudt have different row strides (ghosts
      // vs none), so rows are the largest contiguous runs.
      for (int c = 0; c < euler::kNcomp; ++c)
        for (int j = box.lo().j; j <= box.hi().j; ++j)
          euler::rk2_axpy(&data(box.lo().i, j, c), &dudt(box.lo().i, j, c), dt,
                          static_cast<std::size_t>(box.width()));
    });

    // Stage 2: U <- (U_old + U1 + dt L(U1)) / 2.
    if (l > 0) mesh->prolong(l);
    mesh->ghost_update(l);
    pool.parallel_for(jobs.size(), [&](std::size_t k, int lane) {
      amr::PatchData<double>& data = *jobs[k].second;
      const amr::Box box = lvl.patch(jobs[k].first).box;
      amr::PatchData<double>& dudt = dudt_for(lane, box);
      invflux->compute(data, box, dx, dy, dudt);
      const amr::PatchData<double>& old = u_old[k];
      for (int c = 0; c < euler::kNcomp; ++c)
        for (int j = box.lo().j; j <= box.hi().j; ++j)
          euler::rk2_heun_average(&data(box.lo().i, j, c),
                                  &old(box.lo().i, j, c),
                                  &dudt(box.lo().i, j, c), dt,
                                  static_cast<std::size_t>(box.width()));
    });

    // Subcycled children, then conservative averaging back onto us.
    if (l + 1 < h.num_levels()) {
      const int r = h.config().ratio;
      for (int sub = 0; sub < r; ++sub)
        advance_level(l + 1, dt / r);
      mesh->restrict_level(l + 1);
    }
  }

  cca::Services* svc_ = nullptr;
  euler::GasModel gas_;
  std::vector<std::vector<amr::PatchData<double>>> u_old_;  // [level][job]
  std::vector<amr::PatchData<double>> lane_dudt_;           // [lane]
};

}  // namespace components
