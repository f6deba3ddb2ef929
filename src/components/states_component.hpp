#pragma once
// StatesComponent — characteristic/interface state reconstruction.
//
// "States and EFMFlux ... are invoked on a patch-by-patch basis. The
// invocations include a data array (a different one for each patch) and an
// output array of the same size. Both these components can function in two
// modes — sequential or strided array access to calculate X- or
// Y-derivatives respectively — with different performance consequences."
// (paper §5). The performance parameter a proxy extracts is the array size
// Q = number of cells passed in.

#include "components/ports.hpp"
#include "euler/state.hpp"
#include "support/thread_pool.hpp"

namespace components {

class StatesComponent final : public cca::Component, public StatesPort {
 public:
  explicit StatesComponent(euler::GasModel gas) : gas_(gas) {}

  void setServices(cca::Services& svc) override {
    svc.add_provides_port(cca::non_owning(static_cast<StatesPort*>(this)),
                          "states", "euler.StatesPort");
  }

  euler::KernelCounts compute(const amr::PatchData<double>& u,
                              const amr::Box& interior, euler::Dir dir,
                              euler::Array2& left, euler::Array2& right) override {
    // Row-parallel inside the patch when the rank pool has lanes; inside
    // an enclosing patch-level region, lanes with no patch left help.
    return euler::compute_states_mt(ccaperf::rank_pool(), u, interior, dir,
                                    gas_, left, right);
  }

 private:
  euler::GasModel gas_;
};

}  // namespace components
