// InviscidFluxComponent keeps its six face arrays as per-thread scratch and
// reshapes them without clearing. A patch evaluated after a larger or a
// smaller one must still get exactly the dU/dt that freshly allocated
// arrays give — on one thread, with the kernels fanning rows out over the
// rank pool, and with compute called concurrently from pool lanes (RK2's
// patch-parallel shape).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "components/flux_components.hpp"
#include "components/inviscid_flux.hpp"
#include "components/states_component.hpp"
#include "mpp/runtime.hpp"
#include "support/thread_pool.hpp"

namespace {

using amr::Box;
using amr::PatchData;
using euler::Array2;
using euler::GasModel;
using euler::kNcomp;

/// A two-gas patch with a shock-like jump and smooth variation, seeded by
/// `k` so every patch holds different data.
PatchData<double> patch(const Box& interior, const GasModel& gas, int k) {
  PatchData<double> p(interior, 2, kNcomp);
  const Box g = p.grown_box();
  for (int j = g.lo().j; j <= g.hi().j; ++j)
    for (int i = g.lo().i; i <= g.hi().i; ++i) {
      const bool shocked = i < g.lo().i + g.width() / 3 + k;
      const euler::Prim w{(shocked ? 2.2 : 1.0) + 0.1 * std::sin(0.3 * i + k),
                          (shocked ? 0.6 : 0.0) + 0.05 * std::cos(0.2 * j),
                          0.04 * std::sin(0.1 * (i + j) + k),
                          (shocked ? 3.0 : 1.0) + 0.1 * std::cos(0.25 * j - k),
                          j % 7 < 3 ? 1.0 : 0.0};
      double U[kNcomp];
      euler::prim_to_cons(w, gas, U);
      for (int c = 0; c < kNcomp; ++c) p(i, j, c) = U[c];
    }
  return p;
}

std::vector<std::uint64_t> bits_of(const PatchData<double>& d) {
  std::vector<std::uint64_t> out(d.raw().size());
  std::memcpy(out.data(), d.raw().data(), out.size() * sizeof(double));
  return out;
}

/// dU/dt from freshly allocated face arrays through the serial kernels.
std::vector<std::uint64_t> fresh_dudt(const PatchData<double>& u,
                                      const Box& interior, const GasModel& gas,
                                      double dx, double dy) {
  hwc::NullProbe probe;
  int nx = 0, ny = 0;
  euler::face_dims(interior, euler::Dir::x, nx, ny);
  Array2 lx(nx, ny, kNcomp), rx(nx, ny, kNcomp), fx(nx, ny, kNcomp);
  euler::compute_states(u, interior, euler::Dir::x, gas, lx, rx, probe);
  euler::godunov_flux_sweep(lx, rx, euler::Dir::x, gas, fx, probe);
  euler::face_dims(interior, euler::Dir::y, nx, ny);
  Array2 ly(nx, ny, kNcomp), ry(nx, ny, kNcomp), fy(nx, ny, kNcomp);
  euler::compute_states(u, interior, euler::Dir::y, gas, ly, ry, probe);
  euler::godunov_flux_sweep(ly, ry, euler::Dir::y, gas, fy, probe);
  PatchData<double> dudt(interior, 0, kNcomp, 0.0);
  euler::flux_divergence(fx, fy, interior, dx, dy, dudt);
  return bits_of(dudt);
}

TEST(InviscidFluxScratch, LargeSmallLargeMatchesFreshArrays) {
  mpp::Runtime::run(1, [](mpp::Comm&) {
    const GasModel gas;
    cca::ComponentRepository repo;
    repo.register_class("InviscidFlux", [] {
      return std::make_unique<components::InviscidFluxComponent>();
    });
    repo.register_class("States", [gas] {
      return std::make_unique<components::StatesComponent>(gas);
    });
    repo.register_class("GodunovFlux", [gas] {
      return std::make_unique<components::GodunovFluxComponent>(gas);
    });
    cca::Framework fw(std::move(repo));
    fw.instantiate("invflux", "InviscidFlux");
    fw.instantiate("states", "States");
    fw.instantiate("flux", "GodunovFlux");
    fw.connect("invflux", "states", "states", "states");
    fw.connect("invflux", "flux", "flux", "flux");
    auto* invflux =
        fw.services("invflux").provided_as<components::FluxDivergencePort>("invflux");

    // Large, small, large: the second large call reuses arrays that the
    // small call reshaped down (stale tails) and the first one filled.
    const double dx = 0.02, dy = 0.03;
    const std::vector<Box> boxes = {Box{0, 0, 39, 27}, Box{5, 3, 10, 7},
                                    Box{-3, 2, 44, 37}};
    std::vector<PatchData<double>> inputs;
    std::vector<std::vector<std::uint64_t>> want;
    for (std::size_t k = 0; k < boxes.size(); ++k) {
      inputs.push_back(patch(boxes[k], gas, static_cast<int>(k)));
      want.push_back(fresh_dudt(inputs[k], boxes[k], gas, dx, dy));
    }
    auto run = [&](std::size_t k) {
      PatchData<double> dudt(boxes[k], 0, kNcomp, std::nan(""));
      invflux->compute(inputs[k], boxes[k], dx, dy, dudt);
      return bits_of(dudt);
    };

    // One thread, serial kernels.
    ccaperf::set_rank_pool_threads(1);
    for (int round = 0; round < 2; ++round)
      for (std::size_t k = 0; k < boxes.size(); ++k)
        EXPECT_EQ(run(k), want[k]) << "serial, patch " << k << ", round " << round;

    // One caller thread whose kernels fan rows out over 3 lanes.
    ccaperf::set_rank_pool_threads(3);
    for (std::size_t k = 0; k < boxes.size(); ++k)
      EXPECT_EQ(run(k), want[k]) << "row-parallel, patch " << k;

    // Concurrent callers: every lane runs the large/small/large sequence
    // on its own scratch, interleaved with the others.
    constexpr std::size_t kJobs = 24;
    std::vector<std::vector<std::uint64_t>> got(kJobs);
    ccaperf::rank_pool().parallel_for(kJobs, [&](std::size_t t, int) {
      got[t] = run(t % boxes.size());
    });
    for (std::size_t t = 0; t < kJobs; ++t)
      EXPECT_EQ(got[t], want[t % boxes.size()]) << "concurrent job " << t;
  });
}

}  // namespace
