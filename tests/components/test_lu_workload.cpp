// components::LuFactorComponent — the HPL-style dense-LU session
// workload: residual correctness against the regenerated matrix,
// bitwise determinism, pivoting, and the lu_proxy monitoring records
// the TelemetryHub's LU sessions produce.

#include "components/lu_workload.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/mastermind.hpp"
#include "core/proxies.hpp"
#include "core/tau_component.hpp"

namespace {

components::LuResult factor(int n, int block, std::uint64_t seed) {
  components::LuFactorComponent lu;
  return lu.factor(n, block, seed);
}

TEST(LuWorkload, ResidualAgainstRegeneratedMatrix) {
  for (const int n : {8, 32, 96}) {
    const components::LuResult r = factor(n, 16, 42);
    // Partial pivoting keeps the growth factor small on random matrices,
    // so the factorization residual sits within a few orders of eps.
    EXPECT_LT(r.residual_max, 1e-9) << "n=" << n;
    EXPECT_EQ(r.flops, static_cast<std::uint64_t>(2.0 * n * n * n / 3.0));
  }
}

TEST(LuWorkload, DeterministicDigestPerSeed) {
  const components::LuResult a = factor(64, 16, 7);
  const components::LuResult b = factor(64, 16, 7);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.row_swaps, b.row_swaps);
  const components::LuResult c = factor(64, 16, 8);
  EXPECT_NE(a.digest, c.digest);
}

TEST(LuWorkload, PartialPivotingActuallyPivots) {
  // Fully random matrix: the max-magnitude entry of column k is almost
  // never already at row k, so a 96x96 factorization should swap on the
  // order of n times. Near-zero swaps would mean pivoting is dead code
  // (which is exactly what a diagonally-boosted generator produces).
  for (std::uint64_t seed = 1; seed <= 4; ++seed)
    EXPECT_GT(factor(96, 24, seed).row_swaps, 48u) << "seed=" << seed;
}

TEST(LuWorkload, BlockWidthPreservesCorrectness) {
  for (const int block : {1, 5, 16, 64, 128}) {
    const components::LuResult r = factor(64, block, 3);
    EXPECT_LT(r.residual_max, 1e-9) << "block=" << block;
  }
}

TEST(LuWorkload, MatrixEntryIsPureAndBounded) {
  EXPECT_EQ(components::lu_matrix_entry(5, 32, 3, 9),
            components::lu_matrix_entry(5, 32, 3, 9));
  for (int i = 0; i < 32; ++i)
    for (int j = 0; j < 32; ++j) {
      const double v = components::lu_matrix_entry(5, 32, i, j);
      EXPECT_GE(v, -1.0);
      EXPECT_LT(v, 1.0);
    }
}

TEST(LuWorkload, ProxyReportsMonitoredRecords) {
  // The KernelRig shape: Mastermind + TAU with lu_proxy interposed.
  cca::ComponentRepository repo;
  repo.register_class("TauMeasurement", [] {
    return std::make_unique<core::TauMeasurementComponent>();
  });
  repo.register_class("Mastermind",
                      [] { return std::make_unique<core::MastermindComponent>(); });
  repo.register_class("LuFactor", [] {
    return std::make_unique<components::LuFactorComponent>();
  });
  repo.register_class("LuProxy", [] { return std::make_unique<core::LuProxy>(); });
  cca::Framework fw(std::move(repo));
  fw.instantiate("tau", "TauMeasurement");
  fw.instantiate("mm", "Mastermind");
  fw.instantiate("lu", "LuFactor");
  fw.instantiate("lu_proxy", "LuProxy");
  fw.connect("mm", "measurement", "tau", "measurement");
  fw.connect("lu_proxy", "monitor", "mm", "monitor");
  fw.connect("lu_proxy", "lu_real", "lu", "lu");

  auto* lu = fw.services("lu_proxy").provided_as<components::LuPort>("lu");
  const components::LuResult direct = factor(48, 12, 9);
  const components::LuResult proxied = lu->factor(48, 12, 9);
  EXPECT_EQ(direct.digest, proxied.digest);  // proxy is transparent

  auto* mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
  ASSERT_NE(mm, nullptr);
  const core::Record* rec = mm->record("lu_proxy::factor()");
  ASSERT_NE(rec, nullptr);
  ASSERT_EQ(rec->count(), 1u);
  EXPECT_EQ(rec->param_at(0, "N"), 48.0);
  EXPECT_EQ(rec->param_at(0, "block"), 12.0);
  EXPECT_GT(rec->wall_us(0), 0.0);
}

}  // namespace
