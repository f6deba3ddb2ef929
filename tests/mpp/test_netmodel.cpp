// NetworkModel behaviour: deterministic delays from a seed, latency and
// bandwidth terms, jitter distribution, and that modeled delays actually
// slow delivery in the fabric.

#include <gtest/gtest.h>

#include <chrono>

#include "mpp/netmodel.hpp"
#include "mpp/runtime.hpp"
#include "support/stats.hpp"

namespace {

using mpp::Comm;
using mpp::NetworkModel;
using mpp::Runtime;

TEST(NetModel, NullModelHasZeroDelay) {
  NetworkModel m = NetworkModel::null_model();
  EXPECT_TRUE(m.is_null());
  ccaperf::Rng rng(1);
  EXPECT_DOUBLE_EQ(m.delay_us(1 << 20, rng), 0.0);
}

TEST(NetModel, LatencyOnly) {
  NetworkModel m;
  m.latency_us = 50.0;
  ccaperf::Rng rng(1);
  EXPECT_DOUBLE_EQ(m.delay_us(0, rng), 50.0);
  EXPECT_DOUBLE_EQ(m.delay_us(1 << 20, rng), 50.0);
}

TEST(NetModel, BandwidthTermScalesWithSize) {
  NetworkModel m;
  m.latency_us = 10.0;
  m.bandwidth_bytes_per_us = 100.0;
  ccaperf::Rng rng(1);
  EXPECT_DOUBLE_EQ(m.delay_us(1000, rng), 10.0 + 10.0);
  EXPECT_DOUBLE_EQ(m.delay_us(2000, rng), 10.0 + 20.0);
}

TEST(NetModel, JitterIsLogNormalAroundBase) {
  NetworkModel m;
  m.latency_us = 100.0;
  m.jitter_sigma = 0.3;
  ccaperf::Rng rng(7);
  ccaperf::RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(std::log(m.delay_us(0, rng) / 100.0));
  EXPECT_NEAR(s.mean(), 0.0, 0.01);
  EXPECT_NEAR(s.stddev(), 0.3, 0.01);
}

TEST(NetModel, DelayIsNeverNegative) {
  NetworkModel m;
  m.latency_us = 1.0;
  m.jitter_sigma = 2.0;
  ccaperf::Rng rng(3);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(m.delay_us(64, rng), 0.0);
}

TEST(NetModel, ClassicClusterPreset) {
  NetworkModel m = NetworkModel::classic_cluster();
  EXPECT_FALSE(m.is_null());
  EXPECT_GT(m.latency_us, 0.0);
  EXPECT_GT(m.bandwidth_bytes_per_us, 0.0);
}

TEST(NetModel, ModeledDelaySlowsDelivery) {
  // With a 3 ms latency, a round trip must take >= 6 ms of wall time.
  NetworkModel m;
  m.latency_us = 3000.0;
  const auto t0 = std::chrono::steady_clock::now();
  Runtime::run(2, m, [](Comm& world) {
    int v = world.rank();
    if (world.rank() == 0) {
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
      world.irecv_bytes(&v, sizeof v, 1, 1).wait();
    } else {
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();
      world.isend_bytes(&v, sizeof v, 0, 1).wait();
    }
  });
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed_ms, 6.0);
}

TEST(NetModel, NullModelIsFast) {
  // Sanity bound: 200 ping-pongs with no modeled delay stay well under a second.
  const auto t0 = std::chrono::steady_clock::now();
  Runtime::run(2, [](Comm& world) {
    int v = 0;
    for (int i = 0; i < 200; ++i) {
      if (world.rank() == 0) {
        world.isend_bytes(&v, sizeof v, 1, 0).wait();
        world.irecv_bytes(&v, sizeof v, 1, 1).wait();
      } else {
        world.irecv_bytes(&v, sizeof v, 0, 0).wait();
        world.isend_bytes(&v, sizeof v, 0, 1).wait();
      }
    }
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed, 5.0);
}

TEST(NetModel, SameSeedSameDelays) {
  NetworkModel m;
  m.latency_us = 10.0;
  m.jitter_sigma = 0.5;
  ccaperf::Rng a(99), b(99);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(m.delay_us(128, a), m.delay_us(128, b));
}

}  // namespace
