// Communicator management: dup isolates matching contexts, wtime is
// monotone.

#include <gtest/gtest.h>

#include <vector>

#include "mpp/runtime.hpp"

namespace {

using mpp::Comm;
using mpp::Runtime;

TEST(CommMgmt, DupPreservesRankAndSize) {
  Runtime::run(3, [](Comm& world) {
    Comm dup = world.dup();
    EXPECT_EQ(dup.rank(), world.rank());
    EXPECT_EQ(dup.size(), world.size());
  });
}

TEST(CommMgmt, DupIsolatesMessageMatching) {
  // A message sent on `world` must not match a receive posted on the dup,
  // even with identical (source, tag).
  Runtime::run(2, [](Comm& world) {
    Comm dup = world.dup();
    if (world.rank() == 0) {
      const int on_world = 1, on_dup = 2;
      world.isend_bytes(&on_world, sizeof(int), 1, 0).wait();
      dup.isend_bytes(&on_dup, sizeof(int), 1, 0).wait();
    } else {
      int v = 0;
      dup.irecv_bytes(&v, sizeof v, 0, 0).wait();
      EXPECT_EQ(v, 2);
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(CommMgmt, DupCollectivesIndependent) {
  Runtime::run(3, [](Comm& world) {
    Comm dup = world.dup();
    const double a = world.allreduce_value<>(1.0);
    const double b = dup.allreduce_value<>(2.0);
    EXPECT_DOUBLE_EQ(a, 3.0);
    EXPECT_DOUBLE_EQ(b, 6.0);
  });
}

TEST(CommMgmt, WtimeMonotoneAndPositive) {
  Runtime::run(2, [](Comm& world) {
    const double t0 = world.wtime();
    EXPECT_GE(t0, 0.0);
    double prev = t0;
    for (int i = 0; i < 100; ++i) {
      const double t = world.wtime();
      EXPECT_GE(t, prev);
      prev = t;
    }
  });
}

}  // namespace
