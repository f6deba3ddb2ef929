// Request handle semantics: move-only ownership, consuming completion
// (wait/test), validity transitions, and send-side immediate completion.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mpp/runtime.hpp"

namespace {

using mpp::Comm;
using mpp::Request;
using mpp::Runtime;

TEST(Request, DefaultIsInvalid) {
  Request r;
  EXPECT_FALSE(r.valid());
  EXPECT_FALSE(r.done());
}

TEST(Request, SendCompletesImmediately) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const int v = 1;
      Request r = world.isend_bytes(&v, sizeof v, 1, 0);
      EXPECT_TRUE(r.valid());
      EXPECT_TRUE(r.done());  // buffered-eager send
      mpp::Status s = r.wait();
      EXPECT_EQ(s.bytes, sizeof(int));
      EXPECT_FALSE(r.valid());  // consumed
    } else {
      int v = 0;
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();
    }
  });
}

TEST(Request, MoveTransfersOwnership) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const int v = 2;
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      int v = 0;
      Request a = world.irecv_bytes(&v, sizeof v, 0, 0);
      Request b = std::move(a);
      EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move): asserting the move
      EXPECT_TRUE(b.valid());
      b.wait();
      EXPECT_EQ(v, 2);
    }
  });
}

TEST(Request, MoveAssignReleasesPreviousOperation) {
  // Overwriting a pending receive via move-assignment must cancel it (no
  // dangling posted buffer) and adopt the new operation.
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 1) {
      int doomed = 0, live = 0;
      Request r = world.irecv_bytes(&doomed, sizeof doomed, 0, 1);
      r = world.irecv_bytes(&live, sizeof live, 0, 2);  // cancels tag-1 recv
      world.barrier();
      r.wait();
      EXPECT_EQ(live, 22);
      // The tag-1 message parks in the unexpected queue; receive it fresh.
      int v = 0;
      world.irecv_bytes(&v, sizeof v, 0, 1).wait();
      EXPECT_EQ(v, 11);
    } else {
      world.barrier();
      const int a = 11, b = 22;
      world.isend_bytes(&a, sizeof a, 1, 1).wait();
      world.isend_bytes(&b, sizeof b, 1, 2).wait();
    }
  });
}

TEST(Request, TestConsumesOnSuccessOnly) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.barrier();
      const double v = 2.5;
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      double v = 0;
      Request r = world.irecv_bytes(&v, sizeof v, 0, 0);
      EXPECT_FALSE(r.test().has_value());
      EXPECT_TRUE(r.valid());  // failed test does not consume
      world.barrier();
      std::optional<mpp::Status> s;
      while (!(s = r.test())) {
      }
      EXPECT_EQ(s->bytes, sizeof(double));
      EXPECT_FALSE(r.valid());  // successful test consumes
    }
  });
}

TEST(Request, WaitOnInvalidThrows) {
  Runtime::run(1, [](Comm&) {
    Request r;
    EXPECT_THROW(r.wait(), ccaperf::Error);
  });
}

TEST(Request, WaitSomeSkipsInvalidSlots) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const int v = 9;
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      int v = 0;
      std::vector<Request> reqs(3);  // two invalid placeholders
      reqs[1] = world.irecv_bytes(&v, sizeof v, 0, 0);
      std::vector<int> idx;
      std::size_t n = 0;
      while (n == 0) n = mpp::wait_some(reqs, idx);
      ASSERT_EQ(n, 1u);
      EXPECT_EQ(idx[0], 1);
      EXPECT_EQ(v, 9);
    }
  });
}

TEST(Request, StatusReportsSourceGroupRank) {
  Runtime::run(3, [](Comm& world) {
    if (world.rank() == 2) {
      int v = 0;
      Request r = world.irecv_bytes(&v, sizeof v, mpp::any_source, 5);
      mpp::Status s = r.wait();
      EXPECT_EQ(s.source, 1);
      EXPECT_EQ(s.tag, 5);
    } else if (world.rank() == 1) {
      const int v = 3;
      world.isend_bytes(&v, sizeof v, 2, 5).wait();
    }
  });
}

}  // namespace
