// Point-to-point semantics of the mpp fabric: matching, wildcards,
// non-overtaking order, unexpected messages, truncation, Waitsome/Waitall,
// request cancellation and failure propagation.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "mpp/runtime.hpp"
#include "support/error.hpp"

namespace {

using mpp::Comm;
using mpp::Request;
using mpp::Runtime;
using mpp::Status;

TEST(P2P, WaitedSendRecvRoundTrip) {
  Runtime::run(2, [](Comm& world) {
    std::vector<double> buf(8);
    if (world.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 1.0);
      world.isend<double>(buf, 1, 7).wait();
    } else {
      Status s = world.irecv<double>(buf, 0, 7).wait();
      EXPECT_EQ(s.source, 0);
      EXPECT_EQ(s.tag, 7);
      EXPECT_EQ(s.bytes, 8 * sizeof(double));
      for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(buf[static_cast<std::size_t>(i)], i + 1.0);
    }
  });
}

TEST(P2P, NonblockingRoundTrip) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const std::vector<int> data{1, 2, 3};
      Request r = world.isend<int>(data, 1, 0);
      Status s = r.wait();
      EXPECT_EQ(s.bytes, 3 * sizeof(int));
    } else {
      std::vector<int> data(3);
      Request r = world.irecv<int>(data, 0, 0);
      Status s = r.wait();
      EXPECT_EQ(s.source, 0);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(P2P, UnexpectedMessageIsBufferedUntilRecv) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const int v = 42;
      world.isend_bytes(&v, sizeof v, 1, 5).wait();
      world.barrier();  // ensure the send landed before the recv is posted
    } else {
      world.barrier();
      int v = 0;
      world.irecv_bytes(&v, sizeof v, 0, 5).wait();
      EXPECT_EQ(v, 42);
    }
  });
}

TEST(P2P, AnySourceAndAnyTagMatch) {
  Runtime::run(3, [](Comm& world) {
    if (world.rank() != 0) {
      const int v = world.rank() * 100;
      world.isend_bytes(&v, sizeof v, 0, world.rank()).wait();
    } else {
      int seen = 0;
      for (int i = 0; i < 2; ++i) {
        int v = 0;
        Status s = world.irecv_bytes(&v, sizeof v, mpp::any_source, mpp::any_tag).wait();
        EXPECT_EQ(v, s.source * 100);
        EXPECT_EQ(s.tag, s.source);
        seen += s.source;
      }
      EXPECT_EQ(seen, 3);  // ranks 1 and 2
    }
  });
}

TEST(P2P, TagSelectivity) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const int a = 1, b = 2;
      world.isend_bytes(&a, sizeof a, 1, 10).wait();
      world.isend_bytes(&b, sizeof b, 1, 20).wait();
    } else {
      int v = 0;
      // Receive tag 20 first even though tag 10 arrived first.
      world.irecv_bytes(&v, sizeof v, 0, 20).wait();
      EXPECT_EQ(v, 2);
      world.irecv_bytes(&v, sizeof v, 0, 10).wait();
      EXPECT_EQ(v, 1);
    }
  });
}

TEST(P2P, NonOvertakingOrderPerSourceAndTag) {
  // Messages with identical (source, tag) must be received in send order.
  Runtime::run(2, [](Comm& world) {
    constexpr int kN = 200;
    if (world.rank() == 0) {
      for (int i = 0; i < kN; ++i) world.isend_bytes(&i, sizeof i, 1, 3).wait();
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        world.irecv_bytes(&v, sizeof v, 0, 3).wait();
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(P2P, TruncationThrows) {
  EXPECT_THROW(
      Runtime::run(2,
                   [](Comm& world) {
                     if (world.rank() == 0) {
                       const std::vector<int> big(16, 1);
                       world.isend<int>(big, 1, 0).wait();
                     } else {
                       std::vector<int> small(4);
                       world.irecv<int>(small, 0, 0).wait();
                     }
                   }),
      ccaperf::Error);
}

TEST(P2P, WaitSomeReturnsCompletedSubset) {
  Runtime::run(2, [](Comm& world) {
    constexpr int kMsgs = 8;
    if (world.rank() == 0) {
      for (int i = 0; i < kMsgs; ++i) {
        const int v = i;
        world.isend_bytes(&v, sizeof v, 1, i).wait();
      }
    } else {
      std::vector<int> values(kMsgs, -1);
      std::vector<Request> reqs;
      for (int i = 0; i < kMsgs; ++i)
        reqs.push_back(world.irecv_bytes(&values[static_cast<std::size_t>(i)],
                                         sizeof(int), 0, i));
      std::vector<int> idx;
      std::size_t completed = 0;
      while (completed < kMsgs) {
        const std::size_t n = mpp::wait_some(reqs, idx);
        ASSERT_GE(n, 1u);
        for (int i : idx) EXPECT_FALSE(reqs[static_cast<std::size_t>(i)].valid());
        completed += n;
      }
      for (int i = 0; i < kMsgs; ++i) EXPECT_EQ(values[static_cast<std::size_t>(i)], i);
      // All requests consumed: another wait_some returns 0 immediately.
      EXPECT_EQ(mpp::wait_some(reqs, idx), 0u);
    }
  });
}

TEST(P2P, WaitSomeReportsStatuses) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      const double v = 3.5;
      world.isend_bytes(&v, sizeof v, 1, 9).wait();
    } else {
      double v = 0;
      std::vector<Request> reqs;
      reqs.push_back(world.irecv_bytes(&v, sizeof v, 0, 9));
      std::vector<int> idx;
      std::vector<Status> st;
      std::size_t done = 0;
      while (done == 0) done = mpp::wait_some(reqs, idx, &st);
      ASSERT_EQ(st.size(), 1u);
      EXPECT_EQ(st[0].source, 0);
      EXPECT_EQ(st[0].tag, 9);
      EXPECT_EQ(st[0].bytes, sizeof(double));
      EXPECT_DOUBLE_EQ(v, 3.5);
    }
  });
}

TEST(P2P, WaitAllCompletesEverything) {
  Runtime::run(2, [](Comm& world) {
    constexpr int kMsgs = 16;
    std::vector<int> send(kMsgs), recv(kMsgs, -1);
    std::iota(send.begin(), send.end(), 0);
    std::vector<Request> reqs;
    const int peer = 1 - world.rank();
    for (int i = 0; i < kMsgs; ++i) {
      reqs.push_back(world.irecv_bytes(&recv[static_cast<std::size_t>(i)],
                                       sizeof(int), peer, i));
    }
    for (int i = 0; i < kMsgs; ++i)
      world.isend_bytes(&send[static_cast<std::size_t>(i)], sizeof(int), peer, i).wait();
    mpp::wait_all(reqs);
    EXPECT_EQ(recv, send);
    for (const Request& r : reqs) EXPECT_FALSE(r.valid());
  });
}

TEST(P2P, TestPollsWithoutBlocking) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.barrier();
      const int v = 1;
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      int v = 0;
      Request r = world.irecv_bytes(&v, sizeof v, 0, 0);
      EXPECT_FALSE(r.test().has_value());  // nothing sent yet
      world.barrier();
      while (!r.test()) {
      }
      EXPECT_EQ(v, 1);
      EXPECT_FALSE(r.valid());
    }
  });
}

TEST(P2P, AbandonedRecvIsCancelledSafely) {
  // Dropping a pending irecv must deregister its buffer; a later message
  // with that tag must not be written through the stale pointer.
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 1) {
      {
        std::vector<int> doomed(4);
        Request r = world.irecv<int>(doomed, 0, 77);
        // r destroyed here while still pending -> cancelled.
      }
      world.barrier();   // now let rank 0 send
      int v = 0;
      world.irecv_bytes(&v, sizeof v, 0, 77).wait();
      EXPECT_EQ(v, 5);
    } else {
      world.barrier();
      const int v = 5;
      world.isend_bytes(&v, sizeof v, 1, 77).wait();
    }
  });
}

TEST(P2P, SelfSendRecv) {
  Runtime::run(1, [](Comm& world) {
    const int out = 13;
    int in = 0;
    Request r = world.irecv_bytes(&in, sizeof in, 0, 1);
    world.isend_bytes(&out, sizeof out, 0, 1).wait();
    r.wait();
    EXPECT_EQ(in, 13);
  });
}

TEST(P2P, RankFailurePropagatesInsteadOfDeadlocking) {
  EXPECT_THROW(
      Runtime::run(2,
                   [](Comm& world) {
                     if (world.rank() == 0) ccaperf::raise("deliberate failure");
                     int v = 0;
                     world.irecv_bytes(&v, sizeof v, 0, 0).wait();  // would block forever
                   }),
      ccaperf::Error);
}

TEST(P2P, InvalidDestinationThrows) {
  EXPECT_THROW(Runtime::run(1,
                            [](Comm& world) {
                              const int v = 0;
                              world.isend_bytes(&v, sizeof v, 3, 0).wait();
                            }),
               ccaperf::Error);
}

}  // namespace
