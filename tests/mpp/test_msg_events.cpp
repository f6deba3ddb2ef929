// Message-endpoint hook events: every point-to-point message must be
// reported to CommHooks on BOTH sides with the same (src, dst, seq)
// identity, across all completion paths (wait, test, wait_some,
// unexpected arrival). This identity is what core::TraceMerger
// uses to draw cross-rank flow arrows, so it has to be exact — never
// inferred from timestamps.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "mpp/runtime.hpp"

namespace {

using mpp::Comm;
using mpp::MsgEvent;
using mpp::Request;
using mpp::Runtime;

/// Records every endpoint event fired on the installing rank.
struct RecordingHooks : mpp::CommHooks {
  void on_begin(const char*) override {}
  void on_end(const char*, std::size_t) override {}
  void on_message_send(const MsgEvent& e) override { sends.push_back(e); }
  void on_message_recv(const MsgEvent& e) override { recvs.push_back(e); }
  std::vector<MsgEvent> sends;
  std::vector<MsgEvent> recvs;
};

/// Per-rank recorders shared across the rank threads; each rank writes
/// only its own slot, and checks happen after a barrier.
template <std::size_t N>
using Recorders = std::array<RecordingHooks, N>;

bool same_identity(const MsgEvent& a, const MsgEvent& b) {
  return a.src == b.src && a.dst == b.dst && a.seq == b.seq && a.tag == b.tag &&
         a.bytes == b.bytes;
}

TEST(MsgEvents, WaitedSendRecvAgreeOnIdentity) {
  Recorders<2> rec;
  Runtime::run(2, [&](Comm& world) {
    mpp::HooksInstaller install(&rec[static_cast<std::size_t>(world.rank())]);
    double v = 3.5;
    if (world.rank() == 0)
      world.isend_bytes(&v, sizeof v, 1, 7).wait();
    else
      world.irecv_bytes(&v, sizeof v, 0, 7).wait();
    world.barrier();

    if (world.rank() == 0) {
      ASSERT_EQ(rec[0].sends.size(), 1u);
      ASSERT_EQ(rec[1].recvs.size(), 1u);
      const MsgEvent& s = rec[0].sends[0];
      EXPECT_EQ(s.src, 0);
      EXPECT_EQ(s.dst, 1);
      EXPECT_EQ(s.tag, 7);
      EXPECT_EQ(s.bytes, sizeof(double));
      EXPECT_EQ(s.seq, 1u);  // first message on the (0,1) ordered pair
      EXPECT_TRUE(same_identity(s, rec[1].recvs[0]));
      EXPECT_TRUE(rec[0].recvs.empty());
      EXPECT_TRUE(rec[1].sends.empty());
    }
  });
}

TEST(MsgEvents, PairSequenceIsMonotonicAndPerDirection) {
  Recorders<2> rec;
  Runtime::run(2, [&](Comm& world) {
    mpp::HooksInstaller install(&rec[static_cast<std::size_t>(world.rank())]);
    const int peer = 1 - world.rank();
    int v = world.rank();
    // Three messages each way; opposite directions must not share a
    // sequence space.
    for (int i = 0; i < 3; ++i) {
      if (world.rank() == 0) {
        world.isend_bytes(&v, sizeof v, peer, i).wait();
        world.irecv_bytes(&v, sizeof v, peer, i).wait();
      } else {
        world.irecv_bytes(&v, sizeof v, peer, i).wait();
        world.isend_bytes(&v, sizeof v, peer, i).wait();
      }
    }
    world.barrier();
    if (world.rank() == 0) {
      for (std::size_t r = 0; r < 2; ++r) {
        ASSERT_EQ(rec[r].sends.size(), 3u);
        ASSERT_EQ(rec[r].recvs.size(), 3u);
        for (std::size_t i = 0; i < 3; ++i) {
          EXPECT_EQ(rec[r].sends[i].seq, i + 1);  // 1-based, send order
          EXPECT_TRUE(same_identity(rec[r].sends[i],
                                    rec[1 - r].recvs[i]));
        }
      }
    }
  });
}

TEST(MsgEvents, NonblockingWaitPathReportsRecv) {
  Recorders<2> rec;
  Runtime::run(2, [&](Comm& world) {
    mpp::HooksInstaller install(&rec[static_cast<std::size_t>(world.rank())]);
    std::vector<int> buf{1, 2, 3};
    if (world.rank() == 0) {
      Request r = world.isend<int>(buf, 1, 4);
      r.wait();
    } else {
      Request r = world.irecv<int>(buf, 0, 4);
      r.wait();
    }
    world.barrier();
    if (world.rank() == 0) {
      ASSERT_EQ(rec[0].sends.size(), 1u);
      ASSERT_EQ(rec[1].recvs.size(), 1u);
      EXPECT_TRUE(same_identity(rec[0].sends[0], rec[1].recvs[0]));
      EXPECT_EQ(rec[1].recvs[0].bytes, 3 * sizeof(int));
    }
  });
}

TEST(MsgEvents, TestAndWaitsomeCompletionPathsReportRecv) {
  Recorders<2> rec;
  Runtime::run(2, [&](Comm& world) {
    mpp::HooksInstaller install(&rec[static_cast<std::size_t>(world.rank())]);
    int a = 0, b = 0;
    if (world.rank() == 0) {
      a = 10;
      b = 20;
      world.isend_bytes(&a, sizeof a, 1, 1).wait();
      world.isend_bytes(&b, sizeof b, 1, 2).wait();
    } else {
      Request r1 = world.irecv_bytes(&a, sizeof a, 0, 1);
      while (!r1.test()) {
      }
      std::vector<Request> reqs;
      reqs.push_back(world.irecv_bytes(&b, sizeof b, 0, 2));
      std::vector<int> done;
      while (mpp::wait_some(reqs, done) == 0) {
      }
    }
    world.barrier();
    if (world.rank() == 0) {
      ASSERT_EQ(rec[0].sends.size(), 2u);
      ASSERT_EQ(rec[1].recvs.size(), 2u);  // one via test(), one via wait_some
      for (std::size_t i = 0; i < 2; ++i)
        EXPECT_TRUE(same_identity(rec[0].sends[i], rec[1].recvs[i]));
    }
  });
}

TEST(MsgEvents, UnexpectedArrivalStillCarriesSenderIdentity) {
  Recorders<2> rec;
  Runtime::run(2, [&](Comm& world) {
    mpp::HooksInstaller install(&rec[static_cast<std::size_t>(world.rank())]);
    int v = 99;
    if (world.rank() == 0) {
      world.isend_bytes(&v, sizeof v, 1, 5).wait();
      world.barrier();  // message parks in rank 1's mailbox before the recv
    } else {
      world.barrier();
      world.irecv_bytes(&v, sizeof v, mpp::any_source, mpp::any_tag).wait();
    }
    world.barrier();
    if (world.rank() == 0) {
      ASSERT_EQ(rec[1].recvs.size(), 1u);
      // The wildcard receive must report the sender's true identity.
      EXPECT_TRUE(same_identity(rec[0].sends[0], rec[1].recvs[0]));
      EXPECT_EQ(rec[1].recvs[0].src, 0);
      EXPECT_EQ(rec[1].recvs[0].tag, 5);
    }
  });
}

TEST(MsgEvents, NoHooksInstalledMeansNoEvents) {
  // A rank without hooks must not crash or leak events elsewhere.
  Recorders<2> rec;
  Runtime::run(2, [&](Comm& world) {
    int v = 1;
    if (world.rank() == 0) {
      mpp::HooksInstaller install(&rec[0]);
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();  // no hooks on this rank
    }
    world.barrier();
    if (world.rank() == 0) {
      EXPECT_EQ(rec[0].sends.size(), 1u);
      EXPECT_TRUE(rec[1].recvs.empty());
    }
  });
}

}  // namespace
