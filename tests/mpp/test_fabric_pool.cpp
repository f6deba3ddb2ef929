// Buffer pool + ack-at-match tests: a message that meets a posted receive
// is copied once, straight from the sender's buffer; one that parks is
// staged through the fabric's size-classed slab pool (steady state
// allocates nothing). Sends of Fabric::kRendezvousBytes or more complete
// only when a receive takes them, and every size preserves MPI's
// non-overtaking matching order per (source, tag).

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "mpp/runtime.hpp"

namespace {

using mpp::Comm;
using mpp::Fabric;
using mpp::Request;
using mpp::Runtime;

TEST(BufferPool, SlabsAreReusedAcrossAcquireRelease) {
  mpp::detail::BufferPool pool;
  auto a = pool.acquire(100);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_GE(a.capacity(), 128u);  // rounded up to its size class
  pool.release(std::move(a));
  auto b = pool.acquire(80);  // same class (128 B): must reuse the slab
  EXPECT_EQ(b.size(), 80u);
  const auto s = pool.stats();
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.reuses, 1u);
  EXPECT_EQ(s.releases, 1u);
  EXPECT_EQ(s.discards, 0u);
}

TEST(BufferPool, OversizeSlabsAreNotPooled) {
  mpp::detail::BufferPool pool;
  auto big = pool.acquire(Fabric::kRendezvousBytes * 4);
  pool.release(std::move(big));
  // A slab larger than the top class still files under the top class (its
  // capacity covers every request of that class)...
  auto again = pool.acquire(Fabric::kRendezvousBytes);
  EXPECT_EQ(pool.stats().reuses, 1u);
  // ...but a sub-minimum slab is dropped.
  pool.release(std::vector<std::byte>(8));
  EXPECT_EQ(pool.stats().discards, 1u);
  (void)again;
}

TEST(BufferPool, UnexpectedTrafficReusesSlabs) {
  // Messages park unexpected (receiver posts late), so every send stages
  // through the pool; from round 2 on the slabs come from the free lists.
  Runtime::run(2, [](Comm& world) {
    constexpr int kRounds = 4, kMsgs = 16;
    for (int round = 0; round < kRounds; ++round) {
      if (world.rank() == 0) {
        std::vector<std::uint32_t> payload(64, static_cast<std::uint32_t>(round));
        for (int k = 0; k < kMsgs; ++k) world.isend<std::uint32_t>(payload, 1, k).wait();
      }
      world.barrier();  // all sends parked before any receive posts
      if (world.rank() == 1) {
        std::vector<std::uint32_t> buf(64);
        for (int k = 0; k < kMsgs; ++k) {
          world.irecv<std::uint32_t>(buf, 0, k).wait();
          EXPECT_EQ(buf[0], static_cast<std::uint32_t>(round));
        }
      }
      world.barrier();  // slabs released before the next round's sends
    }
    const auto s = world.pool_stats();
    EXPECT_EQ(s.acquires, static_cast<std::uint64_t>(kRounds * kMsgs));
    EXPECT_GE(s.reuses, static_cast<std::uint64_t>((kRounds - 1) * kMsgs));
    EXPECT_EQ(s.releases, s.acquires);
  });
}

TEST(BufferPool, PostedReceiveTakesCleanMessageWithoutStaging) {
  // A clean message that meets a posted receive is copied straight from
  // the sender's buffer into the receive buffer: no pool slab, any size.
  Runtime::run(2, [](Comm& world) {
    const std::size_t small_n = 16;
    const std::size_t large_n = Fabric::kRendezvousBytes / sizeof(double) + 5;
    if (world.rank() == 0) {
      std::vector<double> small(small_n), large(large_n);
      Request rs = world.irecv<double>(small, 1, 0);
      Request rl = world.irecv<double>(large, 1, 1);
      world.barrier();  // both receives posted before the sends start
      rs.wait();
      rl.wait();
      EXPECT_DOUBLE_EQ(small.back(), 1.5);
      EXPECT_DOUBLE_EQ(large.back(), 2.5);
    } else {
      std::vector<double> small(small_n, 1.5), large(large_n, 2.5);
      world.barrier();
      world.isend<double>(small, 0, 0).wait();
      world.isend<double>(large, 0, 1).wait();
    }
    world.barrier();
    EXPECT_EQ(world.pool_stats().acquires, 0u);
  });
}

TEST(Rendezvous, LargeUnmatchedSendCompletesOnlyAtMatch) {
  // A large clean send that finds no posted receive stays incomplete until
  // the receiver takes it, then completes.
  Runtime::run(2, [](Comm& world) {
    const std::size_t n = Fabric::kRendezvousBytes / sizeof(double);
    if (world.rank() == 0) {
      std::vector<double> big(n, 4.0);
      Request req = world.isend<double>(big, 1, 0);
      EXPECT_FALSE(req.done());
      world.barrier();  // receiver posts only after this
      world.barrier();  // ...and has received before this
      EXPECT_TRUE(req.done());
      req.wait();
    } else {
      world.barrier();
      std::vector<double> big(n);
      world.irecv<double>(big, 0, 0).wait();
      EXPECT_DOUBLE_EQ(big.back(), 4.0);
      world.barrier();
    }
  });
}

TEST(Rendezvous, LargeUnexpectedMessageArrivesIntact) {
  // A parked large message must arrive bit-exact.
  Runtime::run(2, [](Comm& world) {
    const std::size_t n = Fabric::kRendezvousBytes / sizeof(double) * 3;
    if (world.rank() == 0) {
      std::vector<double> big(n);
      std::iota(big.begin(), big.end(), 0.5);
      Request req = world.isend<double>(big, 1, 0);
      world.barrier();  // message is parked before the receive posts
      req.wait();
    } else {
      world.barrier();
      std::vector<double> big(n);
      world.irecv<double>(big, 0, 0).wait();
      EXPECT_DOUBLE_EQ(big.front(), 0.5);
      EXPECT_DOUBLE_EQ(big.back(), static_cast<double>(n - 1) + 0.5);
    }
  });
}

TEST(Rendezvous, MixedSizesStayNonOvertakingPerSourceAndTag) {
  // Alternating eager and ack-at-match messages on one (source, tag) must
  // be received in send order.
  Runtime::run(2, [](Comm& world) {
    constexpr int kMsgs = 12;
    const std::size_t small_n = 64;
    const std::size_t large_n = Fabric::kRendezvousBytes / sizeof(std::uint32_t) + 7;
    if (world.rank() == 0) {
      std::vector<std::vector<std::uint32_t>> payloads;
      std::vector<Request> reqs;
      for (int k = 0; k < kMsgs; ++k) {
        payloads.emplace_back(k % 2 == 0 ? small_n : large_n,
                              static_cast<std::uint32_t>(k));
        reqs.push_back(world.isend<std::uint32_t>(payloads.back(), 1, 5));
      }
      world.barrier();  // everything parked before the receiver starts
      mpp::wait_all(reqs);
    } else {
      world.barrier();
      std::vector<std::uint32_t> buf(large_n);
      for (int k = 0; k < kMsgs; ++k) {
        const mpp::Status s = world.irecv<std::uint32_t>(buf, 0, 5).wait();
        const std::size_t words = s.bytes / sizeof(std::uint32_t);
        EXPECT_EQ(words, k % 2 == 0 ? small_n : large_n);
        EXPECT_EQ(buf[0], static_cast<std::uint32_t>(k)) << "message overtook";
        EXPECT_EQ(buf[words - 1], static_cast<std::uint32_t>(k));
      }
    }
  });
}

TEST(Rendezvous, WaitsomeDrainsMixedEagerAndRendezvousRecvs) {
  // The AMR pattern with an ack-at-match-sized flow mixed in: irecvs posted
  // up front, completed by repeated wait_some as sends trickle in.
  Runtime::run(3, [](Comm& world) {
    const std::size_t large_n = Fabric::kRendezvousBytes / sizeof(double) + 3;
    if (world.rank() == 0) {
      std::vector<std::vector<double>> inbox;
      std::vector<Request> reqs;
      for (int src = 1; src < 3; ++src) {
        inbox.emplace_back(large_n);
        reqs.push_back(world.irecv<double>(inbox.back(), src, 0));
        inbox.emplace_back(8);
        reqs.push_back(world.irecv<double>(inbox.back(), src, 1));
      }
      std::vector<int> done;
      std::size_t completed = 0;
      while (completed < reqs.size()) {
        const std::size_t c = mpp::wait_some(reqs, done);
        ASSERT_GT(c, 0u);
        completed += c;
      }
      for (std::size_t i = 0; i < inbox.size(); ++i)
        EXPECT_DOUBLE_EQ(inbox[i].back(), 42.0) << "slot " << i;
    } else {
      std::vector<double> large(large_n, 42.0), small(8, 42.0);
      world.isend<double>(large, 0, 0).wait();
      world.isend<double>(small, 0, 1).wait();
    }
  });
}

TEST(Rendezvous, CancelledSendIsRemovedFromTheUnexpectedQueue) {
  // Dropping the handle of an unmatched ack-at-match isend must de-park
  // its message: the receiver then sees only the replacement message.
  Runtime::run(2, [](Comm& world) {
    const std::size_t n = Fabric::kRendezvousBytes / sizeof(double) + 1;
    if (world.rank() == 0) {
      {
        std::vector<double> doomed(n, -1.0);
        Request req = world.isend<double>(doomed, 1, 3);
        // req dropped here: the parked message must be removed.
      }
      std::vector<double> kept(n, 7.0);
      Request req = world.isend<double>(kept, 1, 3);
      world.barrier();
      req.wait();
    } else {
      world.barrier();
      std::vector<double> buf(n);
      world.irecv<double>(buf, 0, 3).wait();
      EXPECT_DOUBLE_EQ(buf.front(), 7.0);
      EXPECT_DOUBLE_EQ(buf.back(), 7.0);
    }
  });
}

TEST(Rendezvous, WaitedSendCompletesAgainstPostedReceive) {
  // A posted receive matches a large send directly (one copy, no park):
  // the send's wait must not hang.
  Runtime::run(2, [](Comm& world) {
    const std::size_t n = Fabric::kRendezvousBytes / sizeof(double) * 2;
    if (world.rank() == 0) {
      std::vector<double> buf(n);
      Request req = world.irecv<double>(buf, 1, 0);
      world.barrier();  // receive is posted before the send starts
      req.wait();
      EXPECT_DOUBLE_EQ(buf[n / 2], 3.25);
    } else {
      std::vector<double> big(n, 3.25);
      world.barrier();
      world.isend<double>(big, 0, 0).wait();
    }
  });
}

}  // namespace
