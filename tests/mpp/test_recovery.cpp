// Recovery-protocol tests (DESIGN.md §8): wait bounds that surface typed
// CommErrors instead of hanging ctest, send-side retransmission with
// exponential backoff, retry exhaustion failing the sender, and duplicate
// suppression. The headline regression here is the wait-family hang: a
// wait on a message that never arrives (or a collective whose peer never
// joins) used to block forever; it must now fail in well under a second
// when the no-progress bound is tightened.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <exception>
#include <span>
#include <tuple>
#include <vector>

#include "mpp/runtime.hpp"

namespace {

using mpp::Comm;
using mpp::CommErrc;
using mpp::CommError;
using mpp::FaultSpec;
using mpp::FaultStats;
using mpp::Request;
using mpp::Runtime;

using Clock = std::chrono::steady_clock;

double elapsed_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

TEST(Recovery, WaitOnMissingMessageFailsFastInsteadOfHanging) {
  // Regression: Request::wait used to block forever on a message that
  // never arrives. The always-on no-progress bound must trip — quickly
  // once tightened, and in bounded time even with no faults configured.
  mpp::RunOptions opts;
  opts.idle_limit_us = 150e3;  // 150 ms; the default is 60 s
  const Clock::time_point t0 = Clock::now();
  bool threw = false;
  CommErrc code = CommErrc::aborted;
  try {
    Runtime::run(1, opts, [&](Comm& world) {
      std::uint8_t b = 0;
      Request r = world.irecv_bytes(&b, 1, 0, 5);
      r.wait();
    });
  } catch (const CommError& e) {
    threw = true;
    code = e.code();
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(code, CommErrc::no_progress);
  EXPECT_LT(elapsed_ms(t0), 1000.0) << "hang regression: wait did not bound";
  // The bound exists even when nobody configures it.
  EXPECT_GT(mpp::Fabric::kDefaultIdleLimitUs, 0.0);
}

TEST(Recovery, ConfiguredTimeoutSurfacesTypedError) {
  mpp::RunOptions opts;
  opts.wait_timeout_us = 80e3;  // per-wait budget, tighter than idle bound
  const Clock::time_point t0 = Clock::now();
  CommErrc code = CommErrc::aborted;
  std::uint64_t counted = 0;
  Runtime::run(1, opts, [&](Comm& world) {
    std::uint8_t b = 0;
    Request r = world.irecv_bytes(&b, 1, 0, 6);
    try {
      r.wait();
      FAIL() << "wait on a never-sent message returned";
    } catch (const CommError& e) {
      code = e.code();
      counted = world.fault_stats().timeouts;
    }
  });
  EXPECT_EQ(code, CommErrc::timeout);
  EXPECT_EQ(counted, 1u);
  EXPECT_LT(elapsed_ms(t0), 1000.0);
}

TEST(Recovery, WaitSomeHonorsTheSameBounds) {
  mpp::RunOptions opts;
  opts.idle_limit_us = 120e3;
  const Clock::time_point t0 = Clock::now();
  CommErrc code = CommErrc::aborted;
  Runtime::run(1, opts, [&](Comm& world) {
    std::array<std::uint8_t, 2> b{};
    std::vector<Request> reqs;
    reqs.push_back(world.irecv_bytes(&b[0], 1, 0, 7));
    reqs.push_back(world.irecv_bytes(&b[1], 1, 0, 8));
    std::vector<int> done;
    try {
      mpp::wait_some(reqs, done);
      FAIL() << "wait_some on never-sent messages returned";
    } catch (const CommError& e) {
      code = e.code();
    }
  });
  EXPECT_EQ(code, CommErrc::no_progress);
  EXPECT_LT(elapsed_ms(t0), 1000.0);
}

TEST(Recovery, CollectiveWithAMissingPeerFailsInsteadOfHanging) {
  // Regression: a collective hop receive used to block with no bound, so
  // a barrier whose peer never joins hung until the watchdog. It must now
  // fail on the same no-progress bound as a point-to-point wait.
  mpp::RunOptions opts;
  opts.idle_limit_us = 200e3;
  bool threw = false;
  CommErrc code = CommErrc::aborted;
  try {
    Runtime::run(2, opts, [&](Comm& world) {
      if (world.rank() == 1) return;  // never enters the barrier
      world.barrier();
    });
  } catch (const CommError& e) {
    threw = true;
    code = e.code();
  }
  EXPECT_TRUE(threw);
  EXPECT_EQ(code, CommErrc::no_progress);
}

TEST(Recovery, DroppedMessagesAreRetransmittedAndReceived) {
  // drop=1.0 with loss-free retries: every initial delivery is lost and
  // every first retransmission lands. The receiver's wait polls drive the
  // retry ledger, so a plain waited receive recovers with no caller
  // involvement.
  mpp::RunOptions opts;
  opts.faults.drop = 1.0;
  opts.faults.retry_faults = false;
  opts.faults.retry_base_steps = 1;
  constexpr int kN = 5;
  FaultStats stats;
  Runtime::run(2, opts, [&](Comm& world) {
    if (world.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        int v = 100 + i;
        world.isend_bytes(&v, sizeof v, 1, i).wait();
      }
      world.barrier();
      stats = world.fault_stats();
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        world.irecv_bytes(&v, sizeof v, 0, i).wait();
        EXPECT_EQ(v, 100 + i);
      }
      world.barrier();
    }
  });
  EXPECT_EQ(stats.injected_drops, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(stats.retries, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(stats.retries_exhausted, 0u);
}

TEST(Recovery, RendezvousRetryExhaustionFailsTheSender) {
  // A rendezvous-class send is only complete once the receiver matches it
  // (ack-at-match). With every attempt dropped, the ledger must exhaust
  // and fail the *sender's* wait with a typed error instead of leaving it
  // parked forever.
  mpp::RunOptions opts;
  opts.faults.drop = 1.0;
  opts.faults.retry_faults = true;  // retries drop too -> guaranteed exhaustion
  opts.faults.retry_base_steps = 1;
  opts.faults.retry_max_attempts = 3;
  CommErrc code = CommErrc::aborted;
  FaultStats stats;
  const Clock::time_point t0 = Clock::now();
  Runtime::run(2, opts, [&](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::uint8_t> big(72 * 1024, 0xAB);
      Request r = world.isend_bytes(big.data(), big.size(), 1, 3);
      try {
        r.wait();
        FAIL() << "sender completed although every attempt was dropped";
      } catch (const CommError& e) {
        code = e.code();
        stats = world.fault_stats();
      }
    }
    // rank 1 never posts the receive and simply exits.
  });
  EXPECT_EQ(code, CommErrc::retry_exhausted);
  EXPECT_EQ(stats.retries_exhausted, 1u);
  EXPECT_GE(stats.retries, 2u);
  EXPECT_LT(elapsed_ms(t0), 2000.0);
}

TEST(Recovery, DuplicatesAreDeliveredExactlyOnce) {
  mpp::RunOptions opts;
  opts.faults.duplicate = 1.0;  // every message arrives twice at the fabric
  constexpr int kN = 6;
  FaultStats stats;
  Runtime::run(2, opts, [&](Comm& world) {
    if (world.rank() == 0) {
      std::vector<std::array<int, 2>> bufs(kN);
      std::vector<Request> reqs;
      for (int i = 0; i < kN; ++i) {
        bufs[static_cast<std::size_t>(i)] = {i, ~i};
        reqs.push_back(world.isend_bytes(
            bufs[static_cast<std::size_t>(i)].data(), sizeof(int) * 2, 1, 0));
      }
      world.barrier();
      world.barrier();
      mpp::wait_all(reqs);
      stats = world.fault_stats();
      world.barrier();
    } else {
      world.barrier();
      for (int n = 0; n < kN; ++n) {
        std::array<int, 2> v{-1, -1};
        world.irecv_bytes(v.data(), sizeof v, 0, 0).wait();
        EXPECT_EQ(v[0], n);  // non-overtaking order preserved
        EXPECT_EQ(v[1], ~n);
      }
      // Flush clones still held in the fault layer, then confirm there is
      // nothing more to receive: the dedupe filter swallowed every copy.
      std::uint8_t b = 0;
      Request probe = world.irecv_bytes(&b, 1, 0, 777);
      for (int k = 0; k < 12; ++k) EXPECT_FALSE(probe.test().has_value());
      world.barrier();
      world.barrier();
    }
  });
  EXPECT_EQ(stats.injected_duplicates, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(stats.duplicates_suppressed, static_cast<std::uint64_t>(kN));
}

TEST(Recovery, CleanRunKeepsBoundsDisabledSemantics) {
  // A fault-free run with default options must not regress: no counters,
  // no surprise errors, wait completes normally.
  FaultStats stats;
  Runtime::run(2, [&](Comm& world) {
    if (world.rank() == 0) {
      int v = 41;
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      int v = 0;
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();
      EXPECT_EQ(v, 41);
    }
    world.barrier();
    if (world.rank() == 0) stats = world.fault_stats();
  });
  EXPECT_EQ(stats.injected_total(), 0u);
  EXPECT_EQ(stats.timeouts, 0u);
}

// --- A rank that fails before a collective --------------------------------
//
// Rank 0 throws before entering the collective; the runtime aborts the
// fabric, and every peer blocked on a hop relay must leave the call with
// CommError(aborted) instead of hanging. Every remaining collective needs
// rank 0's part on every peer, so each peer fails inside the call. No
// watchdog is involved: the abort alone unblocks them.

struct RankFailure : std::exception {};

enum class Coll { barrier, allreduce, dup };

void enter(Coll op, Comm& world) {
  const auto n = static_cast<std::size_t>(world.size());
  std::vector<double> in(n, 1.0), out(n, 0.0);
  switch (op) {
    case Coll::barrier: world.barrier(); break;
    case Coll::allreduce: world.allreduce<double>(in, out); break;
    case Coll::dup: (void)world.dup(); break;
  }
}

class AbortInCollective
    : public ::testing::TestWithParam<std::tuple<int, Coll>> {};

TEST_P(AbortInCollective, EveryPeerLeavesWithCommError) {
  const auto [n, op] = GetParam();
  std::atomic<int> in_call_errors{0};
  EXPECT_THROW(Runtime::run(n,
                            [&](Comm& world) {
                              if (world.rank() == 0) throw RankFailure{};
                              try {
                                enter(op, world);
                              } catch (const CommError& e) {
                                if (e.code() == CommErrc::aborted) ++in_call_errors;
                                throw;
                              }
                            }),
               RankFailure);
  EXPECT_EQ(in_call_errors.load(), n - 1);
}

INSTANTIATE_TEST_SUITE_P(
    Collectives, AbortInCollective,
    ::testing::Combine(::testing::Values(3, 5),
                       ::testing::Values(Coll::barrier, Coll::allreduce,
                                         Coll::dup)));

}  // namespace
