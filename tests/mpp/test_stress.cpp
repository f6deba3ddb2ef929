// Randomized stress / property tests: many ranks exchanging randomized
// message patterns must deliver every payload intact, in order per
// (source, tag), regardless of interleaving.

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <vector>

#include "mpp/runtime.hpp"
#include "support/rng.hpp"

namespace {

using mpp::Comm;
using mpp::Request;
using mpp::Runtime;

// Every rank sends K randomized-size messages to every other rank; each
// receiver posts wildcard receives and checks content via a checksum
// embedded in the payload.
class RandomExchange : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RandomExchange, AllPayloadsArriveIntact) {
  const auto [nranks, kmsgs] = GetParam();
  Runtime::run(nranks, [kmsgs = kmsgs](Comm& world) {
    ccaperf::Rng rng(1000 + static_cast<std::uint64_t>(world.rank()));
    const int n = world.size();

    // Phase 1: everybody sends.
    for (int dest = 0; dest < n; ++dest) {
      if (dest == world.rank()) continue;
      for (int k = 0; k < kmsgs; ++k) {
        const auto len = static_cast<std::size_t>(rng.uniform_int(1, 512));
        std::vector<std::uint32_t> payload(len + 2);
        payload[0] = static_cast<std::uint32_t>(world.rank());
        std::uint32_t sum = 0;
        for (std::size_t i = 2; i < payload.size(); ++i) {
          payload[i] = static_cast<std::uint32_t>(rng());
          sum ^= payload[i];
        }
        payload[1] = sum;
        world.isend<std::uint32_t>(payload, dest, k).wait();
      }
    }

    // Phase 2: receive everything with wildcards.
    const int expected = (n - 1) * kmsgs;
    for (int got = 0; got < expected; ++got) {
      std::vector<std::uint32_t> buf(514 + 2);
      mpp::Status s = world.irecv<std::uint32_t>(buf, mpp::any_source, mpp::any_tag).wait();
      const std::size_t words = s.bytes / sizeof(std::uint32_t);
      ASSERT_GE(words, 3u);
      EXPECT_EQ(buf[0], static_cast<std::uint32_t>(s.source));
      std::uint32_t sum = 0;
      for (std::size_t i = 2; i < words; ++i) sum ^= buf[i];
      EXPECT_EQ(sum, buf[1]) << "payload corrupted from rank " << s.source;
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Patterns, RandomExchange,
                         ::testing::Values(std::tuple{2, 20}, std::tuple{3, 10},
                                           std::tuple{4, 5}, std::tuple{6, 3}));

TEST(Stress, ManyOutstandingIrecvsCompleteViaWaitsome) {
  // Mimics the AMR ghost-exchange pattern: a pile of irecvs completed by
  // repeated wait_some while sends trickle in.
  Runtime::run(3, [](Comm& world) {
    constexpr int kPerPeer = 40;
    const int n = world.size();
    std::vector<std::vector<int>> inbox(
        static_cast<std::size_t>((n - 1) * kPerPeer), std::vector<int>(4, -1));
    std::vector<Request> reqs;
    std::size_t slot = 0;
    for (int src = 0; src < n; ++src) {
      if (src == world.rank()) continue;
      for (int k = 0; k < kPerPeer; ++k)
        reqs.push_back(world.irecv<int>(inbox[slot++], src, k));
    }
    for (int dest = 0; dest < n; ++dest) {
      if (dest == world.rank()) continue;
      for (int k = 0; k < kPerPeer; ++k) {
        std::vector<int> msg{world.rank(), k, world.rank() * k, 7};
        world.isend<int>(msg, dest, k).wait();
      }
    }
    std::vector<int> idx;
    std::size_t completed = 0;
    while (completed < reqs.size()) {
      const std::size_t c = mpp::wait_some(reqs, idx);
      ASSERT_GT(c, 0u);
      completed += c;
    }
    for (const auto& m : inbox) {
      EXPECT_EQ(m[3], 7);
      EXPECT_EQ(m[2], m[0] * m[1]);
    }
  });
}

TEST(Stress, RepeatedRunsAreIndependent) {
  // Back-to-back Runtime::run calls must not leak state between fabrics.
  for (int rep = 0; rep < 5; ++rep) {
    Runtime::run(3, [rep](Comm& world) {
      const double sum = world.allreduce_value<>(static_cast<double>(rep));
      EXPECT_DOUBLE_EQ(sum, 3.0 * rep);
    });
  }
}

TEST(Stress, LargeMessages) {
  Runtime::run(2, [](Comm& world) {
    const std::size_t n = 1 << 20;  // 8 MB of doubles
    if (world.rank() == 0) {
      std::vector<double> big(n);
      std::iota(big.begin(), big.end(), 0.0);
      world.isend<double>(big, 1, 0).wait();
    } else {
      std::vector<double> big(n);
      world.irecv<double>(big, 0, 0).wait();
      EXPECT_DOUBLE_EQ(big.front(), 0.0);
      EXPECT_DOUBLE_EQ(big[n / 2], static_cast<double>(n / 2));
      EXPECT_DOUBLE_EQ(big.back(), static_cast<double>(n - 1));
    }
  });
}

TEST(Stress, ZeroByteMessages) {
  Runtime::run(2, [](Comm& world) {
    if (world.rank() == 0) {
      world.isend_bytes(nullptr, 0, 1, 0).wait();
    } else {
      mpp::Status s = world.irecv_bytes(nullptr, 0, 0, 0).wait();
      EXPECT_EQ(s.bytes, 0u);
      EXPECT_EQ(s.source, 0);
    }
  });
}

}  // namespace
