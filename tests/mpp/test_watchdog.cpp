// The deadlock watchdog (CCAPERF_WATCHDOG_SECONDS): a genuinely stuck run
// must abort with a diagnosable exception instead of hanging; healthy runs
// must be unaffected; zero switches it off; and malformed values raise.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "mpp/runtime.hpp"
#include "support/error.hpp"

namespace {

struct WatchdogEnv {
  explicit WatchdogEnv(const char* value) {
    ::setenv("CCAPERF_WATCHDOG_SECONDS", value, 1);
  }
  ~WatchdogEnv() { ::unsetenv("CCAPERF_WATCHDOG_SECONDS"); }
};

TEST(Watchdog, AbortsAStuckReceive) {
  WatchdogEnv env("1");
  bool threw = false;
  try {
    mpp::Runtime::run(2, [](mpp::Comm& world) {
      if (world.rank() == 0) {
        int v = 0;
        world.irecv_bytes(&v, sizeof v, 1, 0).wait();  // never sent
      }
      // rank 1 exits immediately
    });
  } catch (const ccaperf::Error& e) {
    threw = true;
    EXPECT_NE(std::string(e.what()).find("aborted"), std::string::npos);
  }
  EXPECT_TRUE(threw);
}

TEST(Watchdog, AbortsAStuckCollective) {
  WatchdogEnv env("1");
  EXPECT_THROW(mpp::Runtime::run(2,
                                 [](mpp::Comm& world) {
                                   if (world.rank() == 0) world.barrier();
                                   // rank 1 never joins the barrier
                                 }),
               ccaperf::Error);
}

TEST(Watchdog, HealthyRunUnaffected) {
  WatchdogEnv env("30");
  mpp::Runtime::run(3, [](mpp::Comm& world) {
    const double sum = world.allreduce_value<>(1.0);
    EXPECT_DOUBLE_EQ(sum, 3.0);
  });
}

TEST(Watchdog, ZeroDisablesItAndGarbageRaises) {
  {
    WatchdogEnv env("0");
    mpp::Runtime::run(2, [](mpp::Comm& world) { world.barrier(); });
  }
  for (const char* bad : {"not-a-number", "abc", "5s"}) {
    WatchdogEnv env(bad);
    try {
      mpp::Runtime::run(2, [](mpp::Comm& world) { world.barrier(); });
      ADD_FAILURE() << "CCAPERF_WATCHDOG_SECONDS=" << bad << " was accepted";
    } catch (const ccaperf::Error& e) {
      EXPECT_NE(std::string(e.what()).find("CCAPERF_WATCHDOG_SECONDS"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
