#include "mpp/runtime.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "support/env.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace mpp {

namespace {

/// Applies the environment knobs on top of caller-provided options, so a
/// driver like bench_fig01_simulation can run under a fault plan without
/// any plumbing of its own.
RunOptions with_env(RunOptions opts) {
  const FaultSpec env_faults = FaultSpec::from_env();
  if (env_faults.any()) opts.faults = env_faults;
  if (const auto ms = ccaperf::env_number("CCAPERF_WAIT_TIMEOUT_MS"))
    opts.wait_timeout_us = *ms * 1e3;
  return opts;
}

}  // namespace

void Runtime::run(int nranks, const RunOptions& options,
                  const std::function<void(Comm&)>& rank_main) {
  CCAPERF_REQUIRE(nranks >= 1, "Runtime::run: need at least one rank");
  CCAPERF_REQUIRE(rank_main != nullptr, "Runtime::run: null rank_main");

  const RunOptions opts = with_env(options);
  Fabric fabric(nranks, opts.net);
  fabric.set_fault_spec(opts.faults);
  fabric.set_wait_timeout_us(opts.wait_timeout_us);
  fabric.set_idle_limit_us(opts.idle_limit_us);

  std::exception_ptr first_error;
  std::mutex error_mu;

  auto body = [&](int rank) {
    Comm world(&fabric, Fabric::world_context, rank);
    try {
      rank_main(world);
    } catch (...) {
      {
        std::scoped_lock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
      CCAPERF_LOG(error, rank) << "rank terminated with an exception";
      // Wake every blocked peer: their waits/collectives throw instead of
      // deadlocking, and the first exception is rethrown after the join.
      fabric.abort();
    }
  };

  // Optional deadlock watchdog: CCAPERF_WATCHDOG_SECONDS=N makes a stuck
  // run abort after N seconds, turning every blocked wait/collective into
  // an exception that names the blocked call instead of hanging forever.
  std::thread watchdog;
  std::mutex watchdog_mu;
  std::condition_variable watchdog_cv;
  bool finished = false;
  const int seconds =
      ccaperf::env_int<int>("CCAPERF_WATCHDOG_SECONDS").value_or(0);
  if (seconds > 0) {
    watchdog = std::thread([&, seconds] {
      std::unique_lock lock(watchdog_mu);
      if (!watchdog_cv.wait_for(lock, std::chrono::seconds(seconds),
                                [&] { return finished; })) {
        CCAPERF_LOG(error, -1) << "watchdog: aborting fabric after "
                               << seconds << "s";
        fabric.abort();
      }
    });
  }

  if (nranks == 1) {
    body(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nranks));
    for (int r = 0; r < nranks; ++r) threads.emplace_back(body, r);
    for (auto& t : threads) t.join();
  }
  if (watchdog.joinable()) {
    {
      std::scoped_lock lock(watchdog_mu);
      finished = true;
    }
    watchdog_cv.notify_all();
    watchdog.join();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mpp
