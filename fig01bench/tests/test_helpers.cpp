// Tests of the benchmark's own helpers: the percentile rule, the self-time
// rule of the span ledger, the chaining CommHooks, and the CPU placement.

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "chain_hooks.hpp"
#include "cpu_placement.hpp"
#include "ledger.hpp"
#include "mpp/runtime.hpp"
#include "support/thread_pool.hpp"
#include "tau/mpi_adapter.hpp"

namespace fig01bench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 99.0), 99.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 90.0), 7.0);
  std::vector<double> k(1000);
  for (int i = 0; i < 1000; ++i) k[static_cast<std::size_t>(i)] = i + 1;
  EXPECT_EQ(percentile(k, 99.9), 999.0);
}

TEST(Percentile, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(highest_supported_percentile(0), 0.0);
  EXPECT_EQ(highest_supported_percentile(19), 0.0);
  EXPECT_EQ(highest_supported_percentile(20), 50.0);
  EXPECT_EQ(highest_supported_percentile(99), 50.0);
  EXPECT_EQ(highest_supported_percentile(100), 90.0);  // 10 samples above p90
  EXPECT_EQ(highest_supported_percentile(999), 90.0);
  EXPECT_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_EQ(highest_supported_percentile(10000), 99.9);
  EXPECT_EQ(highest_supported_percentile(120), 90.0);
  EXPECT_EQ(highest_supported_percentile(100, 11), 50.0);
}

TEST(SpanStack, SelfTimeIsSpanMinusChildren) {
  SpanStack s;
  s.begin(Layer::rk2, 0.0);             // rk2: [0, 100]
  s.begin(Layer::invflux, 10.0);        //   invflux: [10, 60]
  s.begin(Layer::states, 15.0);         //     states: [15, 25]
  s.end(25.0);
  s.begin(Layer::flux, 30.0);           //     flux: [30, 50]
  s.end(50.0);
  s.end(60.0);
  s.begin(Layer::ghost_update, 70.0);   //   ghost_update: [70, 95]
  s.begin(Layer::mpi_wait, 80.0);       //     wait: [80, 90]
  s.end(90.0);
  s.end(95.0);
  s.end(100.0);
  EXPECT_EQ(s.depth(), 0);
  const Totals& t = s.totals();
  auto self = [&](Layer l) { return t.self_ns[static_cast<std::size_t>(l)]; };
  auto total = [&](Layer l) { return t.total_ns[static_cast<std::size_t>(l)]; };
  EXPECT_EQ(self(Layer::rk2), 100.0 - 50.0 - 25.0);
  EXPECT_EQ(self(Layer::invflux), 50.0 - 10.0 - 20.0);
  EXPECT_EQ(self(Layer::states), 10.0);
  EXPECT_EQ(self(Layer::flux), 20.0);
  EXPECT_EQ(self(Layer::ghost_update), 25.0 - 10.0);
  EXPECT_EQ(self(Layer::mpi_wait), 10.0);
  EXPECT_EQ(total(Layer::rk2), 100.0);
  EXPECT_EQ(total(Layer::invflux), 50.0);
  // Self times never overlap: they add up to the outermost span.
  double self_sum = 0.0;
  for (const double v : t.self_ns) self_sum += v;
  EXPECT_EQ(self_sum, 100.0);
  EXPECT_EQ(t.calls[static_cast<std::size_t>(Layer::states)], 1u);
}

TEST(SpanStack, RepeatedSpansAccumulateAndDifference) {
  SpanStack s;
  for (int i = 0; i < 3; ++i) {
    s.begin(Layer::regrid, 100.0 * i);
    s.begin(Layer::mpi_collective, 100.0 * i + 40.0);
    s.end(100.0 * i + 50.0);
    s.end(100.0 * i + 80.0);
  }
  const Totals after_two = [&] {
    SpanStack two;
    for (int i = 0; i < 2; ++i) {
      two.begin(Layer::regrid, 0.0);
      two.begin(Layer::mpi_collective, 40.0);
      two.end(50.0);
      two.end(80.0);
    }
    return two.totals();
  }();
  const Totals d = s.totals() - after_two;
  EXPECT_EQ(d.self_ns[static_cast<std::size_t>(Layer::regrid)], 70.0);
  EXPECT_EQ(d.self_ns[static_cast<std::size_t>(Layer::mpi_collective)], 10.0);
  EXPECT_EQ(d.calls[static_cast<std::size_t>(Layer::regrid)], 1u);
}

TEST(ChainHooks, ClassifiesMpiRoutines) {
  EXPECT_EQ(classify_mpi("MPI_Waitsome()"), Layer::mpi_wait);
  EXPECT_EQ(classify_mpi("MPI_Waitall()"), Layer::mpi_wait);
  EXPECT_EQ(classify_mpi("MPI_Recv()"), Layer::mpi_wait);
  EXPECT_EQ(classify_mpi("MPI_Allreduce()"), Layer::mpi_collective);
  EXPECT_EQ(classify_mpi("MPI_Allgatherv()"), Layer::mpi_collective);
  EXPECT_EQ(classify_mpi("MPI_Isend()"), Layer::mpi_post);
  EXPECT_EQ(classify_mpi("MPI_Wtime()"), Layer::mpi_post);
}

/// Calls per MPI timer of every rank's TAU registry after a fixed pattern
/// of communication, with or without ChainHooks chained in front of the
/// TAU adapter.
std::vector<std::map<std::string, std::uint64_t>> tau_mpi_calls(bool chained,
                                                                Totals* bench) {
  constexpr int kRanks = 3;
  std::vector<std::map<std::string, std::uint64_t>> calls(kRanks);
  std::vector<Totals> totals(kRanks);
  mpp::Runtime::run(kRanks, [&](mpp::Comm& world) {
    tau::Registry reg;
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller tau_hooks(&adapter);
    ChainHooks chain;
    std::optional<mpp::HooksInstaller> bench_hooks;
    if (chained) bench_hooks.emplace(&chain);
    const Totals before = thread_stack().totals();
    const int r = world.rank(), n = world.size();
    for (int it = 0; it < 4; ++it) {
      std::vector<double> out(8, r + it), in(8, 0.0);
      std::vector<mpp::Request> reqs;
      reqs.push_back(world.irecv(std::span<double>(in), (r + n - 1) % n, it));
      reqs.push_back(world.isend(std::span<const double>(out), (r + 1) % n, it));
      mpp::wait_all(reqs);
      EXPECT_EQ(in[0], (r + n - 1) % n + it);
      EXPECT_EQ(world.allreduce_value<mpp::MaxOp<int>>(r), n - 1);
      world.barrier();
    }
    totals[static_cast<std::size_t>(r)] = thread_stack().totals() - before;
    for (const tau::TimerStats& row : reg.snapshot())
      if (row.group == tau::kMpiGroup) calls[static_cast<std::size_t>(r)][row.name] = row.calls;
  });
  if (bench != nullptr)
    for (const Totals& t : totals) *bench += t;
  return calls;
}

TEST(ChainHooks, TauSeesIdenticalCallsWithAndWithoutTheBenchHook) {
  Totals bench;
  const auto plain = tau_mpi_calls(false, nullptr);
  const auto chained = tau_mpi_calls(true, &bench);
  EXPECT_EQ(plain, chained);
  EXPECT_FALSE(plain[0].empty());
  EXPECT_GT(plain[0].at("MPI_Allreduce()"), 0u);
  // The bench hook saw the same traffic: 4 sends per rank, 8 collectives.
  EXPECT_EQ(bench.msgs, 12u);
  EXPECT_EQ(bench.msg_bytes, 12u * 8u * sizeof(double));
  EXPECT_EQ(bench.collectives, 3u * 8u);
  EXPECT_GT(bench.calls[static_cast<std::size_t>(Layer::tau_mpi_hook)], 0u);
}

TEST(CpuPlacement, PollersAreExcludedFromProgramCpuTime) {
  EXPECT_EQ(IdlePollers::cpu_s(), 0.0);
  const IdlePollers pollers;
  EXPECT_GT(pollers.running(), 0);
  const double t0 = IdlePollers::cpu_s();
  const auto wall0 = std::chrono::steady_clock::now();
  while (std::chrono::steady_clock::now() - wall0 < std::chrono::milliseconds(50)) {
  }
  EXPECT_GT(IdlePollers::cpu_s(), t0);
}

TEST(CpuPlacement, EachPoolLaneGetsItsOwnCpu) {
  const IdlePollers pollers;
  constexpr int kLanes = 3;
  ccaperf::set_rank_pool_threads(kLanes);
  pin_pool_lanes(kLanes);
  std::vector<int> cpus(kLanes, -1);
  std::atomic<int> arrived{0};
  // Hold every lane, as pin_pool_lanes does, so each reports its own CPU.
  ccaperf::rank_pool().parallel_for(kLanes, [&](std::size_t, int lane) {
    cpus[static_cast<std::size_t>(lane)] = sched_getcpu();
    arrived.fetch_add(1);
    while (arrived.load() < kLanes) std::this_thread::yield();
  });
  ccaperf::set_rank_pool_threads(1);
  if (std::thread::hardware_concurrency() > kLanes) {
    std::sort(cpus.begin(), cpus.end());
    EXPECT_EQ(std::adjacent_find(cpus.begin(), cpus.end()), cpus.end())
        << cpus[0] << " " << cpus[1] << " " << cpus[2];
  }
}

}  // namespace
}  // namespace fig01bench
