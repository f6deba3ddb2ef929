// MpiHookAdapter: mpp calls must appear as "MPI_*()" timers in the MPI
// group of the calling rank's registry, with message-size events, and the
// group sum must track communication time (the Mastermind's MPI-time
// source).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "mpp/runtime.hpp"
#include "tau/mpi_adapter.hpp"

namespace {

TEST(MpiAdapter, TimesPointToPointCalls) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    tau::Registry reg;
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller install(&adapter);

    std::vector<double> buf(64);
    if (world.rank() == 0) {
      world.isend<double>(buf, 1, 0).wait();
    } else {
      world.irecv<double>(buf, 0, 0).wait();
    }
    world.barrier();

    if (world.rank() == 0) {
      EXPECT_TRUE(reg.has_timer("MPI_Isend()"));
      EXPECT_EQ(reg.calls(reg.timer("MPI_Isend()")), 1u);
    } else {
      EXPECT_TRUE(reg.has_timer("MPI_Irecv()"));
      EXPECT_TRUE(reg.has_timer("MPI_Wait()"));
    }
    EXPECT_TRUE(reg.has_timer("MPI_Barrier()"));
    EXPECT_EQ(reg.stats_at(reg.timer("MPI_Barrier()", tau::kMpiGroup)).group,
              tau::kMpiGroup);
  });
}

TEST(MpiAdapter, RecordsMessageSizeEvents) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    tau::Registry reg;
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller install(&adapter);

    std::vector<double> buf(100);
    if (world.rank() == 0)
      world.isend<double>(buf, 1, 0).wait();
    else
      world.irecv<double>(buf, 0, 0).wait();

    const auto& events = reg.events();
    auto it = events.find("Message size (bytes)");
    ASSERT_NE(it, events.end());
    EXPECT_DOUBLE_EQ(it->second.max(), 800.0);
  });
}

TEST(MpiAdapter, GroupSumTracksCommunicationTime) {
  // With a modeled 2ms latency, the MPI group inclusive sum on the
  // receiving rank must reflect the wait. Rank 0 sends only once rank 1
  // is about to receive: a send issued earlier would already be in flight,
  // and the receive would wait out only part of the modeled latency. An
  // atomic rather than an MPI call, so no extra MPI time is timed.
  mpp::NetworkModel net;
  net.latency_us = 2000.0;
  std::atomic<bool> receiving{false};
  mpp::Runtime::run(2, net, [&](mpp::Comm& world) {
    tau::Registry reg;
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller install(&adapter);

    int v = 7;
    if (world.rank() == 0) {
      while (!receiving.load()) std::this_thread::yield();
      world.isend_bytes(&v, sizeof v, 1, 0).wait();
    } else {
      receiving.store(true);
      world.irecv_bytes(&v, sizeof v, 0, 0).wait();
      EXPECT_GE(reg.group_inclusive_us(tau::kMpiGroup), 1800.0);
    }
  });
}

TEST(MpiAdapter, WaitsomeAppearsUnderItsOwnName) {
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    tau::Registry reg;
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller install(&adapter);

    int v = 0;
    std::vector<mpp::Request> reqs;
    if (world.rank() == 0) {
      reqs.push_back(world.irecv_bytes(&v, sizeof v, 1, 0));
      std::vector<int> done;
      while (mpp::wait_some(reqs, done) == 0) {
      }
      EXPECT_TRUE(reg.has_timer("MPI_Waitsome()"));
      EXPECT_TRUE(reg.has_timer("MPI_Irecv()"));
    } else {
      world.isend_bytes(&v, sizeof v, 0, 0).wait();
    }
    world.barrier();
  });
}

TEST(MpiAdapter, HooksUninstallCleanly) {
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    tau::Registry reg;
    {
      tau::MpiHookAdapter adapter(reg);
      mpp::HooksInstaller install(&adapter);
      world.barrier();
    }
    world.barrier();  // no hooks: must not touch the registry
    EXPECT_EQ(reg.calls(reg.timer("MPI_Barrier()", tau::kMpiGroup)), 1u);
  });
}

TEST(MpiAdapter, TracedRunRecordsMessageEndpoints) {
  // With tracing on, the adapter must turn fabric message events into
  // msg_send / msg_recv trace records carrying the (peer, tag, bytes, seq)
  // identity the cross-rank merger matches on.
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    tau::Registry reg;
    reg.set_tracing(true);
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller install(&adapter);

    std::vector<double> buf(32);
    if (world.rank() == 0)
      world.isend<double>(buf, 1, 9).wait();
    else
      world.irecv<double>(buf, 0, 9).wait();

    const tau::TraceKind want =
        world.rank() == 0 ? tau::TraceKind::msg_send : tau::TraceKind::msg_recv;
    std::size_t found = 0;
    reg.trace().for_each([&](const tau::TraceRecord& r) {
      if (r.kind != want) return;
      ++found;
      EXPECT_EQ(r.peer, 1 - world.rank());
      EXPECT_EQ(r.tag, 9);
      EXPECT_EQ(r.payload, 32 * sizeof(double));
      EXPECT_EQ(r.seq, 1u);
    });
    EXPECT_EQ(found, 1u);
    world.barrier();
  });
}

TEST(MpiAdapter, MessageTraceRespectsGroupAndTracingGates) {
  // Message records obey both switches: no tracing -> nothing; tracing
  // with the MPI group disabled -> MPI slices and endpoints suppressed.
  mpp::Runtime::run(2, [](mpp::Comm& world) {
    tau::Registry reg;
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller install(&adapter);

    auto count_msgs = [&reg] {
      std::size_t n = 0;
      reg.trace().for_each([&n](const tau::TraceRecord& r) {
        n += r.kind == tau::TraceKind::msg_send || r.kind == tau::TraceKind::msg_recv;
      });
      return n;
    };
    auto exchange = [&world] {
      int v = 0;
      if (world.rank() == 0)
        world.isend_bytes(&v, sizeof v, 1, 0).wait();
      else
        world.irecv_bytes(&v, sizeof v, 0, 0).wait();
      world.barrier();
    };

    exchange();  // tracing off
    EXPECT_EQ(count_msgs(), 0u);

    reg.set_tracing(true);
    reg.set_group_enabled(tau::kMpiGroup, false);
    exchange();  // traced, but the MPI group is switched off
    EXPECT_EQ(count_msgs(), 0u);

    reg.set_group_enabled(tau::kMpiGroup, true);
    exchange();
    EXPECT_EQ(count_msgs(), 1u);
    world.barrier();
  });
}

TEST(MpiAdapter, DisablingMpiGroupSuppressesRecording) {
  // "At runtime, a user can enable or disable all MPI timers via their
  // group identifier."
  mpp::Runtime::run(1, [](mpp::Comm& world) {
    tau::Registry reg;
    tau::MpiHookAdapter adapter(reg);
    mpp::HooksInstaller install(&adapter);
    reg.set_group_enabled(tau::kMpiGroup, false);
    world.barrier();
    reg.set_group_enabled(tau::kMpiGroup, true);
    world.barrier();
    EXPECT_EQ(reg.calls(reg.timer("MPI_Barrier()", tau::kMpiGroup)), 1u);
  });
}

}  // namespace
