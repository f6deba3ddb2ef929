// TAU's tracing measurement option: bounded ring-buffer flight recorder
// with timestamped enter/exit events, drop accounting, synthetic balance
// events, group-disable filtering, message/counter/instant records, and
// the TSV text dump.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "tau/registry.hpp"
#include "tau/trace_buffer.hpp"

namespace {

using tau::Registry;
using tau::TraceKind;
using tau::TraceRecord;

TEST(Tracing, DisabledByDefault) {
  Registry reg;
  const auto t = reg.timer("f()");
  reg.start(t);
  reg.stop(t);
  EXPECT_FALSE(reg.tracing());
  EXPECT_TRUE(reg.trace().empty());
}

TEST(Tracing, RecordsEnterExitPairs) {
  Registry reg;
  reg.set_tracing(true);
  const auto a = reg.timer("a()");
  const auto b = reg.timer("b()");
  reg.start(a);
  reg.start(b);
  reg.stop(b);
  reg.stop(a);
  const auto& tr = reg.trace();
  ASSERT_EQ(tr.size(), 4u);
  EXPECT_TRUE(tr[0].is_enter());
  EXPECT_EQ(tr[0].id, a);
  EXPECT_TRUE(tr[1].is_enter());
  EXPECT_EQ(tr[1].id, b);
  EXPECT_TRUE(tr[2].is_exit());
  EXPECT_EQ(tr[2].id, b);
  EXPECT_TRUE(tr[3].is_exit());
  EXPECT_EQ(tr[3].id, a);
  EXPECT_EQ(tr.dropped(), 0u);
}

TEST(Tracing, TimestampsMonotone) {
  Registry reg;
  reg.set_tracing(true);
  const auto t = reg.timer("f()");
  for (int k = 0; k < 10; ++k) {
    reg.start(t);
    reg.stop(t);
  }
  double prev = -1.0;
  const auto& tr = reg.trace();
  for (std::size_t i = 0; i < tr.size(); ++i) {
    EXPECT_GE(tr[i].t_us, prev);
    prev = tr[i].t_us;
  }
}

TEST(Tracing, DisabledGroupsProduceNoEvents) {
  Registry reg;
  reg.set_tracing(true);
  reg.set_group_enabled("MPI", false);
  const auto t = reg.timer("MPI_Send()", "MPI");
  reg.start(t);
  reg.stop(t);
  EXPECT_TRUE(reg.trace().empty());
}

TEST(Tracing, DisabledGroupNestedInsideEnabledStaysBalanced) {
  // enabled work() wrapping a disabled MPI timer: the trace must contain
  // only the work() pair, and snapshot_trace() must be balanced.
  Registry reg;
  reg.set_tracing(true);
  reg.set_group_enabled("MPI", false);
  const auto w = reg.timer("work()");
  const auto m = reg.timer("MPI_Send()", "MPI");
  reg.start(w);
  reg.start(m);
  reg.stop(m);
  reg.stop(w);
  const auto tr = reg.snapshot_trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_TRUE(tr[0].is_enter());
  EXPECT_EQ(tr[0].id, w);
  EXPECT_TRUE(tr[1].is_exit());
  EXPECT_EQ(tr[1].id, w);
}

TEST(Tracing, ReenableResetsTrace) {
  Registry reg;
  reg.set_tracing(true);
  const auto t = reg.timer("f()");
  reg.start(t);
  reg.stop(t);
  EXPECT_EQ(reg.trace().size(), 2u);
  reg.set_tracing(true);
  EXPECT_TRUE(reg.trace().empty());
}

TEST(Tracing, EnableMidRunEmitsSyntheticEnters) {
  // Timers already running when tracing starts get synthetic enter events
  // at the epoch (t=0), outermost first, so the trace is balanced.
  Registry reg;
  const auto a = reg.timer("outer()");
  const auto b = reg.timer("inner()");
  reg.start(a);
  reg.start(b);
  reg.set_tracing(true);
  reg.stop(b);
  reg.stop(a);
  const auto& tr = reg.trace();
  ASSERT_EQ(tr.size(), 4u);
  EXPECT_TRUE(tr[0].is_enter());
  EXPECT_EQ(tr[0].id, a);
  EXPECT_TRUE(tr[0].synthetic());
  EXPECT_EQ(tr[0].t_us, 0.0);
  EXPECT_TRUE(tr[1].is_enter());
  EXPECT_EQ(tr[1].id, b);
  EXPECT_TRUE(tr[1].synthetic());
  EXPECT_TRUE(tr[2].is_exit());
  EXPECT_EQ(tr[2].id, b);
  EXPECT_FALSE(tr[2].synthetic());
  EXPECT_TRUE(tr[3].is_exit());
  EXPECT_EQ(tr[3].id, a);
}

TEST(Tracing, DisableMidActivationEmitsSyntheticExits) {
  // Tracing stopped while timers run: synthetic exits close the open
  // activations (innermost first) and the events survive for export.
  Registry reg;
  reg.set_tracing(true);
  const auto a = reg.timer("outer()");
  const auto b = reg.timer("inner()");
  reg.start(a);
  reg.start(b);
  reg.set_tracing(false);
  reg.stop(b);
  reg.stop(a);
  const auto& tr = reg.trace();
  ASSERT_EQ(tr.size(), 4u);
  EXPECT_TRUE(tr[2].is_exit());
  EXPECT_EQ(tr[2].id, b);
  EXPECT_TRUE(tr[2].synthetic());
  EXPECT_TRUE(tr[3].is_exit());
  EXPECT_EQ(tr[3].id, a);
  EXPECT_TRUE(tr[3].synthetic());
}

TEST(Tracing, SnapshotClosesOpenActivations) {
  Registry reg;
  reg.set_tracing(true);
  const auto t = reg.timer("f()");
  reg.start(t);
  const auto snap = reg.snapshot_trace();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_TRUE(snap[1].is_exit());
  EXPECT_TRUE(snap[1].synthetic());
  EXPECT_EQ(reg.trace().size(), 1u);  // the live buffer is untouched
  reg.stop(t);
}

TEST(Tracing, RingOverwritesOldestAndCountsDrops) {
  Registry reg;
  reg.set_trace_capacity(8);
  reg.set_tracing(true);
  const auto t = reg.timer("f()");
  for (int k = 0; k < 10; ++k) {  // 20 events into an 8-slot ring
    reg.start(t);
    reg.stop(t);
  }
  const auto& tr = reg.trace();
  EXPECT_EQ(tr.size(), 8u);
  EXPECT_EQ(tr.total(), 20u);
  EXPECT_EQ(tr.dropped(), 12u);
  // Oldest-first iteration stays time-ordered across the wrap point.
  double prev = -1.0;
  for (std::size_t i = 0; i < tr.size(); ++i) {
    EXPECT_GE(tr[i].t_us, prev);
    prev = tr[i].t_us;
  }
}

TEST(Tracing, RingMemoryStaysAtConfiguredBound) {
  tau::TraceBuffer buf(16);
  TraceRecord r;
  for (int k = 0; k < 1000; ++k) {
    r.t_us = k;
    buf.push(r);
  }
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.memory_bytes(), 16u * sizeof(TraceRecord));
  EXPECT_EQ(buf.dropped(), 1000u - 16u);
  EXPECT_EQ(buf[0].t_us, 984.0);   // oldest retained
  EXPECT_EQ(buf[15].t_us, 999.0);  // newest
}

TEST(Tracing, CapacityZeroRaises) {
  // The ring is the only mode: there is no unbounded capacity.
  EXPECT_THROW(tau::TraceBuffer{0}, ccaperf::Error);
  Registry reg;
  reg.set_trace_capacity(8);
  EXPECT_THROW(reg.set_trace_capacity(0), ccaperf::Error);
  EXPECT_EQ(reg.trace().capacity(), 8u);  // the old bound stays
}

TEST(Tracing, MessageEventsCarryIdentity) {
  Registry reg;
  reg.set_tracing(true);
  reg.trace_message(/*send=*/true, /*peer=*/2, /*tag=*/7, /*bytes=*/1024,
                    /*seq=*/3);
  reg.trace_message(/*send=*/false, /*peer=*/0, /*tag=*/7, /*bytes=*/512,
                    /*seq=*/1);
  const auto& tr = reg.trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_EQ(tr[0].kind, TraceKind::msg_send);
  EXPECT_EQ(tr[0].peer, 2);
  EXPECT_EQ(tr[0].tag, 7);
  EXPECT_EQ(tr[0].payload, 1024u);
  EXPECT_EQ(tr[0].seq, 3u);
  EXPECT_EQ(tr[1].kind, TraceKind::msg_recv);
  EXPECT_EQ(tr[1].peer, 0);
  EXPECT_EQ(tr[1].seq, 1u);
}

TEST(Tracing, SliceArgAttachesToLastEnter) {
  Registry reg;
  reg.set_tracing(true);
  const auto t = reg.timer("compute()");
  const auto q = reg.trace_string("Q");
  reg.start(t);
  reg.trace_arg(q, 42.5);
  reg.stop(t);
  const auto& tr = reg.trace();
  ASSERT_EQ(tr.size(), 2u);
  EXPECT_TRUE(tr[0].has_arg());
  EXPECT_EQ(static_cast<std::uint32_t>(tr[0].tag), q);
  EXPECT_EQ(tr[0].value(), 42.5);
  EXPECT_FALSE(tr[1].has_arg());
}

TEST(Tracing, TraceStringInternsStably) {
  Registry reg;
  const auto a = reg.trace_string("Q");
  const auto b = reg.trace_string("cells");
  EXPECT_EQ(reg.trace_string("Q"), a);
  EXPECT_NE(a, b);
  ASSERT_EQ(reg.trace_strings().size(), 2u);
  EXPECT_EQ(reg.trace_strings()[a], "Q");
}

TEST(Tracing, DumpFormatIsTabSeparated) {
  // Timer names contain spaces and parentheses; TSV keeps fields
  // unambiguous where the old space-separated dump could not.
  Registry reg;
  reg.set_tracing(true);
  const auto t = reg.timer("solve step A()");
  reg.start(t);
  reg.stop(t);
  reg.trace_message(true, 1, 0, 64, 1);
  std::ostringstream os;
  reg.dump_trace(os);
  std::istringstream in(os.str());
  std::string line;
  std::vector<std::vector<std::string>> rows;
  while (std::getline(in, line)) {
    std::vector<std::string> fields;
    std::size_t pos = 0;
    while (true) {
      const std::size_t tab = line.find('\t', pos);
      fields.push_back(line.substr(pos, tab - pos));
      if (tab == std::string::npos) break;
      pos = tab + 1;
    }
    rows.push_back(std::move(fields));
  }
  ASSERT_EQ(rows.size(), 3u);
  EXPECT_EQ(rows[0][1], "enter");
  EXPECT_EQ(rows[0][2], "solve step A()");  // whole name is one TSV field
  EXPECT_EQ(rows[1][1], "exit");
  EXPECT_EQ(rows[1][2], "solve step A()");
  EXPECT_EQ(rows[2][1], "send");
}

TEST(Tracing, ProfilingStillAccumulatesWhileTracing) {
  Registry reg;
  reg.set_tracing(true);
  const auto t = reg.timer("f()");
  reg.start(t);
  reg.stop(t);
  EXPECT_EQ(reg.calls(t), 1u);
}

}  // namespace
