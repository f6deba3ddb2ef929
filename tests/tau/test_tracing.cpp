// TAU's tracing measurement option: bounded ring-buffer flight recorder
// with timestamped enter/exit events, drop accounting, synthetic balance
// events, group-disable filtering, message/counter/instant records, and
// the TSV text dump. The split ring (16 B slots + side slots) is checked
// against a std::deque reference holding whole records.

#include <gtest/gtest.h>

#include <deque>
#include <sstream>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "tau/registry.hpp"
#include "tau/trace_buffer.hpp"

namespace {

using tau::Registry;
using tau::TraceKind;
using tau::TraceRecord;

/// The retained events, oldest first, through the buffer's reader.
std::vector<TraceRecord> records(const tau::TraceBuffer& buf) {
  std::vector<TraceRecord> out;
  buf.for_each([&out](const TraceRecord& r) { out.push_back(r); });
  return out;
}

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
  const auto tr = records(reg.trace());
  ASSERT_EQ(tr.size(), 4u);
  EXPECT_TRUE(tr[0].is_enter());
  EXPECT_EQ(tr[0].id, a);
  EXPECT_TRUE(tr[1].is_enter());
  EXPECT_EQ(tr[1].id, b);
  EXPECT_TRUE(tr[2].is_exit());
  EXPECT_EQ(tr[2].id, b);
  EXPECT_TRUE(tr[3].is_exit());
  EXPECT_EQ(tr[3].id, a);
  EXPECT_EQ(reg.trace().dropped(), 0u);
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
  reg.trace().for_each([&prev](const TraceRecord& r) {
    EXPECT_GE(r.t_us, prev);
    prev = r.t_us;
  });
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
  const auto tr = records(reg.trace());
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
  const auto tr = records(reg.trace());
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
  tr.for_each([&prev](const TraceRecord& r) {
    EXPECT_GE(r.t_us, prev);
    prev = r.t_us;
  });
}

TEST(Tracing, RingMemoryStaysAtConfiguredBound) {
  // Plain enters cost a 16 B slot each; message endpoints add a 24 B side
  // slot, up to the 40 B-per-event worst case.
  tau::TraceBuffer buf(16);
  TraceRecord r;
  for (int k = 0; k < 1000; ++k) {
    r.t_us = k;
    buf.push(r);
  }
  EXPECT_EQ(buf.size(), 16u);
  EXPECT_EQ(buf.memory_bytes(), 16u * 16u);
  EXPECT_EQ(buf.dropped(), 1000u - 16u);
  const auto tr = records(buf);
  EXPECT_EQ(tr.front().t_us, 984.0);  // oldest retained
  EXPECT_EQ(tr.back().t_us, 999.0);   // newest

  // Wide events add side slots, up to one per retained event.
  TraceRecord msg;
  msg.kind = TraceKind::msg_send;
  msg.peer = 1;
  for (int k = 0; k < 1000; ++k) buf.push(k % 3 == 2 ? msg : r);
  EXPECT_LE(buf.memory_bytes(), 16u * sizeof(TraceRecord));

  for (int k = 0; k < 1000; ++k) buf.push(msg);
  EXPECT_EQ(buf.memory_bytes(), 16u * sizeof(TraceRecord));
}

/// Field-for-field equality, padding excluded.
bool same_record(const TraceRecord& a, const TraceRecord& b) {
  return a.t_us == b.t_us && a.payload == b.payload && a.seq == b.seq &&
         a.id == b.id && a.peer == b.peer && a.tag == b.tag && a.kind == b.kind &&
         a.flags == b.flags;
}

TEST(Tracing, SplitRingMatchesDequeReference) {
  // Seeded random streams of every event kind plus argument attaches,
  // clear() and set_capacity(), at capacities 1..64 and up to 10x capacity
  // pushes. After every operation the ring must read back exactly the last
  // `capacity` records a whole-record deque holds, with exact counts.
  std::size_t attach_after_wrap = 0, attach_replaced = 0, attach_not_enter = 0;
  std::size_t clears = 0, recaps = 0;
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    ccaperf::Rng rng(seed);
    std::size_t cap = static_cast<std::size_t>(seed);
    tau::TraceBuffer buf(cap);
    std::deque<TraceRecord> ref;
    std::uint64_t total = 0;
    bool last_wrapped = false;
    const auto ops = static_cast<std::int64_t>(10 * cap + 8);
    for (std::int64_t op = 0; op < ops; ++op) {
      const std::int64_t pick = rng.uniform_int(0, 99);
      if (pick < 20) {  // attach: the newest record may or may not be an enter
        const auto name = static_cast<std::uint32_t>(rng.uniform_int(0, 5));
        const double value = rng.uniform(-1e6, 1e6);
        if (!ref.empty() && ref.back().is_enter()) {
          if (last_wrapped) ++attach_after_wrap;
          if (ref.back().has_arg()) ++attach_replaced;
          ref.back().tag = static_cast<std::int32_t>(name);
          ref.back().set_value(value);
          ref.back().flags |= TraceRecord::kHasArg;
        } else if (!ref.empty()) {
          ++attach_not_enter;
        }
        buf.attach_arg(name, value);
      } else if (pick == 20) {
        ++clears;
        ref.clear();
        total = 0;
        last_wrapped = false;
        buf.clear();
      } else if (pick == 21) {
        ++recaps;
        cap = static_cast<std::size_t>(rng.uniform_int(1, 64));
        ref.clear();
        total = 0;
        last_wrapped = false;
        buf.set_capacity(cap);
      } else {
        TraceRecord r;
        r.t_us = static_cast<double>(op);
        const std::int64_t kind = rng.uniform_int(0, 9);
        if (kind < 3) {  // plain enter, sometimes synthetic
          r.kind = TraceKind::enter;
          r.id = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
          if (rng.uniform_int(0, 4) == 0) r.flags = TraceRecord::kSynthetic;
        } else if (kind < 6) {
          r.kind = TraceKind::exit;
          r.id = static_cast<std::uint32_t>(rng.uniform_int(0, 7));
        } else if (kind == 6) {
          r.kind = TraceKind::instant;
          r.id = static_cast<std::uint32_t>(rng.uniform_int(0, 3));
        } else if (kind == 7) {  // a zero sample has no side fields
          r.kind = TraceKind::counter;
          r.id = static_cast<std::uint32_t>(rng.uniform_int(0, 2));
          r.set_value(rng.uniform_int(0, 2) == 0 ? 0.0 : rng.uniform(0.0, 1e9));
        } else {
          r.kind = kind == 8 ? TraceKind::msg_send : TraceKind::msg_recv;
          r.peer = static_cast<std::int32_t>(rng.uniform_int(0, 3));
          r.tag = static_cast<std::int32_t>(rng.uniform_int(0, 2));
          r.payload = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
          r.seq = static_cast<std::uint64_t>(rng.uniform_int(1, 1000));
        }
        ref.push_back(r);
        ++total;
        last_wrapped = ref.size() > cap;
        if (last_wrapped) ref.pop_front();
        buf.push(r);
      }

      ASSERT_EQ(buf.capacity(), cap);
      ASSERT_EQ(buf.total(), total) << "seed " << seed << " op " << op;
      ASSERT_EQ(buf.dropped(), total - ref.size()) << "seed " << seed << " op " << op;
      ASSERT_LE(buf.memory_bytes(), cap * sizeof(TraceRecord));
      const std::vector<TraceRecord> got = records(buf);
      ASSERT_EQ(got.size(), ref.size()) << "seed " << seed << " op " << op;
      for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_TRUE(same_record(got[i], ref[i]))
            << "seed " << seed << " op " << op << " record " << i;
    }
  }
  // Every named case occurred.
  EXPECT_GT(attach_after_wrap, 0u);
  EXPECT_GT(attach_replaced, 0u);
  EXPECT_GT(attach_not_enter, 0u);
  EXPECT_GT(clears, 0u);
  EXPECT_GT(recaps, 0u);
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
  const auto tr = records(reg.trace());
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
  const auto tr = records(reg.trace());
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
