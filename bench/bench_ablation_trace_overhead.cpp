// Ablation — ring-buffer tracing overhead and memory bound.
//
// "The TAU implementation ... supports both profiling and tracing
// measurement options" (§4.1) — but tracing is only usable on long runs
// if (a) the per-event cost stays close to the untraced timer path and
// (b) trace memory does not grow with run length. The seed's trace was an
// unbounded std::vector; tau::TraceBuffer replaces it with a bounded ring
// (overwrite-oldest, drops counted), the only trace mode.
//
// Two configurations, same start/stop workload, one Registry each:
//   off     — tracing disabled (the profiling-only cost floor);
//   ring    — tracing into the default 64Ki-event ring (steady state
//             overwrites: the long-run configuration).
// The two are timed in alternating blocks in one process, so both see the
// same host, clock and frequency state; each keeps its best block. The
// gated figure is ring_over_off, the ring's ns/event over the off path's:
// a host change moves both and cancels, a costlier ring append does not.
// Also reports the trace memory the ring has written after ~3M events:
// plain enters/exits take 16 B each, under the 40 B-per-event bound.
// Results land in bench_out/trace_overhead.json.

#include <chrono>
#include <limits>

#include "bench_common.hpp"

namespace {

/// ns per event (one start+stop = two events) over one block of `pairs`.
double block_ns(tau::Registry& reg, tau::TimerId t, int pairs) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < pairs; ++i) {
    reg.start(t);
    reg.stop(t);
  }
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / (2.0 * pairs);
}

}  // namespace

int main() {
  const int blocks = 24;
  const int pairs = 100'000;  // 4.8M ring events over the 24 blocks: the ring wraps

  std::cout << "Ablation: trace overhead — " << 2 * pairs
            << " events/block, " << blocks
            << " alternating off/ring blocks, ring capacity "
            << tau::TraceBuffer::kDefaultCapacity << " events\n\n";

  tau::Registry off_reg;
  tau::Registry ring_reg;
  ring_reg.set_tracing(true);  // default ring capacity
  const tau::TimerId off_timer = off_reg.timer("work()");
  const tau::TimerId ring_timer = ring_reg.timer("work()");
  block_ns(off_reg, off_timer, 1);  // warmup
  block_ns(ring_reg, ring_timer, 1);
  double off_ns = std::numeric_limits<double>::max();
  double ring_ns = off_ns;
  for (int b = 0; b < blocks; ++b) {
    // Alternate which configuration goes first, so neither always runs on
    // the other's cache and clock state.
    if (b % 2 == 0) off_ns = std::min(off_ns, block_ns(off_reg, off_timer, pairs));
    ring_ns = std::min(ring_ns, block_ns(ring_reg, ring_timer, pairs));
    if (b % 2 == 1) off_ns = std::min(off_ns, block_ns(off_reg, off_timer, pairs));
  }
  const double ring_over_off = ring_ns / off_ns;
  const double ring_mem = static_cast<double>(ring_reg.trace().memory_bytes());
  const double ring_dropped = static_cast<double>(ring_reg.trace().dropped());
  CCAPERF_REQUIRE(ring_reg.trace().size() <= tau::TraceBuffer::kDefaultCapacity,
                  "ring exceeded its configured bound");

  ccaperf::TextTable t;
  t.set_header({"configuration", "ns/event", "trace memory after run"});
  t.add_row({"tracing off", ccaperf::fmt_double(off_ns, 2), "0 B"});
  t.add_row({"ring buffer (64Ki events)", ccaperf::fmt_double(ring_ns, 2),
             ccaperf::fmt_double(ring_mem / (1024.0 * 1024.0), 2) + " MiB"});
  t.render(std::cout);
  std::cout << "\nring dropped " << static_cast<std::uint64_t>(ring_dropped)
            << " oldest events (flight-recorder semantics); memory stays at "
            << ccaperf::fmt_double(ring_mem / (1024.0 * 1024.0), 2)
            << " MiB regardless of run length\n";

  bench::print_comparison(
      "trace overhead",
      {{"tracing cost", "\"instrumentation related overheads are small\" (§4)",
        ccaperf::fmt_double(ring_ns - off_ns, 1) + " ns/event over profiling (ring/off " +
            ccaperf::fmt_double(ring_over_off, 3) + ")"},
       {"trace memory", "bounded (flight recorder)",
        ccaperf::fmt_double(ring_mem / (1024.0 * 1024.0), 2) + " MiB fixed"}});

  bench::write_bench_json("bench_out/trace_overhead.json",
                          {{"trace_overhead", "ns_per_event_off", off_ns},
                           {"trace_overhead", "ns_per_event_ring", ring_ns},
                           {"trace_overhead", "ring_over_off", ring_over_off},
                           {"trace_overhead", "ring_memory_bytes", ring_mem},
                           {"trace_overhead", "ring_dropped_events", ring_dropped}});
  return 0;
}
