// Ablation — ring-buffer tracing overhead and memory bound.
//
// "The TAU implementation ... supports both profiling and tracing
// measurement options" (§4.1) — but tracing is only usable on long runs
// if (a) the per-event cost stays close to the untraced timer path and
// (b) trace memory does not grow with run length. The seed's trace was an
// unbounded std::vector; tau::TraceBuffer replaces it with a bounded ring
// (overwrite-oldest, drops counted), the only trace mode.
//
// Two configurations, same start/stop workload on one Registry:
//   off     — tracing disabled (the profiling-only cost floor);
//   ring    — tracing into the default 64Ki-event ring (steady state
//             overwrites: the long-run configuration).
// Reports ns per trace event and the trace memory the ring holds after
// ~2M events, machine-readably in
// bench_out/trace_overhead.json so later PRs can track the trajectory.

#include <chrono>
#include <fstream>

#include "bench_common.hpp"

namespace {

/// Best-of-blocks ns per event (one start+stop = two events).
double time_events(tau::Registry& reg, tau::TimerId t, int blocks, int pairs) {
  reg.start(t);
  reg.stop(t);  // warmup
  double best = 1e300;
  for (int b = 0; b < blocks; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < pairs; ++i) {
      reg.start(t);
      reg.stop(t);
    }
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::nano>(t1 - t0).count() /
                              (2.0 * pairs));
  }
  return best;
}

struct JsonEntry {
  std::string name;
  std::string metric;
  double value = 0.0;
};

void write_json(const std::string& path, const std::vector<JsonEntry>& entries) {
  std::ofstream os(path);
  if (!os) {
    std::cout << "warning: cannot open " << path << " (run from the repo root)\n";
    return;
  }
  os << "[\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    os << "  {\"name\": \"" << entries[i].name << "\", \"metric\": \""
       << entries[i].metric << "\", \"value\": " << entries[i].value << "}"
       << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "]\n";
  std::cout << "series written to " << path << '\n';
}

}  // namespace

int main() {
  const int blocks = 5;
  const int pairs = 200'000;  // 2M events over the 5 blocks: the ring wraps

  std::cout << "Ablation: trace overhead — " << 2 * pairs
            << " events/block, ring capacity "
            << tau::TraceBuffer::kDefaultCapacity << " events\n\n";

  tau::Registry off_reg;
  const double off_ns = time_events(off_reg, off_reg.timer("work()"), blocks, pairs);

  tau::Registry ring_reg;
  ring_reg.set_tracing(true);  // default ring capacity
  const double ring_ns =
      time_events(ring_reg, ring_reg.timer("work()"), blocks, pairs);
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
        ccaperf::fmt_double(ring_ns - off_ns, 1) + " ns/event over profiling"},
       {"trace memory", "bounded (flight recorder)",
        ccaperf::fmt_double(ring_mem / (1024.0 * 1024.0), 2) + " MiB fixed"}});

  write_json("bench_out/trace_overhead.json",
             {{"trace_overhead", "ns_per_event_off", off_ns},
              {"trace_overhead", "ns_per_event_ring", ring_ns},
              {"trace_overhead", "ring_memory_bytes", ring_mem},
              {"trace_overhead", "ring_dropped_events", ring_dropped}});
  return 0;
}
