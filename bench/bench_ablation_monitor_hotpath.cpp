// Ablation — zero-allocation monitoring hot path.
//
// "It is important that the measurement processes themselves intrude as
// little as possible on the application being measured" (§3.2). A
// string-keyed monitor pays for that bookkeeping on every invocation: a
// parameter map (two heap nodes) is built, the method key is re-interned,
// and the counter snapshot allocates. MonitorPort moves all naming to
// registration time — proxies resolve a MethodHandle once and report each
// call with a stack-resident ParamSpan, and the Mastermind's pooled Open
// stack plus columnar Record append make the steady-state start/stop
// allocation-free.
//
// This bench measures two configurations on the Fig. 4 States workload
// shape (method sc_proxy::compute(), params {Q, mode}, Q ~ 1e5, two
// hardware counters registered) with an empty monitored body, so the
// numbers are pure per-invocation monitoring overhead:
//   scalar  — the pre-interning recipe re-enacted against the registry:
//             per-call parameter map, string-keyed timer lookup and group
//             query, allocating read_all() snapshots, row-struct append
//             (what Mastermind::start/stop did before handles);
//   handle  — register_method once, then MethodHandle + ParamSpan.
// Results are recorded in bench_out/monitor_hotpath.json so later PRs can
// track the trajectory.

#include <chrono>
#include <map>

#include "bench_common.hpp"

namespace {

struct Rig {
  cca::Framework fw;
  core::MastermindComponent* mm;
  core::TauMeasurementComponent* tau;

  Rig() : fw(make_repo()) {
    fw.instantiate("tau", "TauMeasurement");
    fw.instantiate("mm", "Mastermind");
    fw.connect("mm", "measurement", "tau", "measurement");
    mm = dynamic_cast<core::MastermindComponent*>(&fw.component("mm"));
    tau = dynamic_cast<core::TauMeasurementComponent*>(&fw.component("tau"));
    // Two counter sources, as in the Fig. 5 runs (FLOPs + L2 misses).
    tau->registry().counters().add_source(hwc::kFpOps, [this] { return tick_++; });
    tau->registry().counters().add_source(hwc::kL2Dcm, [this] { return tick_ / 2; });
  }

  static cca::ComponentRepository make_repo() {
    cca::ComponentRepository repo;
    repo.register_class("TauMeasurement",
                        [] { return std::make_unique<core::TauMeasurementComponent>(); });
    repo.register_class("Mastermind",
                        [] { return std::make_unique<core::MastermindComponent>(); });
    return repo;
  }

  std::uint64_t tick_ = 0;
};

/// Best-of-blocks ns per monitored invocation under `invoke`.
template <class F>
double time_invocations(F&& invoke, int blocks, int reps) {
  invoke();  // warmup (resolves timers, grows pools)
  double best = 1e300;
  for (int b = 0; b < blocks; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i) invoke();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best,
                    std::chrono::duration<double, std::nano>(t1 - t0).count() / reps);
  }
  return best;
}

/// The seed's monitoring bookkeeping, re-enacted: every structure the
/// pre-interning Mastermind built per invocation, against the same
/// registry.
struct ScalarMonitor {
  using ParamMap = std::map<std::string, double>;
  struct Invocation {
    ParamMap params;
    double wall_us = 0.0, mpi_us = 0.0, compute_us = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };
  struct Open {
    std::string key;
    ParamMap params;
    tau::Clock::time_point wall_start{};
    double mpi_us_start = 0.0;
    std::vector<std::pair<std::string, std::uint64_t>> counters_start;
  };

  explicit ScalarMonitor(tau::Registry& reg) : reg_(reg) {}

  void start(const std::string& key, const ParamMap& params) {
    Open open;
    open.key = key;
    open.params = params;
    open.mpi_us_start = reg_.group_inclusive_us(tau::kMpiGroup);
    open.counters_start = reg_.counters().read_all();
    open_.push_back(std::move(open));
    reg_.start(reg_.timer(key, "PROXY"));
    open_.back().wall_start = tau::Clock::now();
  }

  void stop(const std::string& key) {
    const tau::Clock::time_point wall_end = tau::Clock::now();
    reg_.stop(reg_.timer(key, "PROXY"));
    Open open = std::move(open_.back());
    open_.pop_back();
    Invocation inv;
    inv.params = std::move(open.params);
    inv.wall_us =
        std::chrono::duration<double, std::micro>(wall_end - open.wall_start).count();
    inv.mpi_us = reg_.group_inclusive_us(tau::kMpiGroup) - open.mpi_us_start;
    inv.compute_us = inv.wall_us - inv.mpi_us;
    for (const auto& [name, value] : reg_.counters().read_all()) {
      double before = 0.0;
      for (const auto& [n, v] : open.counters_start)
        if (n == name) before = static_cast<double>(v);
      inv.counters.emplace_back(name, static_cast<double>(value) - before);
    }
    rows_.push_back(std::move(inv));
  }

  tau::Registry& reg_;
  std::vector<Open> open_;
  std::vector<Invocation> rows_;
};

}  // namespace

int main() {
  // The Fig. 4 States workload shape closest to Q = 1e5.
  bench::PatchShape shape{};
  for (const auto& s : bench::paper_q_sweep())
    if (shape.q == 0 ||
        std::abs(static_cast<double>(s.q) - 1e5) <
            std::abs(static_cast<double>(shape.q) - 1e5))
      shape = s;
  const double q = static_cast<double>(shape.q);

  std::cout << "Ablation: monitoring hot path — sc_proxy::compute() shape, Q = "
            << shape.q << "\n\n";

  const int blocks = 7, reps = 20'000;

  // Scalar baseline: the seed's per-invocation bookkeeping.
  Rig scalar_rig;
  ScalarMonitor scalar(scalar_rig.tau->registry());
  const double scalar_ns = time_invocations(
      [&] {
        scalar.start("sc_proxy::compute()", {{"Q", q}, {"mode", 0.0}});
        scalar.stop("sc_proxy::compute()");
      },
      blocks, reps);

  // Handle surface: the method is registered once, each call passes a
  // stack-resident ParamSpan.
  Rig handle_rig;
  const core::MethodHandle h =
      handle_rig.mm->register_method("sc_proxy::compute()", {"Q", "mode"});
  const double handle_ns = time_invocations(
      [&] {
        const double params[2] = {q, 0.0};
        handle_rig.mm->start(h, core::ParamSpan(params, 2));
        handle_rig.mm->stop(h);
      },
      blocks, reps);

  // Both monitors must have seen every invocation.
  const core::Record* hrec = handle_rig.mm->record("sc_proxy::compute()");
  CCAPERF_REQUIRE(hrec != nullptr && hrec->count() == scalar.rows_.size(),
                  "monitors recorded different invocation counts");
  CCAPERF_REQUIRE(hrec->param_at(0, "Q") == q && scalar.rows_[0].params.at("Q") == q,
                  "parameter capture diverged between monitors");

  const double speedup_scalar = scalar_ns / handle_ns;

  ccaperf::TextTable t;
  t.set_header({"configuration", "ns/invocation", "relative"});
  t.add_row({"scalar (seed recipe)", ccaperf::fmt_double(scalar_ns, 6), "1.00"});
  t.add_row({"handle + ParamSpan", ccaperf::fmt_double(handle_ns, 6),
             ccaperf::fmt_double(handle_ns / scalar_ns, 4)});
  t.render(std::cout);
  std::cout << "\nscalar/handle overhead ratio: "
            << ccaperf::fmt_double(speedup_scalar, 4) << "x ("
            << (speedup_scalar >= 2.0 ? "meets" : "MISSES")
            << " the >= 2x target)\n";

  bench::print_comparison(
      "monitoring overhead",
      {{"per-invocation monitoring cost", "\"as little as possible\" (section 3.2)",
        ccaperf::fmt_double(handle_ns, 1) + " ns handle path (was " +
            ccaperf::fmt_double(scalar_ns, 1) + " ns scalar recipe)"}});

  bench::write_bench_json(
      "bench_out/monitor_hotpath.json",
      {{"monitor_hotpath", "q", q},
       {"monitor_hotpath", "scalar_ns_per_invocation", scalar_ns},
       {"monitor_hotpath", "handle_ns_per_invocation", handle_ns},
       {"monitor_hotpath", "scalar_vs_handle_speedup", speedup_scalar}});
  return 0;
}
