// Ablation — instrumentation overhead (google-benchmark).
//
// Quantifies the paper's claims that (a) "a method invocation on a
// UsesPort incurs a virtual function call overhead" (vs a direct call)
// and (b) "these instrumentation related overheads are small" (proxy +
// Mastermind monitoring per intercepted invocation, which is excluded
// from the recorded kernel timings by construction).

#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

// -- direct vs port-mediated kernel invocation ------------------------------

struct Fixture {
  euler::GasModel gas;
  amr::Box interior{0, 0, 31, 15};  // before `u`: member-init order matters
  amr::PatchData<double> u;
  euler::Array2 l, r;

  Fixture() : u(bench::workload_patch(interior, gas, 7)) {
    int nx = 0, ny = 0;
    euler::face_dims(interior, euler::Dir::x, nx, ny);
    l = euler::Array2(nx, ny, euler::kNcomp);
    r = euler::Array2(nx, ny, euler::kNcomp);
  }
};

void BM_DirectKernelCall(benchmark::State& state) {
  Fixture f;
  hwc::NullProbe probe;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        euler::compute_states(f.u, f.interior, euler::Dir::x, f.gas, f.l, f.r, probe));
  }
}
BENCHMARK(BM_DirectKernelCall);

void BM_PortCall(benchmark::State& state) {
  // Same kernel through the CCA uses-port (one virtual dispatch).
  Fixture f;
  bench::KernelRig rig(f.gas);
  auto* direct =
      rig.fw.services("states").provided_as<components::StatesPort>("states");
  for (auto _ : state)
    benchmark::DoNotOptimize(direct->compute(f.u, f.interior, euler::Dir::x, f.l, f.r));
}
BENCHMARK(BM_PortCall);

void BM_ProxiedMonitoredCall(benchmark::State& state) {
  // Through the proxy: virtual dispatch + parameter extraction + Mastermind
  // start/stop with TAU queries.
  Fixture f;
  bench::KernelRig rig(f.gas);
  for (auto _ : state)
    benchmark::DoNotOptimize(
        rig.states->compute(f.u, f.interior, euler::Dir::x, f.l, f.r));
}
BENCHMARK(BM_ProxiedMonitoredCall);

// -- micro costs -------------------------------------------------------------

void BM_VirtualDispatchOnly(benchmark::State& state) {
  struct Iface {
    virtual ~Iface() = default;
    virtual int f(int) = 0;
  };
  struct Impl final : Iface {
    int f(int x) override { return x + 1; }
  };
  Impl impl;
  Iface* p = &impl;
  int v = 0;
  for (auto _ : state) benchmark::DoNotOptimize(v = p->f(v));
}
BENCHMARK(BM_VirtualDispatchOnly);

void BM_TauTimerStartStop(benchmark::State& state) {
  tau::Registry reg;
  const auto t = reg.timer("bench()");
  for (auto _ : state) {
    reg.start(t);
    reg.stop(t);
  }
}
BENCHMARK(BM_TauTimerStartStop);

void BM_MastermindStartStop(benchmark::State& state) {
  // The full per-invocation monitoring cost: two TAU group queries +
  // counter snapshots + record append.
  bench::KernelRig rig{euler::GasModel{}};
  const double params[2] = {1024.0, 0.0};
  auto* monitor = rig.fw.services("mm").provided_as<core::MonitorPort>("monitor");
  const core::MethodHandle h = monitor->register_method("bench::m()", {"Q", "mode"});
  for (auto _ : state) {
    monitor->start(h, core::ParamSpan(params, 2));
    monitor->stop(h);
  }
}
BENCHMARK(BM_MastermindStartStop);

void BM_GetPortLookup(benchmark::State& state) {
  bench::KernelRig rig{euler::GasModel{}};
  const cca::Services& svc = rig.fw.services("sc_proxy");
  for (auto _ : state)
    benchmark::DoNotOptimize(svc.get_port("states_real"));
}
BENCHMARK(BM_GetPortLookup);

}  // namespace

BENCHMARK_MAIN();
