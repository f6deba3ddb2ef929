#!/usr/bin/env bash
# Tier-1 gate (ROADMAP.md): configure + build + run every `tier1`-labeled
# ctest suite, the end-to-end trace/chaos pipeline smokes, and sanitized
# rebuilds of the concurrency-sensitive suites. Intended for CI and for a
# quick local pre-push check:
#
#   scripts/check_tier1.sh            # everything: build/ + build-tsan/ + build-asan/
#   BUILD_DIR=mybuild scripts/check_tier1.sh
#   STAGES="tsan" scripts/check_tier1.sh          # one stage
#   STAGES="tier1 trace-smoke" scripts/check_tier1.sh
#
# STAGES is a space-separated subset of the ALL_STAGES array below (the
# array is the single source of truth — the default run, this usage text,
# and stage-name validation all derive from it), so the CI pipeline can
# fan the stages out across jobs while local runs keep the
# single-command default. Unknown stage names fail fast with the valid
# list instead of silently running nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Every stage this script knows, in default execution order. Adding a
# stage = add it here + add its `if want <name>` block; nothing else to
# keep in sync.
ALL_STAGES=(tier1 trace-smoke chaos-soak governor-soak ranks-scaling
            simd-matrix prediction-gate hub-soak tsan asan)

BUILD_DIR=${BUILD_DIR:-build}
ASAN_DIR=${ASAN_DIR:-build-asan}
TSAN_DIR=${TSAN_DIR:-build-tsan}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
STAGES=${STAGES:-${ALL_STAGES[*]}}

for stage in ${STAGES}; do
  case " ${ALL_STAGES[*]} " in
    *" ${stage} "*) ;;
    *)
      echo "check_tier1.sh: unknown stage '${stage}'" >&2
      echo "valid stages: ${ALL_STAGES[*]}" >&2
      exit 2 ;;
  esac
done

want() {
  case " ${STAGES} " in
    *" $1 "*) return 0 ;;
    *) return 1 ;;
  esac
}

# The trace smoke and chaos soak share one fig01 binary and scratch dir.
FIG01=""
SMOKE_DIR=""
need_fig01() {
  if [ -z "${FIG01}" ]; then
    cmake -B "${BUILD_DIR}" -S . >/dev/null
    cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_fig01_simulation
    FIG01="$(cd "${BUILD_DIR}/bench" && pwd)/bench_fig01_simulation"
    SMOKE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/ccaperf-trace-smoke.XXXXXX")
    trap 'rm -rf "${SMOKE_DIR}"' EXIT
  fi
}

if want tier1; then
  echo "== knob guard: only src/support/env.* reads the environment =="
  # Runtime knobs are parsed in one place (support/env.hpp); a getenv
  # elsewhere skips validation, and a setenv turns a process-global
  # variable into an API between modules.
  if grep -rn 'getenv\|setenv\|unsetenv' src/ | grep -v '^src/support/env\.'; then
    echo "check_tier1.sh: environment access outside src/support/env.*" >&2
    exit 1
  fi
  echo "== knob table: README's Runtime knobs rows match the knobs in src/ =="
  # A deleted knob must not linger in the docs, and a new one must not
  # ship undocumented.
  src_knobs=$({ grep -rhoE '"CCAPERF_[A-Z0-9_]+"' src/ || true; } |
    tr -d '"' | sort -u)
  doc_knobs=$(awk '/^### Runtime knobs/ {on = 1; next} on && /^#/ {on = 0} on' \
    README.md | { grep -oE '^\| `CCAPERF_[A-Z0-9_]+`' || true; } |
    tr -d '|` ' | sort -u)
  if [ "${src_knobs}" != "${doc_knobs}" ]; then
    echo "check_tier1.sh: README knob table (<) and CCAPERF_* literals in src/ (>) differ:" >&2
    diff <(echo "${doc_knobs}") <(echo "${src_knobs}") >&2 || true
    exit 1
  fi
  echo "== tier-1 suites (${BUILD_DIR}, warnings as errors) =="
  cmake -B "${BUILD_DIR}" -S . -DCCAPERF_WERROR=ON >/dev/null
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
  echo "== ODR guard: no weak symbol of a SIMD object is defined twice =="
  # kernels_avx2.cpp / kernels_avx512.cpp compile with -m flags. An inline
  # function they do not inline becomes a weak symbol, and when another
  # object of the library defines it too the linker keeps one copy for
  # every caller — possibly the AVX-512 one, which faults on hosts
  # without it. DW.ref.* are data (the unwinder's personality pointer).
  odr=$(nm --defined-only "${BUILD_DIR}/src/euler/libccaperf_euler.a" | awk '
    /\.o:$/ { obj = $1; simd = obj ~ /^kernels_avx(2|512)\.cpp\.o:$/; next }
    NF == 3 && $3 !~ /^DW\.ref\./ {
      defs[$3]++
      if (simd && $2 ~ /^[WVu]$/) weak[$3] = obj
    }
    END { for (s in weak) if (defs[s] > 1) print weak[s], s }')
  if [ -n "${odr}" ]; then
    echo "check_tier1.sh: weak symbols of SIMD objects defined in other objects too:" >&2
    echo "${odr}" | c++filt >&2
    exit 1
  fi
  echo "== probe guard: SIMD objects hold no cache-tracing code =="
  # A cache-traced call runs the scalar level (src/euler/kernels.cpp); the
  # per-ISA units take no probe. Probe code compiled under their -m flags
  # would bring back the weak-symbol hazard above for the probes and the
  # simulator.
  probes=$(nm -C "${BUILD_DIR}/src/euler/libccaperf_euler.a" | awk '
    /\.o:$/ { simd = $1 ~ /^kernels_avx(2|512)\.cpp\.o:$/; obj = $1; next }
    simd && /hwc::(CacheSim|CacheProbe)/ { print obj, $0 }')
  if [ -n "${probes}" ]; then
    echo "check_tier1.sh: SIMD objects reference cache-tracing code:" >&2
    echo "${probes}" >&2
    exit 1
  fi
  ctest --test-dir "${BUILD_DIR}" -L tier1 --output-on-failure -j "${JOBS}"
fi

if want trace-smoke; then
  echo "== trace pipeline smoke (2-rank fig01, CCAPERF_TRACE) =="
  # End-to-end cross-rank tracing: the binary exits nonzero on an unbalanced
  # or flow-unmatched trace, and the merged JSON must parse.
  need_fig01
  (cd "${SMOKE_DIR}" &&
   CCAPERF_TRACE=trace.json CCAPERF_RANKS=2 CCAPERF_STEPS=2 "${FIG01}" >/dev/null)
  if command -v python3 >/dev/null; then
    python3 -m json.tool "${SMOKE_DIR}/trace.json" >/dev/null
    # The kernel proxies' first parameter is Q; the ring keeps each slice's
    # argument beside its enter, so a misaligned ring hands a slice another
    # event's fields or none. A dropped event would make the check vacuous.
    python3 - "${SMOKE_DIR}" <<'PY'
import glob, json, os, sys

smoke = sys.argv[1]
events = json.load(open(os.path.join(smoke, "trace.json")))["traceEvents"]
slices = [e for e in events
          if e.get("ph") == "B" and e.get("name", "").endswith("_proxy::compute()")]
assert slices, "no monitored kernel-proxy slices in trace.json"
for e in slices:
    q = e.get("args", {}).get("Q")
    assert isinstance(q, (int, float)) and q > 0, ("slice without a Q > 0", e)
paths = sorted(glob.glob(os.path.join(smoke, "telemetry.rank*.jsonl")))
assert paths, "no telemetry files"
for p in paths:
    lines = [json.loads(l) for l in open(p)]
    assert lines and lines[-1]["trace"]["dropped"] == 0, (p, lines[-1:])
print(f"trace smoke: {len(slices)} proxy slices carry Q, {len(paths)} ranks dropped 0")
PY
  fi
  echo "trace smoke: OK"
fi

if want chaos-soak; then
  echo "== chaos soak (2-rank fig01 under moderate fault plan) =="
  # Graceful-degradation gate: the same simulation run clean and under the
  # seeded moderate fault plan must converge to the same physics (density
  # CSVs match to tolerance — the recovery layer hides every injected
  # fault), while the telemetry JSONL proves faults were actually injected
  # and recovered (nonzero FAULT_* counter deltas).
  need_fig01
  SOAK_SEED=${SOAK_SEED:-20260805}
  (cd "${SMOKE_DIR}" && mkdir -p clean chaos &&
   cd clean && CCAPERF_RANKS=2 CCAPERF_STEPS=4 "${FIG01}" >/dev/null &&
   cd ../chaos &&
   CCAPERF_TRACE=trace.json CCAPERF_RANKS=2 CCAPERF_STEPS=4 \
   CCAPERF_FAULT_PLAN=moderate CCAPERF_FAULT_SEED="${SOAK_SEED}" \
   "${FIG01}" > fig01.out)
  grep -q "fault injection" "${SMOKE_DIR}/chaos/fig01.out"
  python3 - "${SMOKE_DIR}" <<'PY'
import glob, json, os, sys

smoke = sys.argv[1]

def rows(pattern):
    out = []
    for path in sorted(glob.glob(pattern)):
        with open(path) as f:
            next(f)  # header
            for line in f:
                x, y, rho = line.split(",")
                out.append((x.strip(), y.strip(), float(rho)))
    out.sort()
    return out

# fig01 writes its CSV series under bench_out/figs/ relative to its cwd.
clean = rows(os.path.join(smoke, "clean", "bench_out", "figs",
                          "fig01_density.rank*.csv"))
chaos = rows(os.path.join(smoke, "chaos", "bench_out", "figs",
                          "fig01_density.rank*.csv"))
assert len(clean) == len(chaos) > 0, (len(clean), len(chaos))
worst = max(abs(a[2] - b[2]) for a, b in zip(clean, chaos))
assert all(a[:2] == b[:2] for a, b in zip(clean, chaos)), "cell sets differ"
assert worst <= 1e-9, f"density diverged under faults: max |drho| = {worst}"

fault_totals = {}
for path in glob.glob(os.path.join(smoke, "chaos", "telemetry.rank*.jsonl")):
    for line in open(path):
        for k, v in json.loads(line).get("counter_delta", {}).items():
            if k.startswith("FAULT_"):
                fault_totals[k] = fault_totals.get(k, 0) + v
injected = fault_totals.get("FAULT_INJECTED", 0)
recovered = fault_totals.get("FAULT_RETRIES", 0) + fault_totals.get(
    "FAULT_DUP_SUPPRESSED", 0) + fault_totals.get("FAULT_STALE_FALLBACKS", 0)
assert injected > 0, f"no faults injected in chaos soak: {fault_totals}"
assert recovered > 0, f"no recovery activity in chaos soak: {fault_totals}"
print(f"chaos soak: densities match (max drift {worst:g}); "
      f"{injected} faults injected, recovery counters {fault_totals}")
PY
  echo "chaos soak: OK"
fi

if want governor-soak; then
  echo "== governor soak (2-rank fig01 under a 2% overhead budget) =="
  # The overhead governor (DESIGN.md §12) must keep realized measurement
  # self-cost inside the budget on the full simulation without perturbing
  # the physics: a governed run (CCAPERF_OVERHEAD_PCT=2, full tracing)
  # writes density CSVs byte-identical to an ungoverned untraced run, its
  # telemetry/trace still parse, every telemetry line carries the realized
  # overhead_pct and the governor level, and the cumulative self-cost over
  # the second half of the run stays under budget + hysteresis band (2.5%).
  need_fig01
  (cd "${SMOKE_DIR}" && mkdir -p gov-on gov-off &&
   cd gov-off && CCAPERF_RANKS=2 CCAPERF_STEPS=6 "${FIG01}" >/dev/null &&
   cd ../gov-on &&
   CCAPERF_TRACE=trace.json CCAPERF_OVERHEAD_PCT=2 CCAPERF_RANKS=2 \
   CCAPERF_STEPS=6 "${FIG01}" >/dev/null)
  python3 -m json.tool "${SMOKE_DIR}/gov-on/trace.json" >/dev/null
  python3 - "${SMOKE_DIR}" <<'PY'
import filecmp, glob, json, os, sys

smoke = sys.argv[1]
on = sorted(glob.glob(os.path.join(smoke, "gov-on", "bench_out", "figs",
                                   "fig01_density.rank*.csv")))
off = sorted(glob.glob(os.path.join(smoke, "gov-off", "bench_out", "figs",
                                    "fig01_density.rank*.csv")))
assert len(on) == len(off) > 0, (len(on), len(off))
for po, pf in zip(on, off):
    assert os.path.basename(po) == os.path.basename(pf), (po, pf)
    assert filecmp.cmp(po, pf, shallow=False), \
        f"governed run perturbed the physics: {po}"

tiers, worst_late = 0, 0.0
for path in sorted(glob.glob(os.path.join(smoke, "gov-on",
                                          "telemetry.rank*.jsonl"))):
    lines = [json.loads(l) for l in open(path)]
    assert lines, f"empty telemetry: {path}"
    tiers += sum(1 for l in lines
                 if l.get("governor", {}).get("event") == "tier")
    samples = [l for l in lines if "overhead_pct" in l]
    assert samples, f"no overhead_pct telemetry: {path}"
    assert all("governor_level" in l for l in samples), \
        f"telemetry missing governor_level: {path}"
    # Cumulative realized overhead over the second half of the run: the
    # controller gets the first half to walk the tier ladder down.
    mid, last = samples[len(samples) // 2], samples[-1]
    dt = last["t_us"] - mid["t_us"]
    if dt > 0:
        worst_late = max(worst_late,
                         100.0 * (last["self_us"] - mid["self_us"]) / dt)
# A fast host may never breach the budget (no tier transitions) — then the
# realized overhead itself must prove throttling was unnecessary.
assert tiers > 0 or worst_late <= 2.5, "no tier transitions yet over budget"
assert worst_late <= 2.5, f"governed overhead {worst_late:.2f}% > 2.5%"
print(f"governor soak: physics byte-identical, {tiers} tier transitions, "
      f"late-half overhead {worst_late:.2f}% <= 2.5%")
PY
  echo "governor soak: OK"
fi

if want ranks-scaling; then
  echo "== rank-scaling smoke (64-rank fig01, hop-relay collectives) =="
  # The hop-relay collectives and the replicated load balancer must keep a
  # clean large-world run deterministic: two identical 64-rank runs
  # produce byte-identical density CSVs, and the per-rank telemetry still
  # parses.
  need_fig01
  (cd "${SMOKE_DIR}" && mkdir -p ranks-a ranks-b &&
   cd ranks-a &&
   CCAPERF_TRACE=trace.json CCAPERF_RANKS=64 CCAPERF_STEPS=2 "${FIG01}" >/dev/null &&
   cd ../ranks-b && CCAPERF_RANKS=64 CCAPERF_STEPS=2 "${FIG01}" >/dev/null)
  python3 - "${SMOKE_DIR}" <<'PY'
import filecmp, glob, json, os, sys

smoke = sys.argv[1]
a = sorted(glob.glob(os.path.join(smoke, "ranks-a", "bench_out", "figs",
                                  "fig01_density.rank*.csv")))
b = sorted(glob.glob(os.path.join(smoke, "ranks-b", "bench_out", "figs",
                                  "fig01_density.rank*.csv")))
assert len(a) == len(b) > 0, (len(a), len(b))
for pa, pb in zip(a, b):
    assert os.path.basename(pa) == os.path.basename(pb), (pa, pb)
    assert filecmp.cmp(pa, pb, shallow=False), f"density CSV differs: {pa}"
ranks = 0
for path in glob.glob(os.path.join(smoke, "ranks-a", "telemetry.rank*.jsonl")):
    ranks += 1
    for line in open(path):
        json.loads(line)
assert ranks > 0, "no telemetry emitted"
print(f"ranks scaling: {len(a)} density CSVs byte-identical across runs, "
      f"telemetry from {ranks} rank files parses")
PY
  echo "ranks scaling: OK"
fi

if want simd-matrix; then
  echo "== SIMD dispatch matrix (fig01 byte-identical across forced ISA levels) =="
  # The runtime-dispatched kernels (CCAPERF_SIMD, DESIGN.md §11) must be
  # bit-identical to the scalar reference: the same 2-rank fig01 run forced
  # to each ISA level, with the simulated counter backend pinned
  # (CCAPERF_HWC=sim), must write byte-identical density CSVs. Levels the
  # host cannot run clamp down (ultimately to scalar), so on a non-AVX
  # runner the stage degrades to a scalar-vs-scalar determinism check
  # instead of failing.
  need_fig01
  for isa in scalar avx2 native; do
    (cd "${SMOKE_DIR}" && mkdir -p "simd-${isa}" && cd "simd-${isa}" &&
     CCAPERF_SIMD="${isa}" CCAPERF_HWC=sim \
     CCAPERF_RANKS=2 CCAPERF_STEPS=2 "${FIG01}" >/dev/null)
  done
  python3 - "${SMOKE_DIR}" <<'PY'
import filecmp, glob, os, sys

smoke = sys.argv[1]
ref = sorted(glob.glob(os.path.join(smoke, "simd-scalar", "bench_out", "figs",
                                    "fig01_density.rank*.csv")))
assert ref, "scalar fig01 run wrote no density CSVs"
for isa in ("avx2", "native"):
    other = sorted(glob.glob(os.path.join(smoke, f"simd-{isa}", "bench_out",
                                          "figs", "fig01_density.rank*.csv")))
    assert len(other) == len(ref), (isa, len(other), len(ref))
    for pr, po in zip(ref, other):
        assert os.path.basename(pr) == os.path.basename(po), (pr, po)
        assert filecmp.cmp(pr, po, shallow=False), \
            f"density CSV differs between scalar and {isa}: {po}"
print(f"simd matrix: {len(ref)} density CSVs byte-identical across "
      "scalar/avx2/native dispatch")
PY
  # Every level runs the same per-line States algorithm, so agreeing with
  # each other cannot catch a bug they share: pin each level to the
  # case study's known density digests as well. The Godunov vector solve
  # needs no run per level here: SimdKernels.GodunovFluxBitIdenticalAcrossIsa
  # already sets every level the host supports in-process (set_isa ignores
  # CCAPERF_SIMD), and tier-1 runs it once.
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target test_components
  # The grep keeps a renamed test from passing as an empty selection.
  for isa in scalar avx2 native; do
    CCAPERF_SIMD="${isa}" "${BUILD_DIR}/tests/components/test_components" \
      --gtest_filter='App.CaseStudyDigestKnownAnswer' --gtest_brief=1 |
      tee "${SMOKE_DIR}/known-answer-${isa}.out"
    grep -q '^\[  PASSED  \] 1 test\.$' "${SMOKE_DIR}/known-answer-${isa}.out"
  done
  # Lanes reorder the work (RK2 runs a level's largest patch first, rows
  # are shared between lanes) but must not move a bit of the field.
  CCAPERF_THREADS=3 "${BUILD_DIR}/tests/components/test_components" \
    --gtest_filter='App.CaseStudyDigestKnownAnswer' --gtest_brief=1 |
    tee "${SMOKE_DIR}/known-answer-threads3.out"
  grep -q '^\[  PASSED  \] 1 test\.$' "${SMOKE_DIR}/known-answer-threads3.out"
  echo "simd matrix: OK"
fi

if want prediction-gate; then
  echo "== prediction gate (pattern-model train/predict/validate, DESIGN.md §13) =="
  # Closes the predict/validate loop for real: calibrate the fig01 pattern
  # tree on the small training grid, predict held-out (ranks, threads, Q)
  # points, run them, and gate the relative errors against
  # bench/baselines/prediction.json (<= 25% per point, <= 10% median).
  # The bench also self-gates, so a bare local run fails loudly too.
  cmake -B "${BUILD_DIR}" -S . >/dev/null
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_ablation_prediction
  PRED_BIN="$(cd "${BUILD_DIR}/bench" && pwd)/bench_ablation_prediction"
  PRED_DIR=$(mktemp -d "${TMPDIR:-/tmp}/ccaperf-pred-gate.XXXXXX")
  (cd "${PRED_DIR}" && "${PRED_BIN}")
  python3 scripts/bench_gate.py --bench-dir "${PRED_DIR}/bench_out" \
    --only prediction --out "${PRED_DIR}/BENCH_prediction.json"
  rm -rf "${PRED_DIR}"
  echo "prediction gate: OK"
fi

if want hub-soak; then
  echo "== hub soak (64 concurrent mixed sessions through the TelemetryHub) =="
  # The multi-tenant telemetry service (DESIGN.md §14) under load: ramp to
  # 64 concurrent AMR + LU sessions (mixed ranks/threads/fault plans), gate
  # zero cross-session row leakage (every retained line carries its own
  # session marker), per-session physics byte-identical to solo runs,
  # bounded hub memory with exact eviction accounting, and a parseable live
  # aggregate stream; then gate the soak's throughput/identity series
  # against bench/baselines/hub.json.
  cmake -B "${BUILD_DIR}" -S . >/dev/null
  cmake --build "${BUILD_DIR}" -j "${JOBS}" --target bench_ablation_hub
  HUB_BIN="$(cd "${BUILD_DIR}/bench" && pwd)/bench_ablation_hub"
  HUB_DIR=$(mktemp -d "${TMPDIR:-/tmp}/ccaperf-hub-soak.XXXXXX")
  (cd "${HUB_DIR}" && "${HUB_BIN}" | tee hub_soak.out)
  grep -q "hub soak: OK" "${HUB_DIR}/hub_soak.out"
  python3 - "${HUB_DIR}" <<'PY'
import json, os, sys

hub = sys.argv[1]
path = os.path.join(hub, "bench_out", "hub_aggregate.jsonl")
lines = [json.loads(l) for l in open(path)]
assert lines, "hub aggregate stream is empty"
for l in lines:
    for key in ("t_us", "sessions_open", "published",
                "bytes_retained", "bytes_peak", "scenarios"):
        assert key in l, f"aggregate line missing {key}: {l}"
last = lines[-1]
assert last["published"] >= last["dropped_evicted"], last
scen = [l["scenarios"] for l in lines if l["scenarios"]]
assert any("amr" in s for s in scen), "no amr sessions in aggregate stream"
assert any("lu" in s for s in scen), "no lu sessions in aggregate stream"
print(f"hub aggregate: {len(lines)} lines parse; final published "
      f"{last['published']}, peak {last['bytes_peak']} bytes")
PY
  python3 scripts/bench_gate.py --bench-dir "${HUB_DIR}/bench_out" \
    --only hub --out "${HUB_DIR}/BENCH_hub.json"
  rm -rf "${HUB_DIR}"
  echo "hub soak: OK"
fi

# Runs a gtest binary under a ':'-separated --gtest_filter, failing first
# when any term of the filter selects no test: a suite renamed or deleted
# would otherwise drop out of the run without a word.
gtest_filtered() {
  local bin=$1 filter=$2 term listed
  local IFS=':'
  for term in ${filter}; do
    listed=$("${bin}" --gtest_list_tests --gtest_filter="${term}")
    if ! grep -q '^  ' <<<"${listed}"; then
      echo "check_tier1.sh: ${bin##*/} filter term '${term}' matches no test" >&2
      return 1
    fi
  done
  "${bin}" --gtest_filter="${filter}"
}

if want tsan; then
  echo "== thread-sanitized concurrency suites (${TSAN_DIR}) =="
  # Lock-ordering-sensitive paths: the mpp delivery path on clean runs
  # (Fabric::route matching against receives posted from another rank's
  # thread, borrowed sender buffers, ack-at-match senders completed and
  # de-parked across threads, the one wait loop), the mpp fault layer
  # (indexed fault queues, dedupe windows under the mailbox lock), every
  # collective on the per-rank hop slots (1-8 ranks, 64/129 ranks, dup,
  # deterministic reductions, aborts mid-collective), the threaded-rank
  # layer (work-stealing pool and its nested helping: ThreadPool.* holds
  # the nested-call contract cases, KernelsMt.* the kernels called from
  # one-job and many-job outer regions; sharded registries,
  # lane-dispatched monitor, proxies resolving their monitor once from
  # pool lanes, multi-threaded kernels), the telemetry
  # hub (concurrent publishers and a reader snapshotting its books under
  # the one state mutex), prolongation's per-lane column and coarse-row
  # scratch under pool lanes (MeshReference.*), States' per-thread line
  # strip under pool lanes (StatesReference.*), the Godunov vector
  # solve's stack batches under pool lanes (SimdKernels.Godunov*), the
  # case study at 1-3 ranks with
  # regrids, whose field must stay bit-identical while the fine levels
  # are cut for balance differently at each rank count, the case study
  # at 1 and 3 lanes (largest patch first at 3), and
  # InviscidFlux's per-thread face-array scratch under concurrent pool
  # lanes.
  cmake -B "${TSAN_DIR}" -S . -DCCAPERF_SANITIZE=thread >/dev/null
  cmake --build "${TSAN_DIR}" -j "${JOBS}" \
    --target test_mpp test_amr test_support test_core test_euler test_tau \
             test_telemetry_hub test_components
  gtest_filtered "${TSAN_DIR}/tests/mpp/test_mpp" \
    'P2P.*:Request.*:MsgEvents.*:BufferPool.*:Rendezvous.*:*RandomExchange.*:FaultInjection.*:Recovery.*:*TreeCollectivesAtScale.*:DedupeAtScale.*:*CollectivesAtSize.*:CommMgmt.*:*DeterministicReductions.*:*AbortInCollective.*'
  gtest_filtered "${TSAN_DIR}/tests/amr/test_amr" 'ExchangeFaults.*:MeshReference.*'
  gtest_filtered "${TSAN_DIR}/tests/support/test_support" \
    'ThreadPool.*'
  gtest_filtered "${TSAN_DIR}/tests/core/test_core" \
    'ThreadedMonitor.*:ThreadedGovernor.*:ProxyContract.*'
  "${TSAN_DIR}/tests/core/test_telemetry_hub"
  gtest_filtered "${TSAN_DIR}/tests/euler/test_euler" \
    'KernelsMt.*:SimdDispatch.*:SimdKernels.*:StatesReference.*'
  gtest_filtered "${TSAN_DIR}/tests/tau/test_tau" 'RegistryShards.*'
  gtest_filtered "${TSAN_DIR}/tests/components/test_components" \
    'App.FieldBitIdentical*:InviscidFluxScratch.*'
fi

if want asan; then
  echo "== address-sanitized suites (${ASAN_DIR}) =="
  # The measurement core plus the euler kernels and the components that
  # drive them: InviscidFlux reshapes per-thread face arrays without
  # clearing, and the address build defines _GLIBCXX_SANITIZE_VECTOR, so
  # a read past a reshaped vector's size() is reported even where its
  # capacity still covers it. The mpp and amr suites cover the delivery
  # path's memory handling: a clean message is copied from the sender's
  # borrowed buffer, and dropping a send handle de-parks its message.
  cmake -B "${ASAN_DIR}" -S . -DCCAPERF_SANITIZE=address >/dev/null
  cmake --build "${ASAN_DIR}" -j "${JOBS}" \
    --target test_tau test_core test_euler test_components test_mpp test_amr
  "${ASAN_DIR}/tests/tau/test_tau"
  "${ASAN_DIR}/tests/core/test_core"
  "${ASAN_DIR}/tests/euler/test_euler"
  "${ASAN_DIR}/tests/components/test_components"
  "${ASAN_DIR}/tests/mpp/test_mpp"
  "${ASAN_DIR}/tests/amr/test_amr"
fi

echo "stages [${STAGES}]: OK"
