#!/usr/bin/env bash
# Line-coverage report for the tier-1 suites, using plain gcov (no gcovr /
# lcov dependency): configure with CCAPERF_COVERAGE=ON, run the tier-1
# ctest label, then aggregate gcov's JSON intermediate format into a
# per-directory line-coverage table.
#
#   scripts/coverage.sh             # build-cov/
#   COV_DIR=mycov scripts/coverage.sh
#   COV_MIN=95 scripts/coverage.sh  # fail if total line coverage drops below
#   COV_JSON=coverage.json scripts/coverage.sh   # machine-readable report
#
# The baseline numbers live in EXPERIMENTS.md; regenerate them with this
# script after touching the communication or measurement layers.
set -euo pipefail
cd "$(dirname "$0")/.."
REPO=$(pwd)

COV_DIR=${COV_DIR:-build-cov}
JOBS=${JOBS:-$(nproc 2>/dev/null || echo 4)}
export COV_MIN=${COV_MIN:-0}
export COV_JSON=${COV_JSON:-}

echo "== coverage build (${COV_DIR}) =="
cmake -B "${COV_DIR}" -S . -DCCAPERF_COVERAGE=ON -DCMAKE_BUILD_TYPE=Debug >/dev/null
cmake --build "${COV_DIR}" -j "${JOBS}"

echo "== tier-1 suites under instrumentation =="
find "${COV_DIR}" -name '*.gcda' -delete
# --coverage forces -O0. check_tier1.sh gates the suites on the regular
# build; here a failed suite still leaves valid line-coverage data, so
# name the failed tests and keep going.
if ! ctest --test-dir "${COV_DIR}" -L tier1 --output-on-failure -j "${JOBS}"; then
  echo "WARNING: tier-1 tests failed under -O0 instrumentation; coverage" \
       "data below still reflects the full run. Failed:" >&2
  sed 's/^[0-9]*:/  /' "${COV_DIR}/Testing/Temporary/LastTestsFailed.log" >&2 || true
fi

echo "== gcov aggregation =="
GCOV_OUT=$(mktemp -d "${TMPDIR:-/tmp}/ccaperf-coverage.XXXXXX")
trap 'rm -rf "${GCOV_OUT}"' EXIT
# gcov drops one .gcov.json.gz per object file into the cwd.
(cd "${GCOV_OUT}" &&
 find "${REPO}/${COV_DIR}" -name '*.gcda' -print0 |
 xargs -0 gcov --json-format >/dev/null)

python3 - "${GCOV_OUT}" "${REPO}" <<'PY'
import glob, gzip, json, os, sys

gcov_dir, repo = sys.argv[1], sys.argv[2]
# (relative source file) -> {line_number: hit?}; merged across the many
# translation units that each header is compiled into.
lines = {}
for path in glob.glob(os.path.join(gcov_dir, "*.gcov.json.gz")):
    with gzip.open(path, "rt") as f:
        data = json.load(f)
    for fentry in data.get("files", []):
        src = fentry["file"]
        if not os.path.isabs(src):
            src = os.path.normpath(os.path.join(data.get("current_working_directory", ""), src))
        src = os.path.normpath(src)
        try:
            rel = os.path.relpath(src, repo)
        except ValueError:
            continue
        if rel.startswith(".."):
            continue  # system headers
        if not (rel.startswith("src/") or rel.startswith("tests/") or rel.startswith("bench/")):
            continue
        per = lines.setdefault(rel, {})
        for ln in fentry.get("lines", []):
            n = ln["line_number"]
            per[n] = per.get(n, False) or ln["count"] > 0

def bucket(rel):
    parts = rel.split(os.sep)
    return os.sep.join(parts[:2]) if len(parts) > 1 else parts[0]

agg = {}
for rel, per in lines.items():
    total, hit = len(per), sum(per.values())
    b = agg.setdefault(bucket(rel), [0, 0])
    b[0] += total
    b[1] += hit

print(f"{'directory':<24}{'lines':>8}{'covered':>9}{'pct':>8}")
gt = gh = 0
dirs = {}
for d in sorted(agg):
    total, hit = agg[d]
    gt += total
    gh += hit
    dirs[d] = {"lines": total, "covered": hit, "pct": 100.0 * hit / total}
    print(f"{d:<24}{total:>8}{hit:>9}{100.0 * hit / total:>7.1f}%")
total_pct = 100.0 * gh / gt
print(f"{'TOTAL':<24}{gt:>8}{gh:>9}{total_pct:>7.1f}%")

cov_json = os.environ.get("COV_JSON", "")
if cov_json:
    with open(os.path.join(repo, cov_json), "w") as f:
        json.dump({"total_pct": total_pct, "lines": gt, "covered": gh,
                   "directories": dirs}, f, indent=2)
        f.write("\n")
    print(f"coverage report -> {cov_json}")

cov_min = float(os.environ.get("COV_MIN", "0") or "0")
if total_pct < cov_min:
    print(f"COVERAGE GATE FAILED: {total_pct:.1f}% < COV_MIN={cov_min:g}%")
    sys.exit(1)
PY
echo "coverage: OK"
