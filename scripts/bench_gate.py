#!/usr/bin/env python3
"""Benchmark regression gate.

Compares the JSON series the ablation benches write under bench_out/
against the checked-in baselines in bench/baselines/, and fails when a
gated metric regresses by more than the tolerance (default 25% — wide
enough to absorb shared-runner noise, tight enough to catch a real
perf cliff or a broken determinism bit).

Each baseline file bench/baselines/<name>.json holds a list of

    {"metric": "...", "value": <number>, "higher_is_better": true|false}

with an optional per-metric "tolerance" overriding the global one —
invariant metrics (e.g. the hub soak's identity_ok flag, or its memory
bound, which the bench already caps) gate at 0.0 while throughput
metrics keep the wide shared-runner default. An optional
"report_only_below": {"<series metric>": <floor>} makes a metric
report-only on runs where the bench's own series reports that metric
below the floor (a speedup means nothing on a host with fewer cores than
the lanes it needs). Each file is compared
against bench_out/<name>.json (the bench's
[{"name", "metric", "value"}, ...] output). The verdicts are written to
a machine-readable report (default BENCH_tier1.json) for the CI artifact.

Usage:
    scripts/bench_gate.py [--bench-dir bench_out] [--baseline-dir bench/baselines]
                          [--out BENCH_tier1.json] [--tolerance 0.25]
                          [--only <name> ...]

--only restricts the gate to the named baseline(s) (repeatable), so a CI
stage can gate just the bench it ran without requiring every other
bench's output to exist.
"""

import argparse
import glob
import json
import os
import sys


def load_bench_series(path):
    """bench_out/<name>.json -> {metric: value}."""
    with open(path) as f:
        return {e["metric"]: e["value"] for e in json.load(f)}


def check_metric(measured, baseline, higher_is_better, tolerance):
    """Returns (ok, ratio) where ratio is measured/baseline (inf for 0-div)."""
    if baseline == 0:
        return measured == 0, float("inf") if measured else 1.0
    ratio = measured / baseline
    if higher_is_better:
        return ratio >= 1.0 - tolerance, ratio
    return ratio <= 1.0 + tolerance, ratio


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--bench-dir", default="bench_out")
    ap.add_argument("--baseline-dir", default="bench/baselines")
    ap.add_argument("--out", default="BENCH_tier1.json")
    ap.add_argument("--tolerance", type=float, default=0.25)
    ap.add_argument("--only", action="append", default=None, metavar="NAME",
                    help="gate only this baseline (repeatable)")
    args = ap.parse_args()

    baselines = sorted(glob.glob(os.path.join(args.baseline_dir, "*.json")))
    if args.only:
        wanted = set(args.only)
        baselines = [b for b in baselines
                     if os.path.splitext(os.path.basename(b))[0] in wanted]
        found = {os.path.splitext(os.path.basename(b))[0] for b in baselines}
        for name in sorted(wanted - found):
            print(f"bench_gate: no baseline named {name!r} under "
                  f"{args.baseline_dir}", file=sys.stderr)
            return 2
    if not baselines:
        print(f"bench_gate: no baselines under {args.baseline_dir}", file=sys.stderr)
        return 2

    results = []
    for base_path in baselines:
        name = os.path.splitext(os.path.basename(base_path))[0]
        bench_path = os.path.join(args.bench_dir, name + ".json")
        with open(base_path) as f:
            gated = json.load(f)
        if not os.path.exists(bench_path):
            for g in gated:
                results.append({"bench": name, "metric": g["metric"],
                                "status": "missing",
                                "baseline": g["value"], "measured": None,
                                "higher_is_better": g["higher_is_better"],
                                "ratio": None, "ok": False})
            continue
        series = load_bench_series(bench_path)
        for g in gated:
            metric = g["metric"]
            if metric not in series:
                results.append({"bench": name, "metric": metric,
                                "status": "missing",
                                "baseline": g["value"], "measured": None,
                                "higher_is_better": g["higher_is_better"],
                                "ratio": None, "ok": False})
                continue
            tol = g.get("tolerance", args.tolerance)
            ok, ratio = check_metric(series[metric], g["value"],
                                     g["higher_is_better"], tol)
            status = "ok" if ok else "regressed"
            below = {k: series.get(k) for k, floor
                     in g.get("report_only_below", {}).items()
                     if series.get(k) is None or series[k] < floor}
            if below:
                status = "report-only (" + ", ".join(
                    f"{k}={v}" for k, v in below.items()) + ")"
                ok = True
            results.append({"bench": name, "metric": metric,
                            "status": status,
                            "baseline": g["value"], "measured": series[metric],
                            "higher_is_better": g["higher_is_better"],
                            "tolerance": tol,
                            "ratio": ratio, "ok": ok})

    all_ok = all(r["ok"] for r in results)
    report = {"tolerance": args.tolerance, "ok": all_ok, "results": results}
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")

    width = max(len(f"{r['bench']}.{r['metric']}") for r in results)
    for r in results:
        tag = "OK  " if r["ok"] else ("MISS" if r["status"] == "missing" else "FAIL")
        if r["status"].startswith("report-only"):
            tag = "INFO"
        measured = "absent" if r["measured"] is None else f"{r['measured']:g}"
        arrow = "higher=better" if r["higher_is_better"] else "lower=better"
        bound = "" if r.get("tolerance") is None else \
            f", tolerance {r['tolerance']:.0%}"
        print(f"[{tag}] {r['bench'] + '.' + r['metric']:<{width}}  "
              f"baseline {r['baseline']:g}  measured {measured}  "
              f"({arrow}{bound})"
              + (f"  {r['status']}" if tag == "INFO" else ""))
    print(f"bench_gate: {'OK' if all_ok else 'REGRESSION'} "
          f"({sum(r['ok'] for r in results)}/{len(results)} metrics within "
          f"their tolerances), report -> {args.out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
