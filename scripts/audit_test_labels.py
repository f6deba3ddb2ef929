#!/usr/bin/env python3
"""CTest label audit: every registered test must carry a tier label.

The tier-1 gate runs `ctest -L tier1`; a test registered without a tier
label silently falls out of every CI lane. This walks the generated
CTestTestfile.cmake files under the build directory and fails if any
add_test() entry lacks a LABELS property containing tier1 or tier2.

Usage: scripts/audit_test_labels.py <build-dir>
"""

import os
import re
import sys

ADD_TEST = re.compile(r'add_test\(\s*(?:\[=*\[)?"?([A-Za-z0-9_.-]+)"?\]?')

# Binaries that must stay in the tier-1 lane specifically: they carry the
# overhead-governor contract suites (Governor*/ThreadedGovernor in
# test_core, TraceTiers in test_tau), the exact cache simulator that every
# traced counter rests on (test_hwc: AccessRun's batched runs bit-identical
# to the per-element loop, CacheVsReference's miss stream against a
# reference LRU, the CacheSim replacement and flush cases), the
# multi-tenant hub contract (session isolation, drop accounting, and the
# HubProperty stream-identity tests in test_telemetry_hub), and the LU
# session workload's correctness suite (test_lu_workload). A demotion to
# tier2 would silently drop those checks from the gate in check_tier1.sh.
REQUIRED_TIER1 = {"test_core", "test_tau", "test_hwc", "test_pattern",
                  "test_telemetry_hub", "test_lu_workload"}
PROPS = re.compile(
    r'set_tests_properties\(\s*(?:\[=*\[)?"?([A-Za-z0-9_.-]+)"?(?:\]=*\])?\s+'
    r"PROPERTIES\s+(.*?)\)\s*$",
    re.DOTALL | re.MULTILINE,
)


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    build_dir = sys.argv[1]

    tests = set()
    labels = {}
    found_any_file = False
    for root, _dirs, files in os.walk(build_dir):
        if "CTestTestfile.cmake" not in files:
            continue
        found_any_file = True
        text = open(os.path.join(root, "CTestTestfile.cmake")).read()
        for m in ADD_TEST.finditer(text):
            tests.add(m.group(1))
        for m in PROPS.finditer(text):
            name, props = m.group(1), m.group(2)
            lm = re.search(r'LABELS\s+"([^"]*)"', props)
            if lm:
                labels.setdefault(name, set()).update(lm.group(1).split(";"))

    if not found_any_file or not tests:
        print(f"label audit: no CTestTestfile.cmake under {build_dir} "
              "(configure the build first)", file=sys.stderr)
        return 2

    bad = sorted(t for t in tests
                 if not labels.get(t, set()) & {"tier1", "tier2"})
    for t in sorted(tests):
        tier = ",".join(sorted(labels.get(t, set()))) or "<none>"
        print(f"  {t:<28} labels: {tier}")
    if bad:
        print(f"label audit FAILED: {len(bad)} test(s) without a tier1/tier2 "
              f"label: {', '.join(bad)}")
        return 1
    demoted = sorted(t for t in REQUIRED_TIER1 & tests
                     if "tier1" not in labels.get(t, set()))
    if demoted:
        print(f"label audit FAILED: governor contract suite(s) not tier1: "
              f"{', '.join(demoted)}")
        return 1
    missing = sorted(REQUIRED_TIER1 - tests)
    if missing:
        print(f"label audit FAILED: required suite(s) not registered: "
              f"{', '.join(missing)}")
        return 1
    print(f"label audit: OK ({len(tests)} tests, all tiered; "
          f"governor suites pinned to tier1)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
