#!/usr/bin/env python3
"""Run every verification suite at desk scale and print one line per suite.

    PYTHONPATH=src python3 scripts/run_verify_all.py [--seed S] [--scale X]
        [--json DIR] [--against REF_DIR]

``--json`` writes each suite's report (``SuiteReport.to_dict()``, keys
sorted) to ``DIR/<suite>.json``.  ``--against`` compares each report with the
one of the same name in REF_DIR, as written by ``--json``: it prints every
number that moved, the largest relative move per suite, and any change in
``passed``, ``instances``, ``hypothesis_failures`` or the violation count.
The exit code is 1 if a suite failed, or, with ``--against``, if one of those
counts changed, a number appeared or went, or a number moved further than the
benchmark's reference check allows (``perfbench.workloads.close``,
1e-6 max(1, |ref|)).
"""

import argparse
import json
import math
import os
import sys
import time

from winfer.verify import SUITES, run_suite

SCALES = {
    "tv-oracle": 500,
    "chain": 2000,
    "pinsker": 1000,
    "bretagnolle-huber": 1000,
    "nfold": 50,
    "bregman-kl": 200,
    "kl-expansion": 10,
    "expfam-golden": 0,
}
_COUNTS = ("passed", "instances", "hypothesis_failures")


def compare(name: str, got: dict, ref: dict) -> int:
    """Print what moved from the reference report ``ref`` to ``got``; return
    how many changes fail the guard (see the module docstring)."""
    from pool_reports import _moved, _numbers, close  # flattens JSON as the pool comparison does

    changes = 0
    counts = {key: (ref.get(key), got.get(key)) for key in _COUNTS}
    counts["violations"] = (len(ref.get("violations", ())), len(got.get("violations", ())))
    for key, (a, b) in counts.items():
        if a != b:
            changes += 1
            print(f"    {name}: {key} {a!r} -> {b!r}")
    new, old = dict(_numbers(got)), dict(_numbers(ref))
    worst = 0.0
    for path in sorted(new.keys() | old.keys()):
        if path.lstrip(".") in _COUNTS:
            continue
        a, b = old.get(path), new.get(path)
        if a is None or b is None:
            changes += 1
            print(f"    {name}: {path} {'removed' if b is None else 'added'}: {a if b is None else b!r}")
        elif move := _moved(a, b):
            rel = move / max(abs(a), abs(b)) if math.isfinite(move) else math.inf
            worst = max(worst, rel)
            beyond = not close(b, a)
            changes += beyond
            print(f"    {name}: {path} {a!r} -> {b!r} (relative {rel:.3g})"
                  + (" beyond close()" if beyond else ""))
    print(f"    {name}: largest relative move {worst:.3g}")
    return changes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the per-suite instance counts")
    ap.add_argument("--json", metavar="DIR", help="write each suite's report to DIR/<suite>.json")
    ap.add_argument("--against", metavar="REF_DIR",
                    help="print what moved from the reports in REF_DIR; exit 1 on a change")
    args = ap.parse_args()
    if args.json:
        os.makedirs(args.json, exist_ok=True)

    failures = changes = 0
    for name in SUITES:
        n = int(SCALES[name] * args.scale)
        t0 = time.time()
        rep = run_suite(name, n, args.seed)
        status = "PASS" if rep.passed else "FAIL"
        print(f"{status} {name:<20} instances={rep.instances:<6} "
              f"violations={len(rep.violations):<3} "
              f"hypothesis_failures={rep.hypothesis_failures:<4} "
              f"({time.time() - t0:.1f}s) {rep.margins}")
        if not rep.passed:
            failures += 1
            for v in rep.violations[:5]:
                print("    ", v)
        report = json.loads(json.dumps(rep.to_dict(), sort_keys=True))
        if args.json:
            with open(os.path.join(args.json, f"{name}.json"), "w") as fh:
                json.dump(report, fh, sort_keys=True, indent=1)
        if args.against:
            path = os.path.join(args.against, f"{name}.json")
            if os.path.exists(path):
                with open(path) as fh:
                    changes += compare(name, report, json.load(fh))
            else:
                print(f"    {name}: no reference report in {args.against}")
    if args.against:
        print(f"changes against {args.against}: {changes}")
    return 1 if failures or changes else 0


if __name__ == "__main__":
    sys.exit(main())
