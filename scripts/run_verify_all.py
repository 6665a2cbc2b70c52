#!/usr/bin/env python3
"""Run every verification suite at desk scale and print one line per suite.

    PYTHONPATH=src python3 scripts/run_verify_all.py [--seed S] [--scale X]
        [--json DIR] [--against REF_DIR]

``--json`` writes each suite's report (``SuiteReport.to_dict()``, keys
sorted) to ``DIR/<suite>.json``.  ``--against`` compares each report with the
one of the same name in REF_DIR, as written by ``--json``: it prints every
number that moved, the largest relative move per suite, and any change in
``passed``, ``instances`` or ``hypothesis_failures``.  The comparison only
prints; the exit code is 1 iff a suite failed.
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


def compare(name: str, got: dict, ref: dict) -> None:
    """Print what moved from the reference report ``ref`` to ``got``."""
    from pool_reports import _moved, _numbers  # flattens JSON as the pool comparison does

    for key in _COUNTS:
        if got.get(key) != ref.get(key):
            print(f"    {name}: {key} {ref.get(key)!r} -> {got.get(key)!r}")
    new, old = dict(_numbers(got)), dict(_numbers(ref))
    worst = 0.0
    for path in sorted(new.keys() | old.keys()):
        if path.lstrip(".") in _COUNTS:
            continue
        a, b = old.get(path), new.get(path)
        if a is None or b is None:
            print(f"    {name}: {path} {'removed' if b is None else 'added'}: {a if b is None else b!r}")
        elif move := _moved(a, b):
            rel = move / max(abs(a), abs(b)) if math.isfinite(move) else math.inf
            worst = max(worst, rel)
            print(f"    {name}: {path} {a!r} -> {b!r} (relative {rel:.3g})")
    print(f"    {name}: largest relative move {worst:.3g}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on the per-suite instance counts")
    ap.add_argument("--json", metavar="DIR", help="write each suite's report to DIR/<suite>.json")
    ap.add_argument("--against", metavar="REF_DIR",
                    help="print what moved from the reports in REF_DIR (print only)")
    args = ap.parse_args()
    if args.json:
        os.makedirs(args.json, exist_ok=True)

    failures = 0
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
                    compare(name, report, json.load(fh))
            else:
                print(f"    {name}: no reference report in {args.against}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
