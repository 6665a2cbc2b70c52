#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Runs ``run.py`` once per workload and seed, one after another, with the
settings BENCHMARK.json fixes.  For every end-to-end metric it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``), the spread
(quartile distance over median) and whether the spread is within a third of
the metric's bound.  ``--out`` writes the summary, with the printed but
ungated metrics (ok_items_per_s, item_ms_p50, item_ms_p90, fail_frac) and
the failing items of each workload, as the committed baseline.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable if bench["command"][0] == "python3" else bench["command"][0],
           *bench["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    result["failed_items"] = [ln for ln in lines if ln.startswith("failed ")]
    result["printed"] = {ln.split()[1]: float(ln.split()[2]) for ln in lines
                         if ln.startswith("metric ") and ln.split()[1] not in result["metrics"]}
    result["seed"] = seed
    result["environment"] = next((ln[2:] for ln in lines if ln.startswith("# python ")), "")
    return result


def summarise(values: list) -> dict:
    non_finite = sum(not math.isfinite(v) for v in values)
    if non_finite:   # item_ms_p90 is +inf when more than a tenth of the items fail
        return {"n": len(values), "non_finite": non_finite}
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else None}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    seeds = parse_seeds(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    summary = {}
    ok = True
    for w in bench["workloads"]:
        if w["name"] not in names:
            continue
        runs = []
        for seed in seeds:
            r = run_once(bench, w["name"], seed, args.trace)
            runs.append(r)
            print(f"{w['name']} seed {seed}: wall {r['wall_s']:.1f} s, correct {r['correct']}, "
                  f"failed {r['failed']}/{r['attempted']}, " + ", ".join(
                      f"{k} {v['value']:.5g}" for k, v in r["metrics"].items()
                      if not args.trace), flush=True)
        entry = {"why": w["why"], "seeds": seeds, "metrics": {},
                 "environment": sorted({r["environment"] for r in runs}),
                 "correct": all(r["correct"] for r in runs),
                 "attempted_per_run": [r["attempted"] for r in runs],
                 "failed_per_run": [r["failed"] for r in runs],
                 "failing_items": sorted({re.sub(r" x\d+ ", " ", ln)
                                          for r in runs for ln in r["failed_items"]}),
                 "wall_s_max": max(r["wall_s"] for r in runs)}
        if len(runs) > 1:
            entry["printed_not_gated"] = {
                name: summarise([r["printed"][name] for r in runs])
                for name in runs[0]["printed"] if all(name in r["printed"] for r in runs)}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            if len(vals) < 2:
                continue
            s = summarise(vals)
            s["unit"] = m["unit"]
            if "bound" in m:
                s["bound"] = m["bound"]
                s["within_third_of_bound"] = s["spread"] < m["bound"] / 3.0
                ok &= s["within_third_of_bound"]
            entry["metrics"][m["name"]] = s
            if s["spread"] is not None:
                print(f"  {m['name']:<32} median {s['median']:.5g} {m['unit']}  "
                      f"q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  spread {s['spread']:.4f}"
                      + (f"  bound {m['bound']}" if "bound" in m else ""), flush=True)
        summary[w["name"]] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"run_seconds": bench["run_seconds"], "workloads": summary}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    print("spreads within a third of their bounds: " + ("yes" if ok else "NO"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
