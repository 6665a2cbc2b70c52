#!/usr/bin/env python3
"""Self-test of the trace.

    python3 perfbench/selftest.py

1. Reference counts: a traced gamma(2,1)/gamma(3,1.5) absolute-weight compute
   report (every quantity, alpha grid 0.3/0.5/0.8) makes 59 integrations over
   20,370 integrand points and 26 weight-mass calls on 2 distinct inputs; a
   traced ``cramer-rao --van-trees`` mean run (scripts/run_cramer_rao.py)
   makes 379 integrations over 90,960 points.  These counts were measured
   at the commit that defined the benchmark; a change that removes
   evaluations changes them on purpose.
2. Two traced passes of the compute-mix and nfold-steinsanov plans (seed 0)
   give identical counts.
3. Traced outputs are byte-identical to untraced outputs.

Exits 0 when every check passes.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
import workloads as wl
from tracer import COUNT_METRICS, Tracer

REFERENCE_COUNTS = {
    "gamma-absolute-report": {"core.integrate.calls": 59, "core.integrate.points": 20370,
                              "divergence.weight_mass.calls": 26,
                              "divergence.weight_mass.repeat_frac": 1.0 - 2.0 / 26.0},
    "cramer-rao-vantrees-mean": {"core.integrate.calls": 379,
                                 "core.integrate.points": 90960},
}


def traced(items: list) -> tuple:
    """Run items once traced; returns (count metrics, output digests)."""
    tracer = Tracer()
    tracer.patch()
    try:
        outs = [run.run_item(item, i, tracer) for i, item in enumerate(items)]
    finally:
        tracer.unpatch()
    metrics = tracer.metrics()
    return {k: metrics[k] for k in COUNT_METRICS}, [o["digest"] for o in outs]


def reference_items(workdir: str) -> dict:
    spec = {"schema": 1, "seed": 0, "weight": {"kind": "absolute"},
            "distributions": [{"family": "gamma", "params": {"lam": 2.0, "beta": 1.0}},
                              {"family": "gamma", "params": {"lam": 3.0, "beta": 1.5}}],
            "quantities": list(wl.QUANTITIES), "alpha_grid": list(wl.ALPHA_GRID)}
    spec_path = os.path.join(workdir, "gamma.spec.json")
    wl._write_json(spec_path, spec)
    return {
        "gamma-absolute-report": wl._cli_item(
            "gamma-absolute-report", ["compute", spec_path, "--reproducible"], workdir,
            wl.check_compute, {}),
        "cramer-rao-vantrees-mean": wl._cli_item(
            "cramer-rao-vantrees-mean",
            wl.cr_argv("cramer-rao/shift-mean-vantrees", 42) + ["--reproducible"], workdir,
            wl.check_cramer_rao, {}),
    }


def main() -> int:
    run._import_winfer()
    workdir = os.path.join(run.WORK, f"selftest-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    failures = []
    try:
        for name, item in reference_items(workdir).items():
            counts, _ = traced([item])
            for metric, want in REFERENCE_COUNTS[name].items():
                got = counts[metric]
                ok = abs(got - want) <= 1e-12
                print(f"{'PASS' if ok else 'FAIL'} {name} {metric} = {got:g} (reference {want:g})")
                if not ok:
                    failures.append(f"{name} {metric}")
        for workload in ("compute-mix", "nfold-steinsanov"):
            plan = wl.make_plan(workload, 0, workdir)
            plain = [run.run_item(item, i)["digest"] for i, item in enumerate(plan.items)]
            first, digests1 = traced(plan.items)
            second, digests2 = traced(plan.items)
            same = first == second
            print(f"{'PASS' if same else 'FAIL'} {workload}: two traced passes give "
                  f"identical counts ({len(first)} counters)")
            if not same:
                failures.append(f"{workload} counts differ: " + ", ".join(
                    k for k in first if first[k] != second[k]))
            identical = plain == digests1 == digests2
            print(f"{'PASS' if identical else 'FAIL'} {workload}: traced outputs are "
                  f"byte-identical to untraced outputs ({len(plain)} items)")
            if not identical:
                failures.append(f"{workload} outputs differ under tracing")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"failed: {f}")
    print("selftest: " + ("PASS" if not failures else "FAIL"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
