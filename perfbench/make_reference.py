#!/usr/bin/env python3
"""Regenerate the committed reference files in perfbench/reference/.

    python3 perfbench/make_reference.py [--workload NAME]

Runs every pool variant a seed can pick, through the same items and checks
as run.py, and records its outputs and the problems it has (the known
defects).  Run it at the commit that defines the benchmark: the reference
files are what later commits are checked against.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import run
import workloads as wl


def _reference(item, make_ref) -> dict:
    """Run one item, turn its output into a reference, and record the
    problems the item has against that reference."""
    outcome = run.run_item(item, 0)
    ref = make_ref(outcome)
    item.ref = ref
    ref["expected_problems"] = sorted(item.check(outcome, item))
    if outcome["traceback"]:
        sys.stderr.write(f"{item.key}:\n{outcome['traceback']}")
    return ref


def compute_refs(workdir: str) -> dict:
    refs = {}
    for cell, (size, _) in wl.COMPUTE_CELLS.items():
        for v in range(size):
            key = f"{cell}/v{v}"
            spec = wl.compute_spec(cell, v)
            spec_path = os.path.join(workdir, "spec.json")
            wl._write_json(spec_path, spec)
            item = wl._cli_item(key, ["compute", spec_path, "--reproducible"], workdir,
                                wl.check_compute, {})

            def make_ref(outcome, spec=spec):
                recs = json.loads(outcome["text"])["quantities"] if outcome["text"] else []
                return {"config_hash": wl.config_hash(spec),
                        "values": {r["name"]: [r["value"], r["numerical_error"]]
                                   for r in recs if "error" not in r},
                        "failed_records": sorted(r["name"] for r in recs if "error" in r)}
            refs[key] = _reference(item, make_ref)
    return refs


def nfold_steinsanov_refs(workdir: str) -> dict:
    from winfer import core, divergence, testing
    refs = {}
    for cell, (size, _) in wl.NFOLD_CELLS.items():
        for v in range(size):
            p, q, w, n = wl.nfold_tables(cell, v)
            prob = divergence.HypothesisProblem(core.Distribution.from_pmf(p),
                                                core.Distribution.from_pmf(q),
                                                core.WeightFunction.table(w))
            item = wl.Item(key=f"{cell}/v{v}", check=wl.check_nfold,
                           call=lambda prob=prob, n=n: wl.nfold_row(testing.nfold_error_bounds(
                               testing.ProductProblem(prob, n), core.IntegrationConfig())))
            refs[item.key] = _reference(item, lambda o: {"row": o["value"]})
    for cell, (size, _) in wl.STEIN_CELLS.items():
        for v in range(size):
            spec = wl.stein_spec(cell, v)
            spec_path = os.path.join(workdir, "spec.json")
            wl._write_json(spec_path, spec)
            item = wl._cli_item(f"{cell}/v{v}",
                                ["steinsanov", "--spec", spec_path, "--n-list", wl.STEIN_N_LIST,
                                 "--eta-sweep", "--method", cell.split("/")[1]],
                                workdir, wl.check_stein, {}, suffix="csv")
            item.config_hash = wl.config_hash(spec)
            refs[item.key] = _reference(
                item, lambda o, h=item.config_hash: {
                    "config_hash": h,
                    "rows": wl.parse_stein_csv(o["text"]) if o["text"] else []})
    return refs


def cramer_rao_refs(workdir: str) -> dict:
    refs = {}
    for key in wl.CR_ITEMS:
        item = wl._cli_item(key, wl.cr_argv(key, 42) + ["--reproducible"], workdir,
                            wl.check_cramer_rao, {})

        def make_ref(outcome, key=key):
            if key not in wl.CR_DETERMINISTIC_RHS or not outcome["text"]:
                return {"rhs": {}}
            rows = json.loads(outcome["text"])["bounds"]
            return {"rhs": {r["version"]: r["rhs"] for r in rows}}
        refs[key] = _reference(item, make_ref)
    return refs


REFERENCE_MAKERS = {"compute-mix": compute_refs, "nfold-steinsanov": nfold_steinsanov_refs,
            "cramer-rao": cramer_rao_refs}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(REFERENCE_MAKERS), action="append")
    args = ap.parse_args()
    run._import_winfer()
    os.makedirs(wl.REFERENCE_DIR, exist_ok=True)
    workdir = os.path.join(run.WORK, f"reference-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        for name in args.workload or sorted(REFERENCE_MAKERS):
            t0 = time.perf_counter()
            items = REFERENCE_MAKERS[name](workdir)
            doc = {"workload": name, "commit": run._git_commit(), "rel_tol": wl.REL_TOL,
                   "items": items}
            path = os.path.join(wl.REFERENCE_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=0, sort_keys=True)
                fh.write("\n")
            known = {k: v["expected_problems"] for k, v in items.items()
                     if v["expected_problems"]}
            print(f"{name}: {len(items)} inputs, {len(known)} with known problems, "
                  f"{time.perf_counter() - t0:.1f} s -> {path}")
            for k, probs in known.items():
                print(f"  {k}: {'; '.join(probs)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
