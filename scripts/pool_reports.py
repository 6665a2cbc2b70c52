#!/usr/bin/env python3
"""Write the outputs of the benchmark's compute, steinsanov and n-fold pools,
or compare two sets.

    PYTHONPATH=src python3 scripts/pool_reports.py OUT_DIR [--against REF_DIR]

Every variant of every cell of the benchmark's pools (``perfbench.workloads``,
read only) is run, and ``OUT_DIR/<cell>_v<variant>.json`` receives its exit
code and output: the ``compute`` report of each compute-mix spec, the
``steinsanov --eta-sweep`` rows of each steinsanov spec (at the benchmark's
n list), and the (n, lower, upper, exact) row of each n-fold table, exact NaN
when the types are too many.  With ``--against``, each output is compared
with the one of the same name in REF_DIR (a name REF_DIR lacks is counted
and skipped).  For a steinsanov or n-fold output, a changed exit code or row
count is an outcome flip, and every number is a value checked with
``close()``.  For a compute report:

* an outcome flip is a record that is a value on one side and an error on the
  other, a changed exit code or record list, a bound check whose verdict
  changed, or a closed form that agreed with its value in REF_DIR (within
  ``close()`` and the value's reported error) and no longer does; each is
  printed, and any makes the exit code 1;
* a changed method label or error message is printed, but is not a flip;
* over every number in matching records (values, closed forms, details,
  bound-check sides) the largest move is printed, scaled by max(1, |v|), and
  for the values by the larger reported ``numerical_error`` of the two sides,
  with how many values moved by more than 1, 3 and 10 times that error;
* the ``closed_form`` numbers get a line of their own: how many moved, and
  the largest move relative to |v|, so that a change to the closed forms
  alone shows at a glance whether it moved any value; then, for each side,
  the median and largest gap |value - closed form|, over all closed forms and
  over those that moved, and how many moved ones lie further from their value
  than its reported error;
* a value that moves further than the benchmark's reference check allows
  (``perfbench.workloads.close``, with the two reported errors summed) is
  printed, and any makes the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import sys
import tempfile
from typing import Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.workloads import (  # noqa: E402
    COMPUTE_CELLS, NFOLD_CELLS, STEIN_CELLS, STEIN_N_LIST, close, compute_spec, nfold_tables,
    parse_stein_csv, stein_spec)
from winfer import cli, testing  # noqa: E402
from winfer.cli import _json_default, compute_report  # noqa: E402
from winfer.core import Distribution, IntegrationConfig, WeightFunction  # noqa: E402
from winfer.divergence import HypothesisProblem  # noqa: E402
from winfer.errors import SchemaError, WinferError  # noqa: E402


def _compute(cell: str, v: int) -> dict:
    try:
        report, code = compute_report(compute_spec(cell, v))
    except SchemaError as exc:
        report, code = {"schema_error": str(exc)}, 1
    return {"exit_code": code, "report": report}


def _steinsanov(cell: str, v: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out.csv")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump(stein_spec(cell, v), fh)
        code = cli.main(["steinsanov", "--spec", spec, "--n-list", STEIN_N_LIST,
                         "--eta-sweep", "--method", cell.split("/")[1], "--out", out])
        rows = []
        if code == 0:
            with open(out, encoding="utf-8") as fh:
                rows = parse_stein_csv(fh.read())
    return {"exit_code": code, "rows": rows}


def _nfold(cell: str, v: int) -> dict:
    p, q, w, n = nfold_tables(cell, v)
    prob = HypothesisProblem(Distribution.from_pmf(p), Distribution.from_pmf(q),
                             WeightFunction.table(w))
    try:
        b = testing.nfold_error_bounds(testing.ProductProblem(prob, n), IntegrationConfig())
    except WinferError as exc:
        return {"exit_code": 2, "rows": [], "error": str(exc)}
    exact = math.nan if b.exact_inf is None else b.exact_inf
    return {"exit_code": 0, "rows": [[n, b.lower, b.upper, exact]]}


POOLS = ((COMPUTE_CELLS, _compute), (STEIN_CELLS, _steinsanov), (NFOLD_CELLS, _nfold))
# file-name prefixes of the outputs compared row by row, for the summary
ROW_POOLS = ("steinsanov_exact", "steinsanov_mc", "nfold")


def write_reports(out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    n = 0
    for cells, run in POOLS:
        for cell, (size, _) in cells.items():
            for v in range(size):
                path = os.path.join(out_dir, f"{cell.replace('/', '_')}_v{v}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(run(cell, v), fh, sort_keys=True, indent=1, allow_nan=True,
                              default=_json_default)
                n += 1
    return n


def _numbers(obj, path=""):
    """(path, number) for every numeric leaf of a JSON object."""
    if isinstance(obj, dict):
        for k in sorted(obj):
            yield from _numbers(obj[k], f"{path}.{k}")
    elif isinstance(obj, list):
        for i, x in enumerate(obj):
            yield from _numbers(x, f"{path}[{i}]")
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield path, float(obj)


def _moved(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare_rows(new: dict, ref: dict, name: str) -> tuple:
    """compare() of a steinsanov or n-fold output: every number is a value
    with no reported error."""
    flips, moves, beyond = [], [], []
    if new["exit_code"] != ref["exit_code"]:
        flips.append(f"exit {ref['exit_code']} -> {new['exit_code']}")
    if len(new["rows"]) != len(ref["rows"]):
        return flips + ["row count changed"], moves, [], beyond
    for i, (ra, rb) in enumerate(zip(new["rows"], ref["rows"])):
        for j, (a, b) in enumerate(zip(ra, rb)):
            moves.append((_moved(a, b) / max(1.0, abs(b)), f"{name} row {i} column {j}"))
            if moves[-1][0] > 0 and not close(a, b):
                beyond.append(f"row {i} column {j}: {b!r} -> {a!r}")
    return flips, moves, [], beyond


def _cross_check(rec: dict) -> Optional[tuple]:
    """(|value - closed form|, reported error, whether ``close()`` holds) of a
    record with a value and a closed form, else None."""
    if "value" not in rec or "closed_form" not in rec:
        return None
    value, cf, err = rec["value"], rec["closed_form"]["value"], rec.get("numerical_error", 0.0)
    return _moved(value, cf), err, close(value, cf, err)


def compare(new: dict, ref: dict, name: str, notes: list, closed: list) -> tuple:
    """(flips, [(scaled move, where)], [(move over error, where)], [values
    moved beyond ``close``]) of one output; each closed-form number's
    (relative move, where) is appended to ``closed``, with the
    ``_cross_check`` of its record on each side."""
    if "rows" in new:
        return compare_rows(new, ref, name)
    flips, moves, err_moves, beyond = [], [], [], []
    if new["exit_code"] != ref["exit_code"]:
        flips.append(f"exit {ref['exit_code']} -> {new['exit_code']}")
    rn, rr = new["report"].get("quantities", []), ref["report"].get("quantities", [])
    if [r["name"] for r in rn] != [r["name"] for r in rr] \
            or ("schema_error" in new["report"]) != ("schema_error" in ref["report"]):
        return flips + ["record list changed"], moves, err_moves, beyond
    for a, b in zip(rn, rr):
        where = f"{name} {a['name']}"
        if ("error" in a) != ("error" in b):
            flips.append(f"{a['name']}: {'error' if 'error' in b else 'value'} -> "
                         f"{'error' if 'error' in a else 'value'}")
            continue
        if a.get("error") != b.get("error"):
            notes.append(f"{where}: message {b['error']!r} -> {a['error']!r}")
        if a.get("method") != b.get("method"):
            notes.append(f"{where}: method {b.get('method')} -> {a.get('method')}")
        if "value" in a:
            d = _moved(a["value"], b["value"])
            e = max(a.get("numerical_error", 0.0), b.get("numerical_error", 0.0))
            err_moves.append(((d / e if e > 0 else math.inf) if d > 0 else 0.0, where))
            if d > 0:
                if not close(a["value"], b["value"], a.get("numerical_error", 0.0)
                             + b.get("numerical_error", 0.0)):
                    beyond.append(f"{a['name']}: {b['value']!r} -> {a['value']!r}")
        for (pa, va), (pb, vb) in zip(_numbers(a), _numbers(b)):
            if pa != pb:
                flips.append(f"{a['name']}: fields changed")
                break
            moves.append((_moved(va, vb) / max(1.0, abs(vb)), where + pa))
            if pa == ".closed_form.value":
                d = _moved(va, vb)
                rel = 0.0 if d == 0 else (d / abs(vb) if vb else math.inf)
                ref_check, new_check = _cross_check(b), _cross_check(a)
                closed.append((rel, where + pa, ref_check, new_check))
                if ref_check and ref_check[2] and not new_check[2]:
                    flips.append(f"{a['name']}: the closed form {vb!r} -> {va!r} no longer "
                                 f"agrees with its value {a['value']!r}")
    ba, bb = new["report"].get("bound_checks", []), ref["report"].get("bound_checks", [])
    if [(c["check"], c["passed"]) for c in ba] != [(c["check"], c["passed"]) for c in bb]:
        flips.append("bound checks changed")
    else:
        for ca, cb in zip(ba, bb):
            for side in ("lhs", "rhs"):
                moves.append((_moved(ca[side], cb[side]) / max(1.0, abs(cb[side])),
                              f"{name} bound {ca['check']} {side}"))
    return flips, moves, err_moves, beyond


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir")
    ap.add_argument("--against", metavar="REF_DIR")
    args = ap.parse_args()
    n = write_reports(args.out_dir)
    print(f"{n} reports written to {args.out_dir}")
    if not args.against:
        return 0
    n_flips, n_beyond, notes, moves, err_moves, closed, unmatched = 0, 0, [], [], [], [], 0
    for fname in sorted(os.listdir(args.out_dir)):
        with open(os.path.join(args.out_dir, fname), encoding="utf-8") as fh:
            new = json.load(fh)
        if not os.path.exists(os.path.join(args.against, fname)):
            unmatched += 1
            continue
        with open(os.path.join(args.against, fname), encoding="utf-8") as fh:
            ref = json.load(fh)
        flips, m, em, beyond = compare(new, ref, fname[:-len(".json")], notes, closed)
        for f in flips:
            print(f"FLIP {fname}: {f}")
        for b in beyond:
            print(f"BEYOND {fname}: {b}")
        n_flips += len(flips)
        n_beyond += len(beyond)
        moves += m
        err_moves += em
    for note in notes:
        print(f"note {note}")
    if unmatched:
        print(f"outputs not in {args.against}, skipped: {unmatched}")
    print(f"outcome flips: {n_flips}")
    print(f"values moved beyond the benchmark's check: {n_beyond}")
    by_pool = {}
    for m in moves:
        pool = next((p for p in ROW_POOLS if m[1].startswith(p)), "compute")
        by_pool.setdefault(pool, []).append(m)
    for pool, mine in sorted(by_pool.items()):
        moved = [m for m in mine if m[0] > 0]
        print(f"{pool}: numbers compared: {len(mine)}, moved: {len(moved)}")
        if moved:
            print("  largest move / max(1, |v|): %.3g at %s" % max(moved))
    moved = [m for m in closed if m[0] > 0]
    print(f"closed forms compared: {len(closed)}, moved: {len(moved)}"
          + (", largest move / |v|: %.3g at %s" % max(moved)[:2] if moved else ""))
    for side, i in (("REF", 2), ("new", 3)):
        gaps = [m[i][0] for m in closed if m[i]]
        moved_gaps = [m[i] for m in moved if m[i]]
        if gaps:
            line = "closed-form gap |value - closed form|, %s: median %.3g, largest %.3g" % (
                side, statistics.median(gaps), max(gaps))
            if moved_gaps:
                line += "; of the moved: median %.3g, above the reported error: %d" % (
                    statistics.median([g for g, _, _ in moved_gaps]),
                    sum(g > e for g, e, _ in moved_gaps))
            print(line)
    finite = [m for m in err_moves if math.isfinite(m[0])]
    if finite:
        print("largest value move / reported error: %.3g at %s" % max(finite))
    print(f"values compared: {len(err_moves)}, moved: {sum(m[0] > 0 for m in err_moves)}, by "
          "more than 1x, 3x and 10x the larger reported error: "
          + ", ".join(str(sum(m[0] > k for m in err_moves)) for k in (1, 3, 10)))
    unscaled = len(err_moves) - len(finite)
    if unscaled:
        print(f"values that moved with a reported error of 0: {unscaled}")
    return 1 if n_flips or n_beyond else 0


if __name__ == "__main__":
    sys.exit(main())
