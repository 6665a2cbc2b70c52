#!/usr/bin/env python3
"""Weighted Cramer-Rao experiment on the Gaussian shift and scale families.

The sample mean attains the version-A bound exactly under the exponential
weight; the bias-corrected mean sits strictly between the version-A bound and
the mean's equality value.  Also runs the van Trees versions A and C, the
version-A row of sqrt(pi/2) mean |x| on the Gaussian scale family at theta = 1,
and the scale family's mean there with its van Trees rows (prior variance
0.005, which keeps every prior node in theta > 0).

Prints each report; exits 1 if any bound row fails its 3-sigma check
(``passed_3sigma`` false), if a row that carries the closed-form ``lhs_exact``
has its Monte Carlo ``lhs`` more than 3 ``lhs_stderr`` away from it, or if its
deterministic ``rhs`` exceeds ``lhs_exact`` by more than 1e-9 relative (the
mean's version A row is the equality case), if rows A and B of one run report
different ``lhs`` or ``lhs_stderr`` (they bound the same quantity on one draw),
and with the CLI's code if a run fails.
"""

import contextlib
import io
import json
import sys

from winfer.cli import main as winfer_main


def main() -> int:
    shared = ["--phi-gamma", "0.5", "--n", "5", "--trials", "1000000", "--seed", "42",
              "--reproducible"]
    shift = ["cramer-rao", "--family", "gaussian-shift", "--theta", "0.0", "--sigma", "1.0",
             "--van-trees", "--prior-var", "1.0"] + shared
    scale = ["cramer-rao", "--family", "gaussian-scale", "--theta", "1"] + shared
    runs = {"mean": shift + ["--estimator", "mean"],
            "shifted-mean": shift + ["--estimator", "shifted-mean"],
            "scale-abs-mean": scale + ["--estimator", "scale-abs-mean"],
            "scale-mean": scale + ["--estimator", "mean", "--van-trees", "--prior-var", "0.005"]}
    failed = 0
    for est, args in runs.items():
        print(f"# estimator = {est}")
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = winfer_main(args)
        sys.stdout.write(text.getvalue())
        if code:
            return code
        rows = json.loads(text.getvalue())["bounds"]
        if len({(row["lhs"], row["lhs_stderr"]) for row in rows
                if row["version"] in ("A", "B")}) > 1:
            print(f"FAIL: {est} rows A and B report different lhs", file=sys.stderr)
            failed = 1
        for row in rows:
            if not row["passed_3sigma"]:
                print(f"FAIL: {est} {row['version']} fails at 3 sigma", file=sys.stderr)
                failed = 1
            if "lhs_exact" in row and \
                    abs(row["lhs"] - row["lhs_exact"]) > 3 * row["lhs_stderr"]:
                print(f"FAIL: {est} {row['version']} lhs is more than 3 sigma from "
                      f"lhs_exact", file=sys.stderr)
                failed = 1
            if "lhs_exact" in row and \
                    row["rhs"] - row["lhs_exact"] > 1e-9 * abs(row["lhs_exact"]):
                print(f"FAIL: {est} {row['version']} rhs exceeds lhs_exact",
                      file=sys.stderr)
                failed = 1
    return failed


if __name__ == "__main__":
    sys.exit(main())
