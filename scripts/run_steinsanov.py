#!/usr/bin/env python3
"""Type-II exponent experiment: empirical window-rule rates vs the limit.

Prints the CSVs emitted by `winfer steinsanov` for a weighted binary instance
and a plain one: the exact rates at eta = 0.05 over n in {25, 50, 100, 200},
then the Monte Carlo rates over the eta sweep, drawn at the spec's seed, over
n in {50, 100, 200}.  The sweep starts at n = 50 because the plain instance's
z_bar moves in steps of ln(3)/n, wider than the eta = 0.02 window at n = 25,
which therefore holds no type.  Exits with the first nonzero exit code.
"""

import json
import sys
import tempfile

from winfer.cli import main as winfer_main

WEIGHTED = {
    "schema": 1,
    "seed": 1,
    "distributions": [{"pmf": [0.5, 0.5]}, {"pmf": [0.25, 0.75]}],
    "weight": {"kind": "table", "values": [2.0, 1.0]},
    "quantities": ["stein-sanov-limit"],
}
PLAIN = dict(WEIGHTED, weight={"kind": "constant", "c": 1.0})
RUNS = (("exact", ["--n-list", "25,50,100,200", "--eta", "0.05", "--method", "exact"]),
        ("mc eta-sweep", ["--n-list", "50,100,200", "--eta-sweep", "--method", "mc"]))


def main() -> int:
    for label, spec in (("weighted", WEIGHTED), ("plain", PLAIN)):
        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(spec, fh)
            path = fh.name
        for run, extra in RUNS:
            print(f"# {label}, {run}")
            code = winfer_main(["steinsanov", "--spec", path] + extra)
            if code:
                return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
