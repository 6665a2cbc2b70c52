"""The four benchmark workloads: seeded inputs, items, and output checks.

An item is one user-level call: one in-process ``winfer.cli.main([...])`` run
for compute, verify, cramer-rao and steinsanov, and one
``nfold_error_bounds(ProductProblem(prob, n), cfg)`` call for the n-fold part
(no CLI subcommand exists for it).  A pass is the ordered list of a run's
items; a run repeats its pass, so every latency sample comes from inputs that
``--seed`` fixed.

Inputs are drawn with the standard library's ``random`` (its streams do not
change between numpy releases), from a fixed pool of variants per cell; the
seed picks the variants of every cell for the pass (one for most cells, all
of them for the compute-mix cells in ``MIXED_CELLS``).  Every input a seed can
pick therefore has reference values committed in ``reference/``, generated
by ``make_reference.py`` at the commit that defined the benchmark.  Cells fix
what a pass's cost depends on most (the anchor problem of compute-mix, m and
n of the n-fold part), which keeps the cost of a pass steady across seeds.

Each check returns a list of problem strings; an item with problems failed.
The reference file also records the problems each input had at the defining
commit (the known defects: gamma pairs of small shape fail to integrate, the
Renyi-entropy closed form disagrees with quadrature for exponential weights
close to the tilted decay rate, gaussian-scale crashes at CLI defaults).  A
failure whose problems are all recorded there is known; any other failure, a
wrong value in particular, makes the run incorrect.  So does a value where the
defining commit had an error record and the report gives no closed form to
check it against ("unchecked value"): a change that fixes a known defect must
commit reference values for what it now computes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")

# Values agree when |value - ref| <= REL_TOL * max(1, |ref|) plus twice the
# numerical errors both sides report.
REL_TOL = 1e-6

QUANTITIES = ("tv", "delta", "hellinger", "bhattacharyya-coeff",
              "bhattacharyya-div", "kl", "chernoff-coeff", "chernoff-div",
              "renyi-div", "tsallis-div", "shannon-entropy", "renyi-entropy",
              "min-total-error", "stein-sanov-limit", "error-bounds")
ALPHA_GRID = [0.3, 0.5, 0.8]

# half the desk scale of scripts/run_verify_all.py (nfold keeps its three
# n = 20 tables, which need 30 instances), at its default seed; a pass then
# fits several times in a run
VERIFY_SCALES = (("tv-oracle", 250), ("chain", 1000), ("pinsker", 500),
                 ("bretagnolle-huber", 500), ("nfold", 30), ("bregman-kl", 100),
                 ("kl-expansion", 6), ("expfam-golden", 0))
VERIFY_SEED = 0

WHY = {
    "compute-mix": "winfer compute over every support kind: quadrature, series, "
                   "Gauss-Hermite and density evaluation; no enumeration, no Monte Carlo",
    "verify-sweep": "every winfer verify suite at half desk scale and seed 0: thousands "
                    "of tiny finite problems, a continuous share, Kronecker n-fold, "
                    "expfam-golden",
    "cramer-rao": "winfer cramer-rao runs: Monte Carlo chunks plus hundreds of "
                  "small integrations at distinct theta; the estimation layer",
    "nfold-steinsanov": "exact n-fold bounds (m^n Kronecker tables) and steinsanov "
                        "sweeps: enumeration only, memory grows as m^n",
}
WORKLOADS = tuple(WHY)


@dataclass
class Item:
    key: str                          # pool key; stable across seeds
    argv: Optional[list] = None       # CLI item: arguments for winfer.cli.main
    out: Optional[str] = None         # CLI item: its --out file
    call: Optional[Callable] = None   # library item: the call to time
    check: Callable = None            # (output, item) -> list of problems
    ref: Optional[dict] = None        # committed reference for this key
    expected: frozenset = frozenset()  # problems recorded at the defining commit
    config_hash: str = ""             # hash of the spec file, where there is one


@dataclass
class Plan:
    items: list
    warmup: Item
    inputs: dict = field(default_factory=dict)   # what the seed chose, for the header


# ---------------------------------------------------------------------------
# seeded draws (standard library only)
# ---------------------------------------------------------------------------

def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _loguniform(r: random.Random, lo: float, hi: float) -> float:
    return math.exp(r.uniform(math.log(lo), math.log(hi)))


def _dirichlet(r: random.Random, m: int) -> list:
    e = [r.expovariate(1.0) for _ in range(m)]
    s = sum(e)
    return [v / s for v in e]


def _pick(seed: int, cell: str, size: int, count: int) -> list:
    """The variants of one cell that this seed puts in the pass."""
    return sorted(_rng("pick", seed, cell).sample(range(size), count))


# ---------------------------------------------------------------------------
# compute-mix pool
# ---------------------------------------------------------------------------

_SCALAR_WEIGHTS = ("exponential", "absolute", "quadratic")
_GAMMA_BANDS = 4   # p-shape log-uniform on [0.3, 3], one anchor per quarter-decade band
_VARIANTS = 5      # jittered variants per anchor
JITTER = 0.05      # variants scale each parameter by exp(U(-JITTER, JITTER))

# One cell per anchor problem; every pass holds every anchor, in one of its
# variants.  Anchors are broad seeded draws; the seed only jitters them, so
# the cost of a pass (which varies a hundredfold between anchors) stays put.
# Five anchors per scalar family and weight, and four cheap pmf anchors per
# alphabet size, put the median latency inside a dense group of similar items
# (the exponential pairs), so it does not jump between anchor groups.
COMPUTE_CELLS = {}
for _fam in ("gaussian-scalar", "exponential", "poisson"):
    for _w in _SCALAR_WEIGHTS:
        for _a in range(5):
            COMPUTE_CELLS[f"{_fam}/{_w}/a{_a}"] = (_VARIANTS, 1)
for _w in _SCALAR_WEIGHTS:
    for _b in range(_GAMMA_BANDS):
        COMPUTE_CELLS[f"gamma/{_w}/shape{_b}"] = (_VARIANTS, 1)
for _fam in ("mv-d2", "mv-d3"):
    for _a in range(2):
        COMPUTE_CELLS[f"{_fam}/a{_a}"] = (_VARIANTS, 1)
for _fam in ("pmf-m8", "pmf-m64", "pmf-m1024"):
    for _a in range(4):
        COMPUTE_CELLS[f"{_fam}/a{_a}"] = (_VARIANTS, 1)
# Cells whose variants do not all share one outcome at the defining commit
# (some variants hit a known defect, others do not) run every variant in
# every pass: the defect shows in full and the number of failed items in a
# pass does not depend on the seed.
MIXED_CELLS = ("exponential/exponential/a4", "gamma/quadratic/shape1")
for _cell in MIXED_CELLS:
    COMPUTE_CELLS[_cell] = (_VARIANTS, _VARIANTS)
COMPUTE_WARMUP_CELL = "gamma/absolute/shape3"


def _weight_spec(r: random.Random, kind: str, max_rate: float, jit) -> dict:
    if kind == "exponential":
        return {"kind": "exponential", "gamma": jit(r.uniform(-max_rate, max_rate))}
    if kind == "absolute":
        return {"kind": "absolute"}
    b = r.uniform(-1.0, 1.0)
    # c - b^2/4 >= 0.37 keeps c >= b^2/4 under any jitter of b and c
    return {"kind": "quadratic", "b": jit(b),
            "c": jit(b * b / 4.0 + _loguniform(r, 0.37, 1.65))}


def _mv_params(r: random.Random, d: int, diag: float, jit) -> dict:
    a = [[r.uniform(-0.3, 0.3) for _ in range(d)] for _ in range(d)]
    scale = jit(1.0)   # one factor for the whole matrix keeps it positive-definite
    cov = [[scale * ((diag if i == j else 0.0) + sum(a[i][k] * a[j][k] for k in range(d)))
            for j in range(d)] for i in range(d)]
    return {"mean": [jit(r.uniform(-0.8, 0.8)) for _ in range(d)], "cov": cov}


def compute_spec(cell: str, variant: int) -> dict:
    """The compute problem spec of one variant of an anchor cell."""
    r = _rng("compute-mix", cell)
    rj = _rng("compute-mix", cell, variant)

    def jit(x: float) -> float:
        return x * math.exp(rj.uniform(-JITTER, JITTER))

    quantities = list(QUANTITIES)
    parts = cell.split("/")
    fam = parts[0]
    if fam == "gaussian-scalar":
        dists = [{"family": fam, "params": {"mu": jit(r.uniform(-1.5, 1.5)),
                                            "sigma2": jit(_loguniform(r, 0.55, 1.8))}}
                 for _ in range(2)]
        weight = _weight_spec(r, parts[1], 0.6, jit)
    elif fam == "exponential":
        lams = [jit(_loguniform(r, 1.0, 3.3)) for _ in range(2)]
        dists = [{"family": fam, "params": {"lam": lam}} for lam in lams]
        weight = _weight_spec(r, parts[1], 0.4 * min(lams), jit)
    elif fam == "poisson":
        dists = [{"family": fam, "params": {"lam": jit(_loguniform(r, 0.6, 7.4))}}
                 for _ in range(2)]
        weight = _weight_spec(r, parts[1], 0.5, jit)
    elif fam == "gamma":
        band = int(parts[2][len("shape"):])
        lo = 0.3 * 10.0 ** (band / _GAMMA_BANDS)
        hi = 0.3 * 10.0 ** ((band + 1) / _GAMMA_BANDS)
        shapes = [_loguniform(r, lo, hi), _loguniform(r, 0.3, 3.0)]
        # the jittered p-shape stays inside its band
        shapes[0] = min(max(jit(shapes[0]), lo), hi)
        shapes[1] = jit(shapes[1])
        betas = [jit(_loguniform(r, 1.0, 2.5)) for _ in range(2)]
        dists = [{"family": "gamma", "params": {"lam": s, "beta": b}}
                 for s, b in zip(shapes, betas)]
        weight = _weight_spec(r, parts[1], 0.4 * min(betas), jit)
    elif fam.startswith("mv-d"):
        d = int(fam[len("mv-d"):])
        dists = [{"family": "gaussian-multivariate", "params": _mv_params(r, d, diag, jit)}
                 for diag in (1.0, 1.2)]
        weight = {"kind": "exponential",
                  "gamma": [jit(r.uniform(-0.3, 0.3)) for _ in range(d)]}
        if d == 3:
            quantities = ["tv", "kl", "bhattacharyya-div"]
    elif fam.startswith("pmf-m"):
        # exact sums cost the same for any values: each variant is a fresh draw
        m = int(fam[len("pmf-m"):])
        dists = [{"pmf": _dirichlet(rj, m)} for _ in range(2)]
        weight = {"kind": "table",
                  "values": [math.exp(rj.uniform(-2.0, 2.0)) for _ in range(m)]}
    else:
        raise ValueError(f"unknown compute cell {cell!r}")
    return {"schema": 1, "seed": 0, "distributions": dists, "weight": weight,
            "quantities": quantities, "alpha_grid": list(ALPHA_GRID)}


def config_hash(spec: dict) -> str:
    """The hash ``winfer compute`` writes into its report for this spec."""
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# nfold-steinsanov pool
# ---------------------------------------------------------------------------

NFOLD_CELLS = {f"nfold/m{m}/n{n}": (8, 1) for m in (2, 3) for n in range(8, 14)}
# three exact sweeps per m: the median latency falls among the m = 2 sweeps
STEIN_CELLS = {"steinsanov/exact/m2": (8, 3), "steinsanov/exact/m3": (8, 3),
               "steinsanov/mc/m2": (8, 1)}
STEIN_N_LIST = "25,50,100,200"


def nfold_tables(cell: str, variant: int) -> tuple:
    """(p, q, w, n) of one pool variant: Dirichlet(1) pmfs, weights on [e^-1, e]."""
    r = _rng("nfold", cell, variant)
    _, m, n = cell.split("/")
    m = int(m[1:])
    return (_dirichlet(r, m), _dirichlet(r, m),
            [math.exp(r.uniform(-1.0, 1.0)) for _ in range(m)], int(n[1:]))


def stein_spec(cell: str, variant: int) -> dict:
    """Interior pmfs with |ln p/q| <= 0.8, so every window of the eta sweep holds
    lattice points at n >= 25."""
    r = _rng("steinsanov", cell, variant)
    m = int(cell.rsplit("/m", 1)[1])
    p = [0.7 * v + 0.3 / m for v in _dirichlet(r, m)]
    q = [pi * math.exp(r.uniform(-0.4, 0.4)) for pi in p]
    s = sum(q)
    q = [v / s for v in q]
    w = [math.exp(r.uniform(-0.5, 0.5)) for _ in range(m)]
    return {"schema": 1, "seed": r.randrange(1_000_000),
            "distributions": [{"pmf": p}, {"pmf": q}],
            "weight": {"kind": "table", "values": w},
            "quantities": ["stein-sanov-limit"]}


# ---------------------------------------------------------------------------
# cramer-rao items
# ---------------------------------------------------------------------------

_CR_SCRIPT = ["--family", "gaussian-shift", "--phi-gamma", "0.5", "--n", "5",
              "--trials", "1000000", "--theta", "0.0", "--sigma", "1.0",
              "--van-trees", "--prior-var", "1.0"]
# key -> arguments before --seed; None for the run at CLI defaults (no seed)
CR_ITEMS = {
    "cramer-rao/shift-mean-vantrees": _CR_SCRIPT + ["--estimator", "mean"],
    "cramer-rao/shift-shifted-mean-vantrees": _CR_SCRIPT + ["--estimator", "shifted-mean"],
    "cramer-rao/scale-abs-mean-theta1": ["--family", "gaussian-scale",
                                         "--estimator", "scale-abs-mean", "--theta", "1"],
    "cramer-rao/scale-defaults": None,
}
# rows whose rhs depends only on quadrature, not on the Monte Carlo seed
CR_DETERMINISTIC_RHS = ("cramer-rao/shift-mean-vantrees",
                        "cramer-rao/shift-shifted-mean-vantrees")


def cr_argv(key: str, mc_seed: int) -> list:
    args = CR_ITEMS[key]
    if args is None:
        return ["cramer-rao", "--family", "gaussian-scale"]
    return ["cramer-rao"] + args + ["--seed", str(mc_seed)]


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def close(value, ref, err=0.0) -> bool:
    if math.isinf(ref) or math.isinf(value):
        return value == ref
    return abs(value - ref) <= REL_TOL * max(1.0, abs(ref)) + 2.0 * err


def _cli_problems(output) -> list:
    """Problems every CLI item shares: a traceback or a nonzero exit."""
    if output["exception"] is not None:
        return [f"traceback {output['exception']}"]
    if output["rc"] != 0:
        return [f"exit {output['rc']}"]
    return []


def check_compute(output, item) -> list:
    ref = item.ref
    problems = _cli_problems(output)
    if not output["text"]:
        return problems or ["no report written"]
    rep = json.loads(output["text"])
    if ref is None or rep.get("config_hash") != ref["config_hash"]:
        return problems + ["no reference for this spec"]
    values = ref["values"]
    for rec in rep["quantities"]:
        name = rec["name"]
        if "error" in rec:
            problems.append(f"error record {name}")
            continue
        val, err = rec["value"], rec.get("numerical_error", 0.0)
        cf = rec.get("closed_form")
        if cf is not None and not close(val, cf["value"], err):
            problems.append(f"closed-form mismatch {name}")
        if name in values:
            rv, rerr = values[name]
            if not close(val, rv, err + rerr):
                problems.append(f"reference mismatch {name}")
        elif cf is None or name not in ref["failed_records"]:
            # an error record at the defining commit now carries a value that
            # nothing checks: the reference must be extended on purpose
            problems.append(f"unchecked value {name}")
    for bc in rep.get("bound_checks", ()):
        if not bc["passed"]:
            problems.append(f"bound check failed: {bc['check']}")
    return problems


def check_verify(output, item) -> list:
    problems = _cli_problems(output)
    if not output["text"]:
        return problems or ["no report written"]
    rep = json.loads(output["text"])["report"]
    if not rep["passed"] or rep["violations"]:
        problems.append(f"verify violations in {rep['suite']}")
    return problems


def check_cramer_rao(output, item) -> list:
    ref = item.ref
    problems = _cli_problems(output)
    if not output["text"]:
        return problems or ["no report written"]
    rows = json.loads(output["text"])["bounds"]
    for row in rows:
        if not row["passed_3sigma"]:
            problems.append(f"bound {row['version']} fails at 3 sigma")
        if not (math.isfinite(row["lhs"]) and math.isfinite(row["rhs"])):
            problems.append(f"bound {row['version']} not finite")
    if ref is not None and ref.get("rhs"):
        got = {row["version"]: row["rhs"] for row in rows}
        if sorted(got) != sorted(ref["rhs"]):
            problems.append("bound versions differ from the reference")
        else:
            for version, rv in ref["rhs"].items():
                if not close(got[version], rv):
                    problems.append(f"reference mismatch rhs {version}")
    return problems


def nfold_row(bounds) -> dict:
    return {"lower": bounds.lower, "upper": bounds.upper,
            "exact": bounds.exact_inf, "exact_error": bounds.exact_error}


def check_nfold(output, item) -> list:
    ref = item.ref
    if output["exception"] is not None:
        return [f"traceback {output['exception']}"]
    row = output["value"]
    if row["exact"] is None:
        return [f"no exact value ({row['exact_error']})"]
    problems = []
    scale = max(1.0, row["upper"])
    if not row["lower"] - 1e-10 * scale <= row["exact"] <= row["upper"] + 1e-10 * scale:
        problems.append("sandwich lower <= exact <= upper violated")
    if ref is None:
        problems.append("no reference for this problem")
    else:
        for name in ("lower", "upper", "exact"):
            if not close(row[name], ref["row"][name]):
                problems.append(f"reference mismatch {name}")
    return problems


def parse_stein_csv(text: str) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    return [[float(v) for v in row] for row in rows[1:]]


def check_stein(output, item) -> list:
    ref = item.ref
    problems = _cli_problems(output)
    if not output["text"]:
        return problems or ["no table written"]
    rows = parse_stein_csv(output["text"])
    if ref is None or ref["config_hash"] != item.config_hash:
        return problems + ["no reference for this spec"]
    if len(rows) != len(ref["rows"]):
        return problems + ["row count differs from the reference"]
    for row, rref in zip(rows, ref["rows"]):
        if not all(close(v, rv) for v, rv in zip(row, rref)):
            problems.append(f"reference mismatch eta={rref[0]!r} n={int(rref[1])}")
    return problems


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def load_reference(workload: str) -> dict:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _cli_item(key, argv, workdir, check, refs, suffix="json") -> Item:
    out = os.path.join(workdir, key.replace("/", "_") + "." + suffix)
    ref = refs.get(key)
    expected = frozenset(ref["expected_problems"]) if ref else frozenset()
    return Item(key=key, argv=argv + ["--out", out], out=out, check=check,
                ref=ref, expected=expected)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def _cells_pass(seed: int, cells: dict) -> list:
    return [(cell, v) for cell, (size, count) in cells.items()
            for v in _pick(seed, cell, size, count)]


def plan_compute_mix(seed: int, workdir: str, refs: dict) -> Plan:
    items = []
    warmup = None
    for cell, v in _cells_pass(seed, COMPUTE_CELLS):
        key = f"{cell}/v{v}"
        spec_path = os.path.join(workdir, key.replace("/", "_") + ".spec.json")
        _write_json(spec_path, compute_spec(cell, v))
        item = _cli_item(key, ["compute", spec_path, "--reproducible"], workdir,
                         check_compute, refs)
        items.append(item)
        if warmup is None and cell == COMPUTE_WARMUP_CELL:
            warmup = item
    return Plan(items, warmup, {"variants": [it.key for it in items]})


def plan_verify_sweep(seed: int, workdir: str, refs: dict) -> Plan:
    # Every suite runs at one fixed seed and scale, so a pass costs the same
    # for every benchmark seed; the benchmark seed sets the order of the suites.
    order = [suite for suite, _ in VERIFY_SCALES]
    _rng("verify-sweep", seed).shuffle(order)
    scales = dict(VERIFY_SCALES)
    items = [_cli_item(f"verify/{suite}",
                       ["verify", "--suite", suite, "--instances", str(scales[suite]),
                        "--seed", str(VERIFY_SEED), "--reproducible"],
                       workdir, check_verify, refs)
             for suite in order]
    # four bregman-kl instances cover every scalar catalog family, so the
    # warm-up pays the lazy scipy.stats import
    warmup = _cli_item("verify/warmup",
                       ["verify", "--suite", "bregman-kl", "--instances", "4",
                        "--seed", str(VERIFY_SEED), "--reproducible"],
                       workdir, check_verify, refs)
    return Plan(items, warmup, {"order": order, "verify_seed": VERIFY_SEED,
                                "scales": scales})


def plan_cramer_rao(seed: int, workdir: str, refs: dict) -> Plan:
    r = _rng("cramer-rao", seed)
    seeds = {key: r.randrange(2 ** 31) for key in CR_ITEMS}
    items = [_cli_item(key, cr_argv(key, seeds[key]) + ["--reproducible"], workdir,
                       check_cramer_rao, refs)
             for key in CR_ITEMS]
    warm_argv = cr_argv("cramer-rao/shift-mean-vantrees", seeds[items[0].key])
    warm_argv[warm_argv.index("--trials") + 1] = "20000"
    warmup = _cli_item("cramer-rao/warmup", warm_argv + ["--reproducible"], workdir,
                       check_cramer_rao, {})
    return Plan(items, warmup, {"mc_seeds": seeds})


def plan_nfold_steinsanov(seed: int, workdir: str, refs: dict) -> Plan:
    from winfer import core, divergence, testing

    def nfold_call(prob, n):
        # resolve the library names at call time, so traced runs see wrappers
        bounds = testing.nfold_error_bounds(testing.ProductProblem(prob, n),
                                            core.IntegrationConfig())
        return nfold_row(bounds)

    items = []
    for cell, v in _cells_pass(seed, NFOLD_CELLS):
        key = f"{cell}/v{v}"
        p, q, w, n = nfold_tables(cell, v)
        prob = divergence.HypothesisProblem(core.Distribution.from_pmf(p),
                                            core.Distribution.from_pmf(q),
                                            core.WeightFunction.table(w))
        ref = refs.get(key)
        items.append(Item(key=key, call=(lambda prob=prob, n=n: nfold_call(prob, n)),
                          check=check_nfold, ref=ref,
                          expected=frozenset(ref["expected_problems"]) if ref else frozenset()))
    warmup = None
    for cell, v in _cells_pass(seed, STEIN_CELLS):
        key = f"{cell}/v{v}"
        spec = stein_spec(cell, v)
        spec_path = os.path.join(workdir, key.replace("/", "_") + ".spec.json")
        _write_json(spec_path, spec)
        method = cell.split("/")[1]
        item = _cli_item(key, ["steinsanov", "--spec", spec_path, "--n-list", STEIN_N_LIST,
                               "--eta-sweep", "--method", method],
                         workdir, check_stein, refs, suffix="csv")
        item.config_hash = config_hash(spec)
        items.append(item)
        if warmup is None:
            warmup = item
    return Plan(items, warmup, {"variants": [it.key for it in items]})


PLANNERS = {
    "compute-mix": plan_compute_mix,
    "verify-sweep": plan_verify_sweep,
    "cramer-rao": plan_cramer_rao,
    "nfold-steinsanov": plan_nfold_steinsanov,
}


def make_plan(workload: str, seed: int, workdir: str) -> Plan:
    refs = load_reference(workload)["items"] if workload != "verify-sweep" else {}
    return PLANNERS[workload](seed, workdir, refs)
