"""Command-line front end: problem ingestion, divergence computation,
verification sweeps, type-II exponent experiments, and bound experiments.

Subcommands
-----------
compute SPEC.json          weighted distances/divergences/entropies -> JSON
verify --suite NAME        randomized verification sweep -> JSON, exit 0 iff clean
steinsanov --spec SPEC     empirical vs limiting type-II exponent -> CSV
cramer-rao ...             weighted Cramer-Rao / van Trees experiment -> JSON

Exit codes: 0 success, 1 usage/schema error, 2 numerical failure (partial
report still emitted).  Reports are deterministic for a fixed seed; pass
``--reproducible`` to omit the wall-clock timestamp so reruns are
byte-identical.

Problem-spec JSON schema (version 1):

    {
      "schema": 1,
      "seed": 0,
      "distributions": [DIST, DIST],
      "weight": WEIGHT,
      "quantities": ["tv", "kl", ...],
      "alpha_grid": [0.5],            # optional, for alpha-indexed quantities
      "integration": {"rel_tol": 1e-10, ...}   # optional overrides
    }

    DIST   = {"pmf": [..]} | {"family": NAME, "params": {..}, "window": [lo, hi]?}
    NAME   = exponential(lam) | poisson(lam) | gaussian-scalar(mu, sigma2)
           | gaussian-multivariate(mean, cov) | gamma(lam, beta)   (expfam.CATALOG)
    WEIGHT = {"kind": "constant", "c": 1.0}
           | {"kind": "exponential", "gamma": g | [g..]}
           | {"kind": "quadratic", "b": b, "c": c}
           | {"kind": "polynomial", "coeffs": [c0, c1, ..]}
           | {"kind": "absolute"}
           | {"kind": "table", "values": [..]}

Integration keys: rel_tol, abs_tol, max_subdivisions, tail_mass_bound.  A spec
with a non-finite number, a param the family's ``Distribution`` constructor
refuses, a vector distribution of d >= 4 (the tensor Gauss-Hermite rule would
need 60^d nodes), or a weight its distributions cannot take exits 1.

Quantities are the names of ``divergence.QUANTITIES`` (tv, delta, hellinger,
bhattacharyya-coeff, bhattacharyya-div, kl, chernoff-coeff, chernoff-div,
renyi-div, tsallis-div, shannon-entropy, renyi-entropy, min-total-error,
stein-sanov-limit, error-bounds), each with the first-order error of its value.
Alpha-indexed quantities appear once per alpha_grid entry as "name@alpha".
When both distributions are catalog members of one exponential family (or the
unit-variance Gaussian TV pattern applies) the record carries an additional
closed-form cross-check value.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .core import _GH_MAX_D, Distribution, IntegrationConfig, WeightFunction, _finite
from .divergence import QUANTITIES, DivergenceValue, HypothesisProblem, plan_quantities, quantity
from .errors import DomainMismatchError, ParameterOutOfDomainError, SchemaError, WinferError
from .estimation import (
    PriorSpec,
    cramer_rao,
    gaussian_scale_model,
    gaussian_shift_model,
    mean_estimator,
    scale_abs_mean_estimator,
    shifted_mean_estimator,
    van_trees,
)
from .expfam import CLOSED_FORMS, AdjointFamily, catalog_family, gaussian_tv_closed_form
from .testing import (
    ProductProblem,
    error_bound_report,
    stein_sanov_empirical,
    stein_sanov_limit,
)
from .verify import SUITES, run_suite


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------

def _need(obj: dict, key: str, where: str):
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    if key not in obj:
        raise SchemaError(f"missing {key!r} in {where}")
    return obj[key]


def parse_weight(spec: dict) -> WeightFunction:
    kind = _need(spec, "kind", "weight")
    try:
        if kind == "constant":
            return WeightFunction.constant(spec.get("c", 1.0))
        if kind == "exponential":
            return WeightFunction.exponential(_need(spec, "gamma", "weight"))
        if kind == "quadratic":
            return WeightFunction.quadratic(_need(spec, "b", "weight"),
                                            _need(spec, "c", "weight"))
        if kind == "polynomial":
            return WeightFunction.polynomial(_need(spec, "coeffs", "weight"))
        if kind == "absolute":
            return WeightFunction.absolute()
        if kind == "table":
            return WeightFunction.table(_need(spec, "values", "weight"))
    except WinferError as exc:
        raise SchemaError(f"invalid weight: {exc}") from exc
    raise SchemaError(f"unknown weight kind {kind!r}")


def parse_distribution(spec: dict) -> tuple:
    """(distribution, catalog member or None for a pmf)."""
    if isinstance(spec, dict) and "pmf" in spec:
        if not isinstance(spec.get("labels", []), list):
            raise SchemaError("labels must be a list")
        try:
            return Distribution.from_pmf(spec["pmf"], spec.get("labels", ())), None
        except WinferError as exc:
            raise SchemaError(f"invalid pmf: {exc}") from exc
    name = _need(spec, "family", "distribution")
    params = _need(spec, "params", "distribution")
    if not isinstance(params, dict):
        raise SchemaError(f"params of {name!r} must be an object")
    try:
        member = catalog_family(name, **params)
        window = _finite("window", spec["window"], 1).tolist() if "window" in spec else None
    except WinferError as exc:
        raise SchemaError(f"invalid {name!r} distribution: {exc}") from exc
    dist = member.dist
    if window is not None:
        if len(window) != 2 or not window[0] < window[1]:
            raise SchemaError(f"window must be [lo, hi] with lo < hi, got {window}")
        dist = dataclasses.replace(dist, window=tuple(window))
    return dist, member


def parse_integration(spec: dict) -> IntegrationConfig:
    if not isinstance(spec, dict):
        raise SchemaError("integration must be an object")
    allowed = {f.name for f in dataclasses.fields(IntegrationConfig)}
    unknown = set(spec) - allowed
    if unknown:
        raise SchemaError(f"unknown integration keys {sorted(unknown)}")
    # values key each problem's integral memo, so they must be hashable numbers
    bad = []
    for key, value in sorted(spec.items()):
        try:
            _finite(key, value)
        except WinferError:
            bad.append(key)
    if bad:
        raise SchemaError(f"integration values must be finite numbers: {bad}")
    try:
        return IntegrationConfig(**spec)
    except (WinferError, TypeError) as exc:
        raise SchemaError(f"invalid integration config: {exc}") from exc


def parse_problem_spec(spec: dict):
    if not isinstance(spec, dict):
        raise SchemaError("spec must be a JSON object")
    if spec.get("schema", 1) != 1:
        raise SchemaError("unsupported schema version")
    dists = _need(spec, "distributions", "spec")
    if not isinstance(dists, list) or not 1 <= len(dists) <= 2:
        raise SchemaError("distributions must list one or two entries")
    parsed = [parse_distribution(d) for d in dists]
    if len(parsed) == 2 and not parsed[0][0].support.same_space(parsed[1][0].support):
        raise SchemaError(f"{parsed[0][0].family!r} and {parsed[1][0].family!r} "
                          "live on different outcome spaces")
    wf = parse_weight(_need(spec, "weight", "spec"))
    for dist, _ in parsed:
        if dist.support.kind == "real-vector" and dist.support.d > _GH_MAX_D:
            raise SchemaError(f"vector distributions need d <= {_GH_MAX_D}, not {dist.support.d}")
        try:
            wf.check_fits(dist.support)
        except DomainMismatchError as exc:
            raise SchemaError(f"{exc} ({dist.family!r})") from exc
        if dist.support.kind == "real-vector" and wf.kind != "constant" \
                and wf.exp_rate_vector is None:
            raise SchemaError(f"{dist.family!r} takes a constant or a length-{dist.support.d} "
                              f"exponential weight, not {wf.kind!r}")
    quantities = _need(spec, "quantities", "spec")
    if not isinstance(quantities, list):
        raise SchemaError("quantities must be a list")
    for qn in quantities:
        if not isinstance(qn, str) or qn not in QUANTITIES:
            raise SchemaError(f"unknown quantity {qn!r}")
    try:
        alphas = _finite("alpha_grid", spec.get("alpha_grid", [0.5]), 1).tolist()
        seed = _finite("seed", spec.get("seed", 0))
    except WinferError as exc:
        raise SchemaError(str(exc)) from exc
    if not all(0 < a <= 1 for a in alphas):
        raise SchemaError("alpha_grid entries must lie in (0, 1]")
    if seed < 0 or seed != int(seed):
        raise SchemaError(f"seed must be a nonnegative integer, got {seed!r}")
    cfg = parse_integration(spec.get("integration", {}))
    return parsed, wf, list(quantities), alphas, cfg, int(seed)


# ---------------------------------------------------------------------------
# closed-form cross-checks
# ---------------------------------------------------------------------------

def _catalog_adjoint(members: list, wf: WeightFunction, cfg: IntegrationConfig):
    """(adjoint, theta_p, theta_q) when the parsed pair lives in one catalog
    family; theta_q is None for a single distribution."""
    m1, m2 = members[0], (members[1] if len(members) > 1 else None)
    if m1 is None or (len(members) > 1 and (m2 is None or m2.family is not m1.family)):
        return None
    return AdjointFamily(m1.family, wf, cfg), m1.theta, (m2.theta if m2 is not None else None)


def _tv_closed_form(p: Distribution, q: Distribution, wf: WeightFunction,
                    as_printed: bool) -> Optional[float]:
    if not (p.family == q.family == "gaussian-scalar"
            and p.params["sigma2"] == q.params["sigma2"] == 1.0
            and p.params["mu"] == 0 and q.params["mu"] >= 0):
        return None
    try:
        return gaussian_tv_closed_form(float(q.params["mu"]), wf, as_printed=as_printed)
    except WinferError:
        return None


# ---------------------------------------------------------------------------
# compute
# ---------------------------------------------------------------------------

def _record(name: str, result: DivergenceValue, **extra) -> dict:
    if math.isnan(result.value):
        extra["error"] = "NaN result"
    return {"name": name, "value": result.value, "numerical_error": result.error,
            "method": result.method, **extra}


def compute_report(spec: dict, as_printed: bool = False) -> tuple:
    """Evaluate every requested quantity; returns (report, exit_code)."""
    parsed, wf, quantities, alphas, cfg, seed = parse_problem_spec(spec)
    p = parsed[0][0]
    q = parsed[1][0] if len(parsed) > 1 else None
    for name in quantities:
        if q is None and not QUANTITIES[name].of_p:
            raise SchemaError(f"{name} needs two distributions")
    records = []
    bound_checks = []
    closed = _catalog_adjoint([member for _, member in parsed], wf, cfg)
    # one problem for the whole report, whose integrals are computed together
    # up front; with one distribution, q = p serves its single integrals
    prob = HypothesisProblem(p, p if q is None else q, wf)
    grid = {name: alphas if QUANTITIES[name].alpha else [None] for name in quantities}
    plan_quantities(prob, cfg, [(name, a) for name in quantities for a in grid[name]])

    for name in quantities:
        try:
            for a in grid[name]:
                label, extra = (name, {}) if a is None else (f"{name}@{a:g}", {"alpha": a})
                rec = _record(label, quantity(prob, name, cfg, a), **extra)
                if name == "error-bounds":
                    rep = error_bound_report(prob, cfg)
                    bound_checks += _bound_checks(rep)
                    rec["details"] = {"delta": rep.delta, "rho": rep.rho, "tau": rep.tau,
                                      "kl": rep.kl if math.isfinite(rep.kl) else "inf",
                                      "ep": rep.ep, "eq": rep.eq}
                if name == "tv" and q is not None:
                    tvcc = _tv_closed_form(p, q, wf, as_printed)
                    if tvcc is not None:
                        rec["closed_form"] = {"value": tvcc, "method": "closed-form",
                                              "as_printed": as_printed}
                elif closed is not None and name in CLOSED_FORMS:
                    try:
                        rec["closed_form"] = {"value": CLOSED_FORMS[name](*closed, a),
                                              "method": "closed-form"}
                    except WinferError:
                        pass
                records.append(rec)
        except WinferError as exc:
            records.append({"name": name, "error": str(exc)})

    report = {
        "schema": 1,
        "tool": "winfer",
        "version": __version__,
        "seed": seed,
        "config_hash": hashlib.sha256(
            json.dumps(spec, sort_keys=True).encode()).hexdigest(),
        "quantities": records,
        "bound_checks": bound_checks,
    }
    return report, 2 if any("error" in rec for rec in records) else 0


def _bound_checks(rep) -> list:
    """The checks of the bound chain that an error-bounds record reports."""
    checks = [{"check": label, "lhs": lhs, "rhs": rhs,
               "passed": bool(lhs <= rhs + 1e-9 * max(1.0, abs(rhs)))} for label, lhs, rhs in (
        ("rho^2/(2Delta) <= Delta - sqrt(Delta^2-rho^2)", rep.lower_affinity, rep.lower_sqrt),
        ("Delta - sqrt(Delta^2-rho^2) <= min-total-error", rep.lower_sqrt, rep.min_total),
        ("min-total-error <= rho", rep.min_total, rep.upper_affinity),
        ("tau <= corrected bretagnolle-huber", rep.tau, rep.bh_corrected_bound))]
    if rep.pinsker_applicable and math.isfinite(rep.kl):
        checks.append({"check": "tau <= pinsker", "lhs": rep.tau, "rhs": rep.pinsker_bound,
                       "passed": bool(rep.tau <= rep.pinsker_bound + 1e-9)})
    return checks


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _json_default(obj):
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj)!r}")


def _emit_json(report: dict, out: Optional[str], reproducible: bool) -> None:
    if not reproducible:
        report = dict(report)
        report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S%z")
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=True,
                      default=_json_default)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_spec(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise SchemaError(f"spec file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"spec is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_compute(args) -> int:
    spec = _load_spec(args.spec)
    report, code = compute_report(spec, as_printed=args.as_printed)
    _emit_json(report, args.out, args.reproducible)
    return code


def cmd_verify(args) -> int:
    rep = run_suite(args.suite, args.instances, args.seed)
    out = {
        "schema": 1,
        "tool": "winfer",
        "version": __version__,
        "seed": args.seed,
        "report": rep.to_dict(),
    }
    _emit_json(out, args.out, args.reproducible)
    return 0 if rep.passed else 2


def cmd_steinsanov(args) -> int:
    spec = _load_spec(args.spec)
    parsed, wf, _, _, cfg, seed = parse_problem_spec(spec)
    if len(parsed) != 2:
        raise SchemaError("steinsanov needs two distributions")
    prob = HypothesisProblem(parsed[0][0], parsed[1][0], wf)
    etas = (0.2, 0.1, 0.05, 0.02) if args.eta_sweep else (args.eta,)

    def sweep(etas):
        return [stein_sanov_empirical(ProductProblem(prob, n), etas, args.method, cfg,
                                      mc_samples=args.mc_samples, mc_seed=seed)
                for n in args.n_list]

    try:
        limit = stein_sanov_limit(prob, cfg)
        try:
            by_n = sweep(etas)
        except WinferError:
            # report the failure an eta-major sweep meets first
            for eta in etas:
                sweep((eta,))
            raise
        rows = [(est.eta, est.n, est.rate_estimate, limit, abs(est.rate_estimate - limit))
                for per_eta in zip(*by_n) for est in per_eta]
    except WinferError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.eta_sweep:
        lines = ["eta,n,rate_estimate,limit,gap"]
        lines += [f"{e!r},{n},{r!r},{l!r},{g!r}" for (e, n, r, l, g) in rows]
    else:
        lines = ["n,rate_estimate,limit,gap"]
        lines += [f"{n},{r!r},{l!r},{g!r}" for (_, n, r, l, g) in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _bound_row(version: str, r) -> dict:
    """A bound's report row: the fields it carries, lhs_exact where it is known."""
    fields = ("lhs", "lhs_stderr", "lhs_exact", "rhs", "details")
    return {"version": version, "passed_3sigma": r.holds_3sigma,
            **{k: getattr(r, k) for k in fields if getattr(r, k, None) is not None}}


def cmd_cramer_rao(args) -> int:
    if args.estimator == ("scale-abs-mean" if args.family == "gaussian-shift" else "shifted-mean"):
        sys.stderr.write(f"usage error: no {args.estimator} estimator on {args.family}\n")
        return 1
    if args.family == "gaussian-shift":
        model, wf = gaussian_shift_model(sigma=args.sigma), WeightFunction.exponential(args.gamma)
    else:  # gaussian-scale: --family and --estimator are argparse choices
        model = gaussian_scale_model()
        wf = WeightFunction.exponential(args.gamma / args.theta)  # scaled weight
    make = {"mean": mean_estimator, "shifted-mean": shifted_mean_estimator}.get(args.estimator)
    est = make(model, wf) if make else scale_abs_mean_estimator()

    cfg = IntegrationConfig()
    rows = []
    code = 0
    try:
        versions = ("A", "B") if args.family == "gaussian-shift" else ("A",)
        rows = [_bound_row(r.version, r) for r in cramer_rao(
            model, wf, args.theta, args.n, est, versions, cfg, trials=args.trials, seed=args.seed)]
        if args.van_trees:
            prior = PriorSpec(kind="gaussian", mean=args.theta, var=args.prior_var)
            try:
                vts = van_trees(model, wf, args.n, est, prior, ("A", "C"), cfg,
                                trials=max(args.trials // 5, 20_000), seed=args.seed + 2)
            except ParameterOutOfDomainError as exc:  # the scale family's theta > 0
                x = PriorSpec(kind="gaussian").quadrature()[0]  # the nodes at unit variance
                raise ParameterOutOfDomainError(
                    f"{exc} at a prior node; the prior's {x.size} nodes stay in theta > 0 "
                    f"only for --prior-var < {(args.theta / x.min()) ** 2:.4g}") from exc
            rows += [_bound_row(f"van-trees-{vt.version}", vt) for vt in vts]
    except WinferError as exc:
        sys.stderr.write(f"error: {exc}\n")
        code = 2
    if any(math.isnan(r["lhs"]) or math.isnan(r["rhs"]) for r in rows):
        code = 2
    report = {
        "schema": 1,
        "tool": "winfer",
        "version": __version__,
        "seed": args.seed,
        "family": args.family,
        "estimator": args.estimator,
        "gamma": args.gamma,
        "theta": args.theta,
        "n": args.n,
        "trials": args.trials,
        "bounds": rows,
    }
    _emit_json(report, args.out, args.reproducible)
    return code


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list:
    try:
        return [int(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("expected comma-separated integers") from exc


def _checked(kind, ok, what: str):
    """argparse type: ``kind(text)``, refused unless ``ok`` holds."""
    def parse(text: str):
        v = kind(text)
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return v
    parse.__name__ = kind.__name__  # argparse's "invalid int value" names it
    return parse


_finite_arg = _checked(float, math.isfinite, "finite")
_positive_finite = _checked(float, lambda v: 0.0 < v < math.inf, "positive and finite")
_count_arg = _checked(int, lambda v: v >= 0, ">= 0")
_positive_count = _checked(int, lambda v: v >= 1, ">= 1")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parse_args keeps no
    state in it between calls)."""
    ap = argparse.ArgumentParser(prog="winfer",
                                 description="weighted information-theoretic "
                                             "distances, bounds, and experiments")
    ap.add_argument("--version", action="version", version=f"winfer {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="evaluate quantities from a problem spec")
    c.add_argument("spec")
    c.add_argument("--out")
    c.add_argument("--reproducible", action="store_true",
                   help="omit the timestamp so reruns are byte-identical")
    c.add_argument("--as-printed", action="store_true",
                   help="report the as-printed Gaussian TV closed forms "
                        "instead of the quadrature-verified ones")
    c.set_defaults(fn=cmd_compute)

    v = sub.add_parser("verify", help="run a named randomized verification suite")
    v.add_argument("--suite", required=True, choices=sorted(SUITES))
    v.add_argument("--instances", type=_count_arg, default=200)
    v.add_argument("--seed", type=_count_arg, default=0)
    v.add_argument("--out")
    v.add_argument("--reproducible", action="store_true")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("steinsanov", help="empirical type-II exponent sweep")
    s.add_argument("--spec", required=True)
    s.add_argument("--n-list", default=[25, 50, 100, 200], type=_checked(
        _int_list, lambda ns: ns and min(ns) >= 1, "non-empty with every n >= 1"))
    s.add_argument("--eta", type=_positive_finite, default=0.05)
    s.add_argument("--eta-sweep", action="store_true",
                   help="sweep eta over {0.2, 0.1, 0.05, 0.02} (adds an eta column)")
    s.add_argument("--method", choices=("exact", "mc"), default="exact")
    s.add_argument("--mc-samples", type=_positive_count, default=200_000)
    s.add_argument("--out")
    s.set_defaults(fn=cmd_steinsanov)

    r = sub.add_parser("cramer-rao", help="weighted Cramer-Rao / van Trees experiment")
    r.add_argument("--family", choices=("gaussian-shift", "gaussian-scale"),
                   default="gaussian-shift")
    r.add_argument("--phi-gamma", dest="gamma", type=_finite_arg, default=0.5)
    r.add_argument("--estimator", choices=("mean", "shifted-mean", "scale-abs-mean"),
                   default="mean")
    r.add_argument("--n", type=_positive_count, default=5)
    r.add_argument("--trials", type=_checked(int, lambda v: v >= 2, ">= 2"),
                   default=1_000_000)
    r.add_argument("--theta", type=_finite_arg, default=0.0)
    r.add_argument("--sigma", type=_positive_finite, default=1.0)
    r.add_argument("--seed", type=_count_arg, default=0)
    r.add_argument("--van-trees", action="store_true")
    r.add_argument("--prior-var", type=_positive_finite, default=1.0)
    r.add_argument("--out")
    r.add_argument("--reproducible", action="store_true")
    r.set_defaults(fn=cmd_cramer_rao)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except SchemaError as exc:
        sys.stderr.write(f"schema error: {exc}\n")
        return 1
    except WinferError as exc:
        sys.stderr.write(f"numerical error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
