"""Named verification suites behind ``winfer verify`` and the acceptance tests.

Every suite runs seeded randomized instances (or a fixed golden grid), records
per-instance margins, and reports violations explicitly.  Conditional
inequalities are only asserted when their hypotheses hold; hypothesis failures
are counted separately rather than skipped silently.

chain, pinsker and bretagnolle-huber read the finite instances of one alphabet
size in one stacked pass (``testing.finite_bound_reports``), bit for bit equal
to ``error_bound_report`` per problem; tv-oracle and nfold build every problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import Distribution, IntegrationConfig, WeightFunction
from .divergence import (
    HypothesisProblem,
    finite_sums,
    kl,
    plan_quantities,
    quantity,
    weighted_tv,
    weighted_tv_sup_oracle,
)
from .errors import WinferError
from .estimation import (
    gaussian_shift_model,
    kl_expansion_check,
    poisson_log_mean_model,
)
from .expfam import (
    CLOSED_FORMS,
    AdjointFamily,
    catalog_family,
    expfam_renyi,
    expfam_shannon,
    gaussian_tv_closed_form,
    weighted_bregman,
)
from .randinst import random_continuous_problem, random_finite_problem, random_finite_tables
from .testing import (
    NfoldBounds,
    ProductProblem,
    error_bound_report,
    finite_bound_reports,
    nfold_error_bounds,
)

__all__ = ["SuiteReport", "SUITES", "run_suite"]


@dataclass
class SuiteReport:
    suite: str
    instances: int
    violations: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)
    hypothesis_failures: int = 0
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "instances": self.instances,
            "passed": self.passed,
            "violations": self.violations,
            "margins": self.margins,
            "hypothesis_failures": self.hypothesis_failures,
            "notes": self.notes,
        }


def _mixed_reports(rng: np.random.Generator, count: int, cfg: IntegrationConfig,
                   continuous_share: float = 0.1):
    """(BoundReport, thunk of K(q||p)) of ``count`` random instances in draw
    order: catalog pairs first, each drawn and read by ``error_bound_report``
    in turn, then finite alphabets of size 2 to 8, all drawn as tables first,
    and read by one ``finite_bound_reports`` and one swapped ``finite_sums``
    pass per size."""
    n_cont = int(round(count * continuous_share))
    for _ in range(n_cont):
        prob = random_continuous_problem(rng)
        yield error_bound_report(prob, cfg), (lambda prob=prob: quantity(
            HypothesisProblem(prob.q, prob.p, prob.wf), "kl", cfg).value)
    sizes, drawn = [], {}
    for _ in range(n_cont, count):
        tables = random_finite_tables(rng, int(rng.integers(2, 9)))
        sizes.append(m := tables[0].size)
        for buf, t in zip(drawn.setdefault(m, (bytearray(), bytearray(), bytearray())), tables):
            buf.extend(t.tobytes())  # packed: no array object is kept per draw
    reports = {}
    while drawn:  # each size's buffers go once its sums are taken
        m, bufs = drawn.popitem()
        p, q, w = (np.frombuffer(buf).reshape(-1, m) for buf in bufs)
        reports[m] = zip(finite_bound_reports(p, q, w), finite_sums(q, p, w, ["kl"])[0].tolist())
    for m in sizes:  # each size's rows in draw order
        r, kq = next(reports[m])
        yield r, (lambda kq=kq: kq)


def suite_tv_oracle(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """Closed-form weighted TV against the 2^m subset-enumeration oracle."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport(suite="tv-oracle", instances=instances)
    worst = 0.0
    for _ in range(instances):
        prob = random_finite_problem(rng, int(rng.integers(2, 13)))
        a = weighted_tv(prob, cfg).value
        b = weighted_tv_sup_oracle(prob)
        gap = abs(a - b)
        worst = max(worst, gap)
        if gap > 1e-12:
            rep.violations.append({"kind": "tv-oracle-gap", "gap": gap})
    rep.margins["max_abs_gap"] = worst
    return rep


def suite_chain(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """Affinity/TV orderings on mixed discrete and continuous instances."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport(suite="chain", instances=instances)
    chain_kinds = ("lower_affinity < 0",
                   "rho^2/(2 Delta) > Delta - sqrt(Delta^2 - rho^2)",
                   "sqrt lower bound exceeds the exact minimum",
                   "exact minimum exceeds rho",
                   "Delta - rho > tau",
                   "tau > sqrt(Delta^2 - rho^2)")
    min_margin = math.inf
    for r, _ in _mixed_reports(rng, instances, cfg):
        bad = [v for v in r.violations if v in chain_kinds]
        if bad:
            rep.violations.append({"kind": "chain", "violations": bad})
        min_margin = min(min_margin, r.min_total - r.lower_sqrt, r.rho - r.min_total)
    rep.margins["min_chain_margin"] = min_margin
    return rep


def suite_pinsker(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """tau <= sqrt(K E_phi(p)/2) whenever E_phi(p) >= E_phi(q) and K is finite;
    else, tau being symmetric, for the swapped pair (q, p).  Instances that
    neither direction covers are the hypothesis failures."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport(suite="pinsker", instances=instances)
    margins = {"pinsker": [], "pinsker-swapped": []}
    for r, swapped_kl in _mixed_reports(rng, instances, cfg):
        if r.pinsker_applicable and math.isfinite(r.kl):
            kind, bound = "pinsker", r.pinsker_bound
        elif r.eq >= r.ep - 1e-9 and math.isfinite(kq := swapped_kl()):
            kind, bound = "pinsker-swapped", math.sqrt(max(kq, 0.0) * r.eq / 2.0)
        else:
            rep.hypothesis_failures += 1
            continue
        margins[kind].append(margin := bound - r.tau)
        if margin < -1e-9 * max(1.0, r.delta):
            rep.violations.append({"kind": kind, "margin": margin})
    rep.margins["min_margin"] = min(margins["pinsker"], default=math.inf)
    rep.margins["min_margin_swapped"] = min(margins["pinsker-swapped"], default=math.inf)
    rep.margins["swapped_checked"] = len(margins["pinsker-swapped"])
    return rep


def suite_bretagnolle_huber(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """Corrected weight-mass-aware bound on every instance with finite KL; the
    printed unit-mass form only under its de-facto hypothesis."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport(suite="bretagnolle-huber", instances=instances)
    min_corr = math.inf
    min_printed = math.inf
    for r, _ in _mixed_reports(rng, instances, cfg):
        if not math.isfinite(r.kl):
            rep.hypothesis_failures += 1
            continue
        margin = r.bh_corrected_bound - r.tau
        min_corr = min(min_corr, margin)
        if margin < -1e-9 * max(1.0, r.delta):
            rep.violations.append({"kind": "bh-corrected", "margin": margin})
        if r.bh_printed_applicable and not math.isnan(r.bh_printed_bound):
            pm = r.bh_printed_bound - r.tau
            min_printed = min(min_printed, pm)
            if pm < -1e-9 * max(1.0, r.delta):
                rep.violations.append({"kind": "bh-printed", "margin": pm})
        else:
            rep.hypothesis_failures += 1
    rep.margins["min_margin_corrected"] = min_corr
    rep.margins["min_margin_printed"] = min_printed
    return rep


def _asymptotic_lower_applies(b: NfoldBounds) -> bool:
    """Hypotheses under which the asymptotic lower bound is asserted:
    E_phi(p) >= 1, n >= 20 and a weighted KL K >= 0.  With K < 0 the factor
    exp(-n E_p^{n-1} K) grows without bound and the bound fails."""
    return (b.ep >= 1.0 and b.kl >= 0.0 and b.n >= 20
            and math.isfinite(b.asymptotic_lower))


def suite_nfold(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """Product-problem sandwich, the exp(-n eta^2) bound, and the asymptotic
    lower bound under its weight-mass hypothesis."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport(suite="nfold", instances=instances)
    tol = 1e-10
    for _ in range(instances):
        prob = random_finite_problem(rng, int(rng.integers(2, 4)), weight_span=1.0)
        n = int(rng.integers(2, 11))
        b = nfold_error_bounds(ProductProblem(prob, n), cfg)
        if b.exact_inf is None:
            rep.notes.append(b.exact_error)
            continue
        scale = max(1.0, b.upper)
        if not (b.lower - tol * scale <= b.exact_inf <= b.upper + tol * scale):
            rep.violations.append({"kind": "sandwich", "n": n, "lower": b.lower,
                                   "exact": b.exact_inf, "upper": b.upper})
        if b.upper > b.upper_sq + tol * scale:
            rep.violations.append({"kind": "rho^n > (Delta^2-tau^2)^{n/2}", "n": n})
        if b.upper_eta is not None and b.exact_inf > b.upper_eta + tol:
            rep.violations.append({"kind": "exp(-n eta^2)", "n": n,
                                   "exact": b.exact_inf, "bound": b.upper_eta})
        if _asymptotic_lower_applies(b):
            if b.exact_inf < b.asymptotic_lower - tol:
                rep.violations.append({"kind": "asymptotic-lower", "n": n})
        else:
            rep.hypothesis_failures += 1

    # dedicated draws for the asymptotic lower bound: unit-or-larger weights
    # force E_phi(p) >= 1, and n = 20 clears the threshold n0
    asym_checked = 0
    for _ in range(min(3, max(instances // 10, 1))):
        p = rng.dirichlet(np.ones(2))
        q = rng.dirichlet(np.ones(2))
        w = np.exp(rng.uniform(0.0, 0.3, size=2))
        prob = HypothesisProblem(Distribution.from_pmf(p), Distribution.from_pmf(q),
                                 WeightFunction.table(w))
        b = nfold_error_bounds(ProductProblem(prob, 20), cfg)
        if b.exact_inf is None or not _asymptotic_lower_applies(b):
            rep.hypothesis_failures += 1
            continue
        asym_checked += 1
        if b.exact_inf < b.asymptotic_lower - tol:
            rep.violations.append({"kind": "asymptotic-lower", "n": 20})
    rep.margins["asymptotic_lower_checked"] = asym_checked
    return rep


_BREGMAN_DRAWS = (
    ("exponential", lambda rng: {"lam": float(np.exp(rng.uniform(0.0, 1.2)))}),
    ("poisson", lambda rng: {"lam": float(np.exp(rng.uniform(-0.5, 1.4)))}),
    ("gaussian-scalar", lambda rng: {"mu": float(rng.uniform(-1.0, 1.0)),
                                     "sigma2": float(np.exp(rng.uniform(-0.5, 0.7)))}),
    ("gamma", lambda rng: {"lam": float(np.exp(rng.uniform(0.0, 1.0))),
                           "beta": float(np.exp(rng.uniform(0.0, 0.8)))}),
)


def suite_bregman_kl(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """Weighted Bregman divergence == weighted KL on random catalog draws."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport(suite="bregman-kl", instances=instances)
    worst = 0.0
    for i in range(instances):
        name, drawer = _BREGMAN_DRAWS[i % len(_BREGMAN_DRAWS)]
        m1 = catalog_family(name, **drawer(rng))
        m2 = catalog_family(name, **drawer(rng))
        if name in ("exponential", "gamma"):
            rate = m1.params.get("lam") if name == "exponential" else m1.params["beta"]
            g = float(rng.uniform(0.0, 0.35)) * rate
        else:
            g = float(rng.uniform(-0.5, 0.5))
        wf = WeightFunction.exponential(g) if i % 3 else WeightFunction.constant(1.0)
        adj = AdjointFamily(m1.family, wf, cfg)
        closed = weighted_bregman(adj, m2.theta, m1.theta)
        numeric = kl(HypothesisProblem(m1.dist, m2.dist, wf), cfg).value
        gap = abs(closed - numeric) / max(1.0, abs(numeric))
        worst = max(worst, gap)
        if gap > 1e-8:
            rep.violations.append({"kind": "bregman-kl", "family": name, "gap": gap})
    rep.margins["max_rel_gap"] = worst
    return rep


def suite_kl_expansion(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """Difference quotients of the local KL expansion converge at order >= 0.9."""
    rng = np.random.default_rng(seed)
    rep = SuiteReport(suite="kl-expansion", instances=instances)
    steps = (4e-2, 2e-2, 1e-2, 5e-3)
    for i in range(instances):
        if i % 2 == 0:
            model = gaussian_shift_model(sigma=float(np.exp(rng.uniform(-0.3, 0.3))))
            theta = float(rng.uniform(-0.8, 0.8))
            wf = WeightFunction.exponential(float(rng.uniform(-0.5, 0.5)))
        else:
            model = poisson_log_mean_model()
            theta = float(rng.uniform(-0.3, 0.8))
            wf = WeightFunction.exponential(float(rng.uniform(-0.3, 0.3)))
        r = kl_expansion_check(model, wf, theta, steps, cfg)
        e1 = abs(r.first_quotients[-1] - r.first_limit)
        e2 = abs(r.second_quotients[-1] - r.second_limit)
        scale = max(1.0, abs(r.first_limit))
        if r.first_order < 0.9 and e1 > 1e-10 * scale:
            rep.violations.append({"kind": "first-order", "order": r.first_order})
        if r.second_order < 0.9 and e2 > 1e-10 * max(1.0, abs(r.second_limit)):
            rep.violations.append({"kind": "second-order", "order": r.second_order})
        if e1 > 0.1 * scale:
            rep.violations.append({"kind": "first-quotient-off", "err": e1})
    return rep


# -- golden grids -----------------------------------------------------------

def _golden_pairs():
    """(family, params, params', weight, alpha) grid points per catalog family."""
    out = []
    for lam in (0.8, 1.2, 2.0, 3.0, 4.5):
        out.append(("exponential", {"lam": lam}, {"lam": 1.6 * lam},
                    WeightFunction.exponential(0.2 * lam), 0.4))
    for lam in (0.5, 1.0, 2.0, 4.0, 6.0):
        out.append(("poisson", {"lam": lam}, {"lam": 1.7 * lam},
                    WeightFunction.exponential(0.3), 0.35))
    for mu, s2 in ((0.0, 1.0), (0.5, 1.5), (-0.7, 0.6), (1.2, 2.0), (-0.2, 0.9)):
        out.append(("gaussian-scalar", {"mu": mu, "sigma2": s2},
                    {"mu": mu - 0.8, "sigma2": 1.3 * s2},
                    WeightFunction.exponential(0.4), 0.45))
    for lam, beta in ((1.5, 1.0), (2.0, 1.5), (3.0, 2.0), (0.9, 0.8), (4.0, 2.5)):
        out.append(("gamma", {"lam": lam, "beta": beta},
                    {"lam": 1.4 * lam, "beta": 1.8 * beta},
                    WeightFunction.exponential(0.25 * beta), 0.4))
    return out


def _golden_pairs_mv():
    out = []
    for d in (2, 3):
        rng = np.random.default_rng(100 + d)
        for _ in range(5):
            a = rng.uniform(-0.3, 0.3, size=(d, d))
            cov1 = np.eye(d) + a @ a.T
            b = rng.uniform(-0.3, 0.3, size=(d, d))
            cov2 = np.eye(d) * 1.2 + b @ b.T
            m1 = rng.uniform(-0.8, 0.8, size=d)
            m2 = rng.uniform(-0.8, 0.8, size=d)
            g = rng.uniform(-0.3, 0.3, size=d)
            out.append(("gaussian-multivariate", {"mean": m1, "cov": cov1},
                        {"mean": m2, "cov": cov2},
                        WeightFunction.exponential(g), 0.45))
    return out


def suite_expfam_golden(instances: int, seed: int, cfg: IntegrationConfig) -> SuiteReport:
    """Catalog closed forms against the independent numerical route, the
    Renyi continuity limits, and the Gaussian TV closed-form audit."""
    rep = SuiteReport(suite="expfam-golden", instances=0)
    rtol = 1e-7
    worst = 0.0

    def check(tag, closed, numeric):
        nonlocal worst
        gap = abs(closed - numeric) / max(1.0, abs(numeric))
        worst = max(worst, gap)
        if gap > rtol:
            rep.violations.append({"kind": tag, "closed": closed,
                                   "numeric": numeric, "rel_gap": gap})

    for name, p1, p2, wf, alpha in _golden_pairs() + _golden_pairs_mv():
        rep.instances += 1
        m1 = catalog_family(name, **p1)
        m2 = catalog_family(name, **p2)
        adj = AdjointFamily(m1.family, wf, cfg)
        prob = HypothesisProblem(m1.dist, m2.dist, wf)
        plan_quantities(prob, cfg, [(qname, alpha) for qname in CLOSED_FORMS])
        for qname, closed in CLOSED_FORMS.items():
            check(f"{name}-{qname}", closed(adj, m1.theta, m2.theta, alpha),
                  quantity(prob, qname, cfg, alpha).value)

    # alpha -> 1 continuity at the catalog scale
    m = catalog_family("gaussian-scalar", mu=0.3, sigma2=1.4)
    adj = AdjointFamily(m.family, WeightFunction.exponential(0.35), cfg)
    r_near = expfam_renyi(adj, m.theta, 1.0 - 1e-6)
    h = expfam_shannon(adj, m.theta)
    if abs(r_near - h) > 1e-4 * max(1.0, abs(h)):
        rep.violations.append({"kind": "renyi-shannon-continuity",
                               "gap": abs(r_near - h)})

    pfin = HypothesisProblem(Distribution.from_pmf([0.5, 0.3, 0.2]),
                             Distribution.from_pmf([0.2, 0.5, 0.3]),
                             WeightFunction.table([1.5, 0.7, 1.1]))
    kv = kl(pfin, cfg).value
    for name in ("renyi", "tsallis"):
        v = quantity(pfin, f"{name}-div", cfg, 1.0 - 1e-6).value
        if abs(v - kv) > 1e-4 * max(1.0, abs(kv)):
            rep.violations.append({"kind": f"{name}-kl-continuity", "gap": abs(v - kv)})

    # Gaussian weighted-TV closed forms: corrected ones must match quadrature;
    # the printed variants are audited and their discrepancies reported.
    shifts = (0.0, 0.5, 1.0, 2.0, 4.0)
    printed_gaps = {}
    for wf_tv, label in ((WeightFunction.quadratic(0.4, 1.1), "quadratic"),
                         (WeightFunction.absolute(), "absolute"),
                         (WeightFunction.exponential(0.3), "exponential")):
        for a in shifts:
            prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                     Distribution.gaussian(a, 1.0), wf_tv)
            numeric = weighted_tv(prob, cfg).value
            corr = gaussian_tv_closed_form(a, wf_tv)
            gap = abs(corr - numeric) / max(1.0, abs(numeric))
            worst = max(worst, gap)
            if gap > 1e-8:
                rep.violations.append({"kind": f"gaussian-tv-{label}", "a": a,
                                       "rel_gap": gap})
            printed = gaussian_tv_closed_form(a, wf_tv, as_printed=True)
            printed_gaps.setdefault(label, []).append(printed - numeric)
    rep.margins["max_rel_gap"] = worst
    for label, gaps in printed_gaps.items():
        rep.notes.append({"printed_minus_quadrature": label,
                          "gaps": [float(g) for g in gaps]})
    return rep


SUITES = {
    "tv-oracle": suite_tv_oracle,
    "chain": suite_chain,
    "pinsker": suite_pinsker,
    "bretagnolle-huber": suite_bretagnolle_huber,
    "nfold": suite_nfold,
    "bregman-kl": suite_bregman_kl,
    "kl-expansion": suite_kl_expansion,
    "expfam-golden": suite_expfam_golden,
}


def run_suite(name: str, instances: int, seed: int,
              cfg: IntegrationConfig | None = None) -> SuiteReport:
    if name not in SUITES:
        raise WinferError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](instances, seed, cfg or IntegrationConfig())
