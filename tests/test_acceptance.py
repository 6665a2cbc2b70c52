"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from scipy.special import erf

from winfer.core import Distribution, IntegrationConfig, WeightFunction
from winfer.divergence import (
    HypothesisProblem,
    weight_mass,
    weighted_tv,
    weighted_tv_sup_oracle,
)
from winfer.estimation import (
    PriorSpec,
    cramer_rao,
    gaussian_scale_model,
    gaussian_shift_model,
    kl_expansion_check,
    mean_estimator,
    nfold_weighted_fisher,
    shifted_mean_estimator,
    van_trees,
    weighted_fisher,
)
from winfer.expfam import gaussian_tv_closed_form
from winfer.randinst import random_continuous_problem, random_finite_problem
from winfer.testing import (
    ProductProblem,
    error_bound_report,
    min_total_error,
    nfold_error_bounds,
    stein_sanov_empirical,
    stein_sanov_limit,
)
from winfer.verify import run_suite

CFG = IntegrationConfig()


def _line(num, name, detail):
    print(f"\nACCEPTANCE {num:>2} {name}: PASS ({detail})")


def test_criterion_01_tv_sup_oracle_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        prob = random_finite_problem(rng, int(rng.integers(2, 13)))
        gap = abs(weighted_tv(prob, CFG).value - weighted_tv_sup_oracle(prob))
        worst = max(worst, gap)
        assert gap <= 1e-12
    _line(1, "tv sup-oracle equivalence (500 instances, m<=12)",
          f"max |closed - enumeration| = {worst:.2e} <= 1e-12")


def test_criterion_02_optimal_combined_loss():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 11))
        prob = random_finite_problem(rng, m)
        p, q, w = prob.tables()
        eq = float(np.sum(w * q))
        gains = w * (p - q)
        bits = (np.arange(2 ** m)[:, None] >> np.arange(m)) & 1
        brute = float(np.min(eq + bits @ gains))
        closed = min_total_error(prob, CFG)
        gap = abs(brute - closed)
        worst = max(worst, gap)
        assert gap <= 1e-12
        randomized = eq + rng.uniform(0, 1, size=(100, m)) @ gains
        assert float(randomized.min()) >= brute - 1e-12
    _line(2, "optimal combined loss vs 2^m rule enumeration (200 instances)",
          f"max |brute - (Delta - tau)| = {worst:.2e}; randomized rules never below")


def test_criterion_03_inequality_chains():
    rng = np.random.default_rng(303)
    t0 = time.time()
    pinsker_checked = bh_printed_checked = hyp_failures = 0
    for i in range(10_000):
        if i % 10 == 0:
            prob = random_continuous_problem(rng)
        else:
            prob = random_finite_problem(rng, int(rng.integers(2, 9)))
        rep = error_bound_report(prob, CFG)
        assert not rep.violations, (i, rep.violations)
        if rep.pinsker_applicable and math.isfinite(rep.kl):
            pinsker_checked += 1
        else:
            hyp_failures += 1
        if rep.bh_printed_applicable and not math.isnan(rep.bh_printed_bound):
            bh_printed_checked += 1
    _line(3, "affinity/TV chains + conditional pinsker & bretagnolle-huber "
             "(10^4 instances)",
          f"zero violations; pinsker asserted on {pinsker_checked}, "
          f"printed BH on {bh_printed_checked}, hypothesis failures recorded "
          f"on {hyp_failures}; {time.time() - t0:.0f}s")


def test_criterion_04_nfold_sandwich():
    rng = np.random.default_rng(404)
    eta_checked = 0
    for _ in range(50):
        prob = random_finite_problem(rng, 2)
        for n in range(2, 13):
            b = nfold_error_bounds(ProductProblem(prob, n), CFG)
            assert b.exact_inf is not None
            scale = max(1.0, b.upper)
            assert b.lower - 1e-10 * scale <= b.exact_inf <= b.upper + 1e-10 * scale
            if b.upper_eta is not None:
                eta_checked += 1
                assert b.exact_inf <= b.upper_eta + 1e-10
    _line(4, "n-fold product sandwich, m=2, n=2..12 (50 instances)",
          f"exact inf within printed bounds; exp(-n eta^2) asserted on "
          f"{eta_checked} small-Delta cases")


def random_rate_study_problem(rng: np.random.Generator, m: int,
                              log_ratio_span: float = 0.8,
                              weight_span: float = 0.5) -> HypothesisProblem:
    """Alternative built as a bounded multiplicative tilt of the null.

    Capping |ln(p/q)| at 2 * log_ratio_span keeps the per-sample statistic's
    lattice denser than any window of width >= 2 * span / n, so the finite-n
    window rule never degenerates at the n values used in rate sweeps.
    """
    p = 0.7 * rng.dirichlet(np.ones(m)) + 0.3 / m
    q = p * np.exp(rng.uniform(-log_ratio_span, log_ratio_span, size=m))
    q = q / q.sum()
    w = np.exp(rng.uniform(-weight_span, weight_span, size=m))
    return HypothesisProblem(Distribution.from_pmf(p), Distribution.from_pmf(q),
                             WeightFunction.table(w))


def test_criterion_05_type2_exponent():
    rng = np.random.default_rng(505)
    eta = 0.05
    worst200 = 0.0
    for i in range(20):
        m = 2 if i % 2 == 0 else 3
        prob = random_rate_study_problem(rng, m)
        limit = stein_sanov_limit(prob, CFG)
        gaps = []
        for n in (25, 50, 100, 200):
            est, = stein_sanov_empirical(ProductProblem(prob, n), (eta,), "exact", CFG)
            gaps.append(abs(est.rate_estimate - limit))
        assert gaps[-1] <= eta + 0.05, (i, gaps)
        worst200 = max(worst200, gaps[-1])
        # the window rule converges to within eta of the limit, so the
        # monotone quantity is the excess of the gap over the eta allowance
        excess = [max(0.0, g - eta) for g in gaps]
        assert all(excess[j + 1] <= excess[j] + 1e-12 for j in range(3)), (i, gaps)
    _line(5, "weighted type-II exponent, exact enumeration, 20 instances",
          f"max gap at n=200 is {worst200:.3f} <= eta + 0.05 = 0.1; "
          f"gap excess over eta non-increasing across n")


def test_criterion_06_exponential_family_golden():
    golden = run_suite("expfam-golden", 0, 0)
    assert golden.passed, golden.violations
    bregman = run_suite("bregman-kl", 200, 606)
    assert bregman.passed, bregman.violations
    _line(6, "catalog closed forms vs independent numerics + identity sweep",
          f"golden grid max rel gap {golden.margins['max_rel_gap']:.1e} <= 1e-7; "
          f"bregman=kl max rel gap {bregman.margins['max_rel_gap']:.1e} <= 1e-8; "
          f"alpha->1 continuity within 1e-4")


def test_criterion_07_gaussian_tv_closed_forms():
    shifts = (0.0, 0.5, 1.0, 2.0, 4.0)
    weights = {
        "quadratic": WeightFunction.quadratic(0.4, 1.1),
        "absolute": WeightFunction.absolute(),
        "exponential": WeightFunction.exponential(0.3),
    }
    audit = {}
    for label, wf in weights.items():
        for a in shifts:
            prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                     Distribution.gaussian(a, 1.0), wf)
            numeric = weighted_tv(prob, CFG).value
            corrected = gaussian_tv_closed_form(a, wf)
            assert abs(corrected - numeric) <= 1e-8 * max(1.0, abs(numeric)), \
                (label, a)
            printed = gaussian_tv_closed_form(a, wf, as_printed=True)
            audit.setdefault(label, []).append(printed - numeric)

    # exponential-weight variant at rate 0: quadrature equals Erf(a/(2 sqrt 2))
    # while the as-printed expression does not (it is negative)
    wf0 = WeightFunction.exponential(0.0)
    for a in (0.5, 1.0, 2.0):
        prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                 Distribution.gaussian(a, 1.0), wf0)
        numeric = weighted_tv(prob, CFG).value
        assert numeric == pytest.approx(erf(a / (2 * math.sqrt(2))), abs=1e-8)
        printed = gaussian_tv_closed_form(a, wf0, as_printed=True)
        assert abs(printed - numeric) > 0.1
        assert printed < 0

    # the quadratic/absolute printed forms reproduce the one-sided supremum
    for label, wf in (("quadratic", weights["quadratic"]),
                      ("absolute", weights["absolute"])):
        for a in (1.0, 2.0):
            prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                     Distribution.gaussian(a, 1.0), wf)
            one_sided = weighted_tv(prob, CFG).value + 0.5 * (
                weight_mass(prob.q, wf, CFG) - weight_mass(prob.p, wf, CFG))
            assert gaussian_tv_closed_form(a, wf, as_printed=True) == \
                pytest.approx(one_sided, rel=1e-8)

    detail = {k: [round(float(g), 4) for g in v] for k, v in audit.items()}
    _line(7, "gaussian weighted-TV closed forms vs quadrature",
          f"corrected forms within 1e-8 on a in {shifts}; as-printed "
          f"discrepancies detected and reported: {detail}")


def test_criterion_08_cramer_rao_equality():
    sigma, g, theta, n, trials = 1.0, 0.5, 0.0, 5, 1_000_000
    model = gaussian_shift_model(sigma=sigma)
    wf = WeightFunction.exponential(g)
    s2 = sigma * sigma
    equality = (s2 / n) * math.exp(n * (theta * g + s2 * g * g / 2)) \
        * (1 + n * g * g * s2)

    r1 = cramer_rao(model, wf, theta, n, mean_estimator(model, wf), ("A",), CFG,
                    trials=trials, seed=801)[0]
    assert r1.rhs == pytest.approx(equality, rel=1e-10)
    assert abs(r1.lhs - equality) <= 3 * r1.lhs_stderr

    r2 = cramer_rao(model, wf, theta, n, shifted_mean_estimator(model, wf), ("A",), CFG,
                    trials=trials, seed=802)[0]
    assert r2.lhs - 3 * r2.lhs_stderr > r2.rhs
    assert r2.lhs + 3 * r2.lhs_stderr < equality

    one = WeightFunction.constant(1.0)
    r3 = cramer_rao(model, one, theta, n, mean_estimator(model, one), ("A",), CFG,
                    trials=trials, seed=803)[0]
    assert r3.rhs == pytest.approx(s2 / n, rel=1e-9)
    assert abs(r3.lhs - s2 / n) <= 3 * r3.lhs_stderr

    _line(8, "weighted Cramer-Rao equality on the Gaussian shift family",
          f"mean: |lhs - {equality:.4f}| = {abs(r1.lhs - equality):.2e} "
          f"<= 3se = {3 * r1.lhs_stderr:.2e}; bias-corrected mean strictly "
          f"between {r2.rhs:.4f} and {equality:.4f}; rate-0 case = sigma^2/n")


def test_criterion_09_fisher_identities():
    model = gaussian_shift_model()
    th, g = 0.3, 0.5
    wf = WeightFunction.exponential(g)
    closed = (1.0 + g * g) * math.exp(th * g + g * g / 2)
    got = weighted_fisher(model, wf, th, CFG)
    assert got == pytest.approx(closed, rel=1e-8)

    scale = gaussian_scale_model()
    th0, gg = 1.4, 0.6
    wfs = WeightFunction.exponential(gg / th0)
    want_b2 = th0 ** -2 * math.exp(gg * gg / 2) * (2 + 4 * gg * gg + gg ** 4)
    got_b2 = weighted_fisher(scale, wfs, th0, CFG)
    assert got_b2 == pytest.approx(want_b2, rel=1e-8)

    rep = kl_expansion_check(model, wf, th, (4e-2, 2e-2, 1e-2, 5e-3), CFG)
    assert rep.first_order >= 0.9
    assert rep.second_order >= 0.9
    assert abs(rep.first_quotients[-1] - rep.first_limit) <= 1e-2

    n, trials = 3, 1_000_000
    rng = np.random.default_rng(909)
    xs = rng.normal(th, 1.0, size=(trials, n))
    v = np.exp(g * xs.sum(axis=1)) * (xs - th).sum(axis=1) ** 2
    mc, se = float(v.mean()), float(v.std(ddof=1) / math.sqrt(trials))
    closed_n = nfold_weighted_fisher(model, wf, th, n, CFG)
    assert abs(closed_n - mc) <= 3 * se

    _line(9, "weighted Fisher identities",
          f"shift/scale closed forms within 1e-8; expansion orders "
          f"{rep.first_order:.2f}/{rep.second_order:.2f} >= 0.9; n-fold vs "
          f"10^6-sample MC gap {abs(closed_n - mc):.3f} <= 3se = {3 * se:.3f}")


def test_criterion_10_van_trees():
    model = gaussian_shift_model()
    one = WeightFunction.constant(1.0)
    n, tau2 = 10, 0.5
    prior = PriorSpec(kind="gaussian", mean=0.0, var=tau2)
    (vt,) = van_trees(model, one, n, mean_estimator(model, one), prior, ("C",), CFG,
                       trials=50_000, seed=1001)
    classic = 1.0 / (n + 1.0 / tau2)
    assert vt.rhs == pytest.approx(classic, abs=1e-6)

    wf = WeightFunction.exponential(0.25)
    (vtw,) = van_trees(model, wf, n, mean_estimator(model, wf),
                        PriorSpec(kind="gaussian", mean=0.0, var=1.0), ("C",), CFG,
                        trials=150_000, seed=1002)
    assert vtw.lhs >= vtw.rhs - 3 * vtw.lhs_stderr
    margin = vtw.lhs - vtw.rhs

    _line(10, "van Trees bounds",
          f"plain version C reproduces 1/(n + 1/tau^2) = {classic:.6f} within "
          f"1e-6; weighted version C holds with margin {margin:.3f} at 3se")


def test_criterion_11_cli_determinism(tmp_path):
    spec = {
        "schema": 1,
        "seed": 7,
        "distributions": [
            {"family": "gaussian-scalar", "params": {"mu": 0.0, "sigma2": 1.0}},
            {"family": "gaussian-scalar", "params": {"mu": 2.0, "sigma2": 1.0}},
        ],
        "weight": {"kind": "exponential", "gamma": 0.3},
        "quantities": ["tv", "kl", "error-bounds"],
    }
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))

    def run(args):
        return subprocess.run([sys.executable, "-m", "winfer.cli"] + args,
                              capture_output=True, text=True)

    c1 = run(["compute", str(path), "--reproducible"])
    c2 = run(["compute", str(path), "--reproducible"])
    assert c1.returncode == c2.returncode == 0
    assert c1.stdout == c2.stdout and c1.stdout

    v1 = run(["verify", "--suite", "tv-oracle", "--instances", "50",
              "--seed", "7", "--reproducible"])
    v2 = run(["verify", "--suite", "tv-oracle", "--instances", "50",
              "--seed", "7", "--reproducible"])
    assert v1.returncode == v2.returncode == 0
    assert v1.stdout == v2.stdout and v1.stdout

    _line(11, "CLI determinism",
          "compute and verify reports byte-identical across two runs")
