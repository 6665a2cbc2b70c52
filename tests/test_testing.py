"""Optimal weighted error-losses, bound chains, products, and the exponent."""

import itertools
import math

import mpmath
import numpy as np
import pytest
from scipy.special import logsumexp

from winfer import testing
from winfer.core import Distribution, IntegrationConfig, WeightFunction
from winfer.divergence import HypothesisProblem, kl, quantity, weight_mass
from winfer.errors import (
    DomainMismatchError,
    EnumerationTooLargeError,
    IllegalParameterError,
    InfiniteKLError,
)
from winfer.randinst import (
    random_continuous_problem,
    random_finite_problem,
    random_finite_tables,
    random_interior_finite_problem,
)
from winfer.testing import (
    DecisionRule,
    ProductProblem,
    TiltedPair,
    error_bound_report,
    error_losses,
    min_total_error,
    nfold_error_bounds,
    optimal_rule,
    stein_sanov_empirical,
    stein_sanov_limit,
)

CFG = IntegrationConfig()


# ---------------------------------------------------------------------------
# oracles for the enumeration over types
# ---------------------------------------------------------------------------

def compositions(n, m):
    """All count vectors k >= 0 with sum k = n, recursively, in lexicographic order."""
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, m - 1):
            yield (first,) + rest


def stars_and_bars(n, m):
    """The (C, m) float table of ``compositions(n, m)``: m - 1 bars take m - 1
    of n + m - 1 slots in ``itertools.combinations`` order, and the gaps
    between them are the counts."""
    if m == 1:
        return np.full((1, 1), float(n))
    size = math.comb(n + m - 1, m - 1)
    bars = np.full((size, m + 1), n + m - 1, dtype=np.intp)
    bars[:, 0] = -1
    bars[:, 1:m] = np.fromiter(itertools.combinations(range(n + m - 1), m - 1),
                               dtype=np.dtype((np.intp, m - 1)), count=size)
    return (np.diff(bars, axis=1) - 1).astype(float)


def product_problem_explicit(pp):
    """The n-fold product problem over the m^n product alphabet (Kronecker tables)."""
    p, q, w = pp.base.tables()
    pn, qn, wn = p.copy(), q.copy(), w.copy()
    for _ in range(pp.n - 1):
        pn = np.kron(pn, p)
        qn = np.kron(qn, q)
        wn = np.kron(wn, w)
    return HypothesisProblem(Distribution.from_pmf(pn / pn.sum()),
                             Distribution.from_pmf(qn / qn.sum()),
                             WeightFunction.table(wn))


def mp_exact_inf(prob, n, dps=40):
    """sum over types of min(A_k, B_k) in mpmath at ``dps`` digits."""
    p, q, w = prob.tables()
    with mpmath.workdps(dps):
        sp = mpmath.fsum(mpmath.mpf(float(v)) for v in p)
        sq = mpmath.fsum(mpmath.mpf(float(v)) for v in q)
        a_letter = [mpmath.mpf(float(wi)) * mpmath.mpf(float(pi)) / sp for wi, pi in zip(w, p)]
        b_letter = [mpmath.mpf(float(wi)) * mpmath.mpf(float(qi)) / sq for wi, qi in zip(w, q)]
        total = mpmath.mpf(0)
        for k in compositions(n, len(p)):
            coef = mpmath.factorial(n)
            a = b = mpmath.mpf(1)
            for ki, al, bl in zip(k, a_letter, b_letter):
                coef /= mpmath.factorial(ki)
                a *= al ** ki
                b *= bl ** ki
            total += coef * min(a, b)
        return total


class TestTypes:
    @pytest.mark.parametrize("n, m", [(0, 1), (5, 1), (0, 2), (0, 4), (1, 3), (7, 2),
                                      (13, 3), (30, 4), (200, 3), (10, 6)])
    def test_matches_the_recursion_row_for_row(self, n, m):
        counts, log_coef = testing._types(n, m)
        want = np.array(list(compositions(n, m)), dtype=float).reshape(-1, m)
        assert counts.shape == (math.comb(n + m - 1, m - 1), m)
        assert np.array_equal(counts, want)
        log_sizes = [math.log(math.factorial(n) // math.prod(math.factorial(int(v)) for v in k))
                     for k in want]
        assert log_coef == pytest.approx(log_sizes, rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_equals_stars_and_bars_bit_for_bit(self, m):
        """Every n <= 60 the caps admit, and the benchmark's n at m = 2 and 3.

        Below m = 5 against the ``itertools`` oracle.  From m = 5 on, where
        that oracle is slow, the table is checked to have comb(n + m - 1, m - 1)
        rows of whole counts, none negative (nor -0.0), each summing to n, in
        strictly increasing lexicographic order: that many distinct such rows
        are all the types, and the order makes the table the oracle's, bit for
        bit."""
        checked = 0
        for n in list(range(61)) + ([100, 200] if m in (2, 3) else []):
            size = math.comb(n + m - 1, m - 1)
            if size > testing._COMPOSITION_CAP or size * m > testing._TYPE_CELL_CAP:
                with pytest.raises(EnumerationTooLargeError):
                    testing._types(n, m)
                continue
            counts, _ = testing._types(n, m)
            assert counts.dtype == np.float64 and counts.shape == (size, m)
            if m < 5:
                assert counts.tobytes() == stars_and_bars(n, m).tobytes(), (n, m)
            else:
                assert not np.any(np.signbit(counts)), (n, m)
                assert np.array_equal(counts, np.floor(counts)), (n, m)
                assert np.all(counts.sum(axis=1) == n), (n, m)
                step = np.diff(counts, axis=0)
                lead = step[np.arange(size - 1), (step != 0).argmax(axis=1)]
                assert np.all(lead > 0), (n, m)
            checked += 1
        assert checked >= 20

    def test_zero_mass_letter(self):
        counts, log_coef = testing._types(3, 2)
        ll = testing._count_loglik(counts, log_coef, np.array([0.5, 0.0]))
        assert np.all(ll[:-1] == -np.inf)
        assert ll[-1] == pytest.approx(3 * math.log(0.5))


def binary_problem():
    return HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                             Distribution.from_pmf([0.25, 0.75]),
                             WeightFunction.table([2.0, 1.0]))


class TestErrorLosses:
    def test_never_reject(self):
        prob = binary_problem()
        a, b = error_losses(prob, DecisionRule(values=np.zeros(2)), CFG)
        assert a == 0.0
        assert b == pytest.approx(weight_mass(prob.q, prob.wf, CFG), abs=1e-15)

    def test_always_reject(self):
        prob = binary_problem()
        a, b = error_losses(prob, DecisionRule(values=np.ones(2)), CFG)
        assert a == pytest.approx(weight_mass(prob.p, prob.wf, CFG), abs=1e-15)
        assert b == 0.0

    def test_hand_evaluated_indicator(self):
        prob = binary_problem()
        a, b = error_losses(prob, optimal_rule(prob), CFG)
        assert (a, b) == (pytest.approx(0.5), pytest.approx(0.5))

    def test_rule_range_validated(self):
        with pytest.raises(Exception):
            DecisionRule(values=np.array([0.5, 1.5]))

    def test_continuous_rule(self):
        prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                 Distribution.gaussian(2.0, 1.0),
                                 WeightFunction.constant(1.0))
        a, b = error_losses(prob, optimal_rule(prob), CFG)
        # indicator of x > 1: alpha = P(N(0,1) > 1), beta = P(N(2,1) <= 1)
        from scipy.stats import norm
        assert a == pytest.approx(norm.sf(1.0), rel=1e-8)
        assert b == pytest.approx(norm.cdf(-1.0), rel=1e-8)


class TestOptimalRule:
    def test_identical_densities_never_reject(self):
        p = Distribution.from_pmf([0.5, 0.5])
        rule = optimal_rule(HypothesisProblem(p, p, WeightFunction.constant(1.0)))
        np.testing.assert_array_equal(rule.values, [0.0, 0.0])

    def test_componentwise_comparison(self):
        rule = optimal_rule(binary_problem())
        np.testing.assert_array_equal(rule.values, [0.0, 1.0])

    def test_gaussian_midpoint_threshold(self):
        prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                 Distribution.gaussian(2.0, 1.0),
                                 WeightFunction.absolute())
        rule = optimal_rule(prob)
        assert rule(np.array([0.9]))[0] == 0.0
        assert rule(np.array([1.1]))[0] == 1.0


class TestMinTotalError:
    def test_identical_unit_weight(self):
        p = Distribution.from_pmf([0.5, 0.5])
        prob = HypothesisProblem(p, p, WeightFunction.constant(1.0))
        assert min_total_error(prob, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_brute_force_over_deterministic_rules(self):
        prob = binary_problem()
        p, q, w = prob.tables()
        best = min(float(np.sum(w * p * d) + np.sum(w * q * (1 - d)))
                   for d in (np.array(b) for b in
                             ([0, 0], [0, 1], [1, 0], [1, 1])))
        assert best == pytest.approx(1.0)
        assert min_total_error(prob, CFG) == pytest.approx(best, abs=1e-12)

    def test_perfectly_separable(self):
        prob = HypothesisProblem(Distribution.from_pmf([1.0, 0.0]),
                                 Distribution.from_pmf([0.0, 1.0]),
                                 WeightFunction.constant(1.0))
        assert min_total_error(prob, CFG) == pytest.approx(0.0, abs=1e-12)

    def test_randomized_rules_never_beat_it(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            prob = random_finite_problem(rng, 5)
            floor = min_total_error(prob, CFG)
            for _ in range(10):
                d = DecisionRule(values=rng.uniform(0, 1, 5))
                a, b = error_losses(prob, d, CFG)
                assert a + b >= floor - 1e-12


class TestBoundReport:
    def test_identical_unit_weight_collapse(self):
        p = Distribution.from_pmf([0.5, 0.5])
        rep = error_bound_report(HypothesisProblem(p, p, WeightFunction.constant(1.0)), CFG)
        assert rep.delta == pytest.approx(1.0)
        assert rep.rho == pytest.approx(1.0)
        assert rep.lower_affinity == pytest.approx(0.5)
        assert rep.lower_sqrt == pytest.approx(1.0)
        assert rep.min_total == pytest.approx(1.0)
        assert not rep.violations

    def test_random_sweep_chain_holds(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rep = error_bound_report(random_finite_problem(rng, 6), CFG)
            chain = [v for v in rep.violations if "bretagnolle" not in v
                     and "pinsker" not in v]
            assert not chain, rep.violations

    def test_gaussian_unit_weight_bh(self):
        prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                 Distribution.gaussian(3.0, 1.0),
                                 WeightFunction.constant(1.0))
        rep = error_bound_report(prob, CFG)
        assert rep.kl == pytest.approx(4.5, rel=1e-9)
        assert rep.bh_printed_bound == pytest.approx(math.sqrt(1 - math.exp(-4.5)), rel=1e-9)
        assert rep.tau <= rep.bh_printed_bound
        assert rep.tau <= rep.bh_corrected_bound

    def test_small_constant_weight_breaks_printed_bh_only(self):
        # with phi = c < 1 the unit-mass form tau^2 + e^{-K} <= Delta^2 fails;
        # the weight-mass-aware form still holds
        prob = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([0.25, 0.75]),
                                 WeightFunction.constant(0.1))
        rep = error_bound_report(prob, CFG)
        assert not rep.bh_printed_applicable
        assert math.isnan(rep.bh_printed_bound) or rep.tau > rep.bh_printed_bound
        assert rep.tau <= rep.bh_corrected_bound
        assert not rep.violations


    @pytest.mark.parametrize("make", [
        lambda: random_finite_problem(np.random.default_rng(3), 7),
        lambda: HypothesisProblem(Distribution.poisson(2.5), Distribution.poisson(4.0),
                                  WeightFunction.exponential(0.2)),
        lambda: HypothesisProblem(Distribution.gamma(2.0, 1.0), Distribution.gamma(0.7, 1.5),
                                  WeightFunction.absolute()),
        lambda: HypothesisProblem(
            Distribution.gaussian_mv([0.0, 0.3], [[1.0, 0.2], [0.2, 0.8]]),
            Distribution.gaussian_mv([0.4, -0.1], [[1.3, 0.0], [0.0, 0.6]]),
            WeightFunction.exponential([0.1, -0.2])),
    ], ids=["finite", "poisson", "gamma", "vector"])
    def test_fields_equal_the_quantities_bit_for_bit(self, make):
        """One integrals call for the report, one fresh problem per quantity."""
        rep = error_bound_report(make(), CFG)
        fresh = [quantity(make(), name, CFG).value
                 for name in ("delta", "bhattacharyya-coeff", "tv", "hellinger", "kl")]
        assert [rep.delta, rep.rho, rep.tau, rep.eta, rep.kl] == fresh
        prob = make()
        assert (rep.ep, rep.eq) == (weight_mass(prob.p, prob.wf, CFG),
                                    weight_mass(prob.q, prob.wf, CFG))


def _mixed_instances(rng, count, continuous_share=0.1):
    """The bound-chain suites' instances as one problem each, in their draw
    order: catalog pairs, then finite alphabets of size 2 <= m <= 8."""
    n_cont = int(round(count * continuous_share))
    for i in range(count):
        if i < n_cont:
            yield random_continuous_problem(rng)
        else:
            yield random_finite_problem(rng, int(rng.integers(2, 9)))


def _per_instance_reports(rng, count, cfg):
    """The oracle of ``verify._mixed_reports``: ``error_bound_report`` on each
    problem, and its swapped kl from a problem built on (q, p)."""
    for prob in _mixed_instances(rng, count):
        yield error_bound_report(prob, cfg), (lambda prob=prob: quantity(
            HypothesisProblem(prob.q, prob.p, prob.wf), "kl", cfg).value)


def _stacked(tables):
    return tuple(np.stack([t[k] for t in tables]) for k in range(3))


class TestStackedBoundReports:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("suite,count", [("chain", 1000), ("pinsker", 500),
                                             ("bretagnolle-huber", 500)])
    def test_suites_equal_the_per_instance_oracle(self, suite, count, seed, monkeypatch):
        """At the benchmark's scales, each suite's report from stacked tables
        equals, byte for byte, the one built on a problem per instance."""
        from winfer import verify
        stacked = verify.run_suite(suite, count, seed).to_dict()
        monkeypatch.setattr(verify, "_mixed_reports", _per_instance_reports)
        assert repr(stacked) == repr(verify.run_suite(suite, count, seed).to_dict())

    def test_reports_come_in_draw_order(self):
        """Instance by instance, the stacked generator yields the oracle's
        report and swapped kl, bit for bit."""
        from winfer.verify import _mixed_reports
        got = _mixed_reports(np.random.default_rng(3), 300, CFG)
        want = _per_instance_reports(np.random.default_rng(3), 300, CFG)
        for (r, kq), (r0, kq0) in itertools.zip_longest(got, want, fillvalue=(None, None)):
            assert repr(r) == repr(r0) and repr(kq()) == repr(kq0())

    @pytest.mark.parametrize("m", range(2, 9))
    def test_kernel_rows_equal_the_lone_problems(self, m):
        """Each row of one ``finite_sums`` call is ``integrals`` on that row's
        problem, bit for bit, zero entries and support violations included."""
        from winfer.divergence import finite_sums, integrals
        rng = np.random.default_rng(m)
        tables = [random_finite_tables(rng, m) for _ in range(12)]
        for p, q, _ in tables[:4]:  # p = 0 on a letter, then q = 0 on another
            p[0], q[-1] = 0.0, 0.0
            p /= p.sum()
            q /= q.sum()
        names = [("mass", "p"), ("mass", "q"), "tv", "hellinger", "kl", ("chernoff", 0.5),
                 ("chernoff", 0.3), ("shannon", "q"), ("renyi-mass", "p", 0.7)]
        rows = np.array(finite_sums(*_stacked(tables), names)).T.tolist()
        for row, (p, q, w) in zip(rows, tables):
            prob = HypothesisProblem(Distribution.from_pmf(p), Distribution.from_pmf(q),
                                     WeightFunction.table(w))
            assert row == [v for v, _ in integrals(prob, CFG, names)]
        assert any(math.isinf(row[4]) for row in rows)

    def test_reports_equal_the_lone_problems(self):
        rng = np.random.default_rng(5)
        tables = [random_finite_tables(rng, 4) for _ in range(40)]
        got = list(testing.finite_bound_reports(*_stacked(tables)))
        assert [repr(r) for r in got] == [repr(error_bound_report(HypothesisProblem(
            Distribution.from_pmf(p), Distribution.from_pmf(q), WeightFunction.table(w)), CFG))
            for p, q, w in tables]

    @pytest.mark.parametrize("defect", ["negative entry", "sum off by 1e-11", "inf weight",
                                        "length mismatch"])
    def test_invalid_tables_are_refused_as_the_constructors_refuse_them(self, defect):
        p = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3]])
        q, w = p[::-1].copy(), np.ones((2, 3))
        if defect == "negative entry":
            p[1] = [0.6, 0.6, -0.2]
            build = lambda: Distribution.from_pmf(p[1])
        elif defect == "sum off by 1e-11":
            q[0, 0] += 1e-11
            build = lambda: Distribution.from_pmf(q[0])
        elif defect == "inf weight":
            w[1, 2] = math.inf
            build = lambda: WeightFunction(kind="table", values=tuple(w[1]))
        else:
            w = w[:, :2]
            build = None
        with pytest.raises(IllegalParameterError):
            testing.finite_bound_reports(p, q, w)
        if build is not None:
            with pytest.raises(IllegalParameterError):
                build()


class TestPinskerSuite:
    def test_the_swapped_pair_covers_what_the_direct_one_skips(self):
        """Each instance the direct hypothesis skips is checked as (q, p): its
        margin is the swapped problem's own Pinsker margin, bit for bit."""
        from winfer.verify import run_suite
        rep = run_suite("pinsker", 200, 0)
        assert rep.passed and rep.hypothesis_failures == 0
        swapped = []
        for prob in _mixed_instances(np.random.default_rng(0), 200):
            r = error_bound_report(prob, CFG)
            if r.pinsker_applicable and math.isfinite(r.kl):
                continue
            s = error_bound_report(HypothesisProblem(prob.q, prob.p, prob.wf), CFG)
            assert s.pinsker_applicable and math.isfinite(s.kl) and s.tau == r.tau
            swapped.append(s.pinsker_bound - s.tau)
        assert 0 < len(swapped) == rep.margins["swapped_checked"] < 200
        assert min(swapped) == rep.margins["min_margin_swapped"] > 0


class TestNfoldBounds:
    def test_reduces_at_n_one(self):
        prob = binary_problem()
        b = nfold_error_bounds(ProductProblem(prob, 1), CFG)
        rep = error_bound_report(prob, CFG)
        assert b.exact_inf == pytest.approx(rep.min_total, abs=1e-12)
        assert b.lower == pytest.approx(rep.rho ** 2 / (2 * rep.delta), abs=1e-12)
        assert b.upper == pytest.approx(rep.rho, abs=1e-12)

    def test_binary_tenfold_sandwich(self):
        prob = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([0.25, 0.75]),
                                 WeightFunction.constant(1.0))
        b = nfold_error_bounds(ProductProblem(prob, 10), CFG)
        assert b.exact_inf is not None
        assert b.lower <= b.exact_inf <= b.upper
        assert b.upper == pytest.approx(b.rho ** 10, abs=1e-12)

    def test_small_delta_exponential_bound(self):
        rng = np.random.default_rng(11)
        checked = 0
        for _ in range(40):
            prob = random_finite_problem(rng, 3, weight_span=0.4)
            b = nfold_error_bounds(ProductProblem(prob, int(rng.integers(2, 8))), CFG)
            if b.upper_eta is not None and b.exact_inf is not None:
                checked += 1
                assert b.exact_inf <= b.upper_eta + 1e-12
        assert checked > 0

    def test_asymptotic_lower_gate_excludes_negative_kl(self):
        """A weighted KL K < 0 makes exp(-n E_p^{n-1} K) explode, so the
        asymptotic lower bound exceeds the exact value; the nfold suite's gate
        must leave such a draw out although E_phi(p) >= 1 and n >= 20."""
        from winfer.verify import _asymptotic_lower_applies
        rng = np.random.default_rng(7)
        for _ in range(200):
            prob = HypothesisProblem(Distribution.from_pmf(rng.dirichlet(np.ones(2))),
                                     Distribution.from_pmf(rng.dirichlet(np.ones(2))),
                                     WeightFunction.table(np.exp(rng.uniform(-1, 1, 2))))
            b = nfold_error_bounds(ProductProblem(prob, int(rng.integers(20, 60))), CFG)
            if (b.ep >= 1.0 and b.kl < 0 and math.isfinite(b.asymptotic_lower)
                    and b.asymptotic_lower > b.exact_inf):
                break
        else:
            pytest.fail("no seeded draw with K < 0 violates the bound")
        assert b.n >= 20
        assert not _asymptotic_lower_applies(b)

    def test_product_cap(self):
        # types, not sequences, are enumerated: 10^12 sequences are 293,930 types
        prob = HypothesisProblem(Distribution.from_pmf(np.full(10, 0.1)),
                                 Distribution.from_pmf(np.full(10, 0.1)),
                                 WeightFunction.constant(1.0))
        b = nfold_error_bounds(ProductProblem(prob, 12), CFG)
        assert b.exact_error == ""
        assert b.exact_inf == pytest.approx(1.0, rel=1e-12)  # p == q
        b = nfold_error_bounds(ProductProblem(prob, 40), CFG)
        assert b.exact_inf is None and b.exact_error == "too-many-types"
        # the (types, m) count table is capped too: 4000 types of 4000 letters
        wide = HypothesisProblem(Distribution.from_pmf(np.full(4000, 1 / 4000)),
                                 Distribution.from_pmf(np.full(4000, 1 / 4000)),
                                 WeightFunction.constant(1.0))
        b = nfold_error_bounds(ProductProblem(wide, 1), CFG)
        assert b.exact_inf is None and b.exact_error == "too-many-types"

    def test_types_equal_the_kronecker_oracle(self):
        rng = np.random.default_rng(606)
        problems = [random_finite_problem(rng, int(rng.integers(2, 5))) for _ in range(12)]
        problems.append(HypothesisProblem(Distribution.from_pmf([0.5, 0.0, 0.5]),
                                          Distribution.from_pmf([0.2, 0.3, 0.5]),
                                          WeightFunction.table([1.5, 2.0, 0.7])))
        problems.append(HypothesisProblem(Distribution.from_pmf([0.3, 0.3, 0.4]),
                                          Distribution.from_pmf([0.5, 0.1, 0.4]),
                                          WeightFunction.table([1.5, 0.0, 0.7])))
        checked = 0
        for prob in problems:
            m = prob.support.m
            for n in range(1, 10):
                if m ** n > 10_000:
                    break
                pp = ProductProblem(prob, n)
                full = product_problem_explicit(pp)
                pn, qn, wn = full.tables()
                got = nfold_error_bounds(pp, CFG).exact_inf
                assert got == pytest.approx(np.minimum(wn * pn, wn * qn).sum(), rel=1e-12)
                # Delta_n - tau_n on the Kronecker tables loses digits to cancellation
                assert got == pytest.approx(min_total_error(full, CFG), rel=1e-9)
                checked += 1
        assert checked > 50

    @pytest.mark.parametrize("m, n", [(2, 400), (3, 60)])
    def test_types_equal_mpmath_beyond_kronecker(self, m, n):
        rng = np.random.default_rng(100 * m + n)
        p = rng.dirichlet(np.ones(m))
        q = 0.9 * p + 0.1 * rng.dirichlet(np.ones(m))
        w = np.exp(rng.uniform(-0.1, 0.1, m))
        prob = HypothesisProblem(Distribution.from_pmf(p), Distribution.from_pmf(q),
                                 WeightFunction.table(w))
        got = nfold_error_bounds(ProductProblem(prob, n), CFG).exact_inf
        want = mp_exact_inf(prob, n)
        assert abs(got - want) <= 1e-12 * want

    def test_sandwich_at_m3_n200(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            b = nfold_error_bounds(ProductProblem(random_finite_problem(rng, 3), 200), CFG)
            assert b.exact_inf is not None
            assert b.lower <= b.exact_inf <= b.upper

    def test_non_finite_base_is_refused(self):
        prob = HypothesisProblem(Distribution.exponential(1.0), Distribution.exponential(2.0),
                                 WeightFunction.constant(1.0))
        with pytest.raises(DomainMismatchError):
            nfold_error_bounds(ProductProblem(prob, 3), CFG)

    def test_product_tables_are_consistent(self):
        prob = binary_problem()
        full = product_problem_explicit(ProductProblem(prob, 3))
        assert full.support.m == 8
        p, q, w = full.tables()
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        # spot outcome (0,1,1): p = .5^3, q = .25*.75^2, w = 2*1*1
        assert p[3] == pytest.approx(0.125)
        assert q[3] == pytest.approx(0.25 * 0.75 * 0.75)
        assert w[0] == pytest.approx(8.0) and w[7] == pytest.approx(1.0)


class TestTiltedPair:
    def test_normalization_and_means(self):
        prob = binary_problem()
        tp = TiltedPair.from_problem(prob, CFG)
        assert tp.pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert tp.vartheta.sum() == pytest.approx(1.0, abs=1e-12)
        kv_pq = kl(prob, CFG).value
        kv_qp = kl(HypothesisProblem(p=prob.q, q=prob.p, wf=prob.wf), CFG).value
        assert tp.mean_pi == pytest.approx(kv_pq / tp.ep, abs=1e-12)
        assert tp.mean_vartheta == pytest.approx(-kv_qp / tp.eq, abs=1e-12)

    def test_requires_interior_pmfs(self):
        prob = HypothesisProblem(Distribution.from_pmf([1.0, 0.0]),
                                 Distribution.from_pmf([0.5, 0.5]),
                                 WeightFunction.constant(1.0))
        with pytest.raises(InfiniteKLError):
            TiltedPair.from_problem(prob, CFG)


# scipy's logsumexp now splits out the max terms (the log1p form); older
# versions computed ln sum exp(a - max) + max, which rounds e^-40 away
needs_log1p_logsumexp = pytest.mark.skipif(
    logsumexp([0.0, -40.0]) == 0.0,
    reason="the installed scipy.special.logsumexp predates the log1p form "
           "that testing._logsumexp repeats")


def lse_cases(seed, count, max_size):
    """Random 1-D arrays: log-uniform sizes, ties at the max, -inf entries,
    offsets up to +-700."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        size = int(np.exp(rng.uniform(0.0, math.log(max_size + 1))))
        a = rng.normal(0.0, rng.choice([0.5, 5.0, 50.0]), size) + rng.uniform(-700.0, 700.0)
        if size > 1 and rng.random() < 0.5:  # ties at the max
            a[rng.choice(size, rng.integers(1, size), replace=False)] = a.max()
        if rng.random() < 0.3:
            a[rng.random(size) < 0.2] = -np.inf
        yield a


class TestLogSumExp:
    @needs_log1p_logsumexp
    def test_bits_equal_scipy(self):
        for a in lse_cases(0, 2000, 5000):
            got, want = testing._logsumexp(a), float(logsumexp(a))
            assert got == want or math.isnan(got) and math.isnan(want), a

    @needs_log1p_logsumexp
    @pytest.mark.parametrize("a", [[-np.inf], [-np.inf] * 3, [np.inf], [1.0, np.inf, np.inf],
                                   [np.inf, -np.inf], [np.nan], [0.0, np.nan], [np.nan, np.inf],
                                   [-np.inf, 3.0], [2.5], [-745.0], [700.0, 700.0]])
    def test_edge_inputs_equal_scipy(self, a):
        a = np.array(a)
        got, want = testing._logsumexp(a), float(logsumexp(a))
        assert got == want or math.isnan(got) and math.isnan(want)

    def test_single_term_is_itself(self):
        for v in (-1e300, -700.0, -0.0, 1e-300, 3.25, 709.0):
            assert testing._logsumexp(np.array([v])) == v

    def test_matches_a_50_digit_oracle(self):
        with mpmath.workdps(50):
            for a in lse_cases(1, 200, 300):
                if np.all(a == -np.inf):
                    continue
                ref = float(mpmath.log(mpmath.fsum(mpmath.exp(mpmath.mpf(float(v)))
                                                   for v in a if v > -np.inf)))
                assert testing._logsumexp(a) == pytest.approx(ref, rel=1e-15, abs=0)


class TestSteinSanov:
    def test_limit_unit_weight_is_minus_kl(self):
        prob = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([0.25, 0.75]),
                                 WeightFunction.constant(1.0))
        assert stein_sanov_limit(prob, CFG) == pytest.approx(
            -kl(prob, CFG).value, abs=1e-12)

    def test_limit_identical_is_log_mass(self):
        p = Distribution.from_pmf([0.5, 0.5])
        prob = HypothesisProblem(p, p, WeightFunction.table([2.0, 1.0]))
        assert stein_sanov_limit(prob, CFG) == pytest.approx(math.log(1.5), abs=1e-12)

    def test_limit_weighted_hand_value(self):
        # ln E_phi(p) - K / E_phi(p) from exact sums
        prob = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([0.25, 0.75]),
                                 WeightFunction.table([2.0, 1.0]))
        ep = 1.5
        kv = 2 * 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        assert stein_sanov_limit(prob, CFG) == pytest.approx(
            math.log(ep) - kv / ep, abs=1e-12)

    def test_infinite_kl_rejected(self):
        prob = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([1.0, 0.0]),
                                 WeightFunction.constant(1.0))
        with pytest.raises(InfiniteKLError):
            stein_sanov_limit(prob, CFG)

    def test_identical_rate_is_log_mass_exactly(self):
        p = Distribution.from_pmf([0.5, 0.5])
        prob = HypothesisProblem(p, p, WeightFunction.table([2.0, 1.0]))
        est, = stein_sanov_empirical(ProductProblem(prob, 60), (0.05,), "exact", CFG)
        assert est.rate_estimate == pytest.approx(math.log(1.5), abs=1e-12)
        assert est.alpha_attained == pytest.approx(0.0, abs=1e-12)

    def test_binary_plain_rate_near_limit(self):
        prob = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([0.25, 0.75]),
                                 WeightFunction.constant(1.0))
        est, = stein_sanov_empirical(ProductProblem(prob, 100), (0.05,), "exact", CFG)
        assert abs(est.rate_estimate - est.limit) <= 0.05 + 0.05

    def test_binary_weighted_rate_near_limit(self):
        prob = binary_problem()
        est, = stein_sanov_empirical(ProductProblem(prob, 100), (0.05,), "exact", CFG)
        assert est.limit == pytest.approx(stein_sanov_limit(prob, CFG), abs=1e-12)
        assert abs(est.rate_estimate - est.limit) <= 0.05 + 0.05

    def test_monte_carlo_tracks_exact(self):
        prob = binary_problem()
        pp = ProductProblem(prob, 80)
        exact, = stein_sanov_empirical(pp, (0.1,), "exact", CFG)
        mc, = stein_sanov_empirical(pp, (0.1,), "mc", CFG, mc_samples=150_000, mc_seed=5)
        assert mc.rate_estimate == pytest.approx(exact.rate_estimate, abs=5e-3)
        assert mc.alpha_attained == pytest.approx(exact.alpha_attained, abs=5e-3)

    def test_zero_weight_symbol_handled(self):
        # a vanishing weight entry zeroes those count vectors, not the rate
        prob = HypothesisProblem(Distribution.from_pmf([0.4, 0.3, 0.3]),
                                 Distribution.from_pmf([0.3, 0.4, 0.3]),
                                 WeightFunction.table([1.0, 2.0, 0.0]))
        est, = stein_sanov_empirical(ProductProblem(prob, 40), (0.1,), "exact", CFG)
        assert math.isfinite(est.rate_estimate)
        mc, = stein_sanov_empirical(ProductProblem(prob, 40), (0.1,), "mc", CFG,
                                    mc_samples=120_000, mc_seed=8)
        assert mc.rate_estimate == pytest.approx(est.rate_estimate, abs=1e-2)

    @needs_log1p_logsumexp
    def test_sweep_rows_equal_scipy_logsumexp(self):
        """Both branches give the rows that scipy's logsumexp gives on the same
        enumeration or draw, bit for bit."""
        prob = HypothesisProblem(Distribution.from_pmf([0.4, 0.3, 0.3]),
                                 Distribution.from_pmf([0.3, 0.4, 0.3]),
                                 WeightFunction.table([1.0, 2.0, 0.5]))
        n, etas, draws = 60, (0.2, 0.1, 0.05, 0.02), 20_000
        pp = ProductProblem(prob, n)
        tp = TiltedPair.from_problem(prob, CFG)
        _, q, w = prob.tables()
        counts, log_coef = testing._types(n, 3)
        ll_q = testing._count_loglik(counts, log_coef, w * q)
        ll_pi = testing._count_loglik(counts, log_coef, tp.pi)
        for est, eta in zip(stein_sanov_empirical(pp, etas, "exact", CFG), etas):
            inside = np.abs(counts @ tp.z / n - tp.mean_pi) <= eta
            assert est.rate_estimate == float(logsumexp(ll_q[inside])) / n
            assert est.alpha_attained == 1.0 - float(np.exp(logsumexp(ll_pi[inside])))
        zsum = np.random.default_rng(np.random.SeedSequence(4)).multinomial(
            n, tp.pi, size=draws).astype(float) @ tp.z
        for est, eta in zip(stein_sanov_empirical(pp, etas, "mc", CFG, mc_samples=draws,
                                                  mc_seed=4), etas):
            inside = np.abs(zsum / n - tp.mean_pi) <= eta
            log_mean = float(logsumexp(-zsum[inside])) - math.log(draws)
            assert est.rate_estimate == math.log(tp.ep) + log_mean / n
            assert est.alpha_attained == 1.0 - float(np.mean(inside))

    def test_mc_rows_equal_scipy_logsumexp_over_the_draw(self):
        """Summing over the distinct sums of a draw moves each rate by ulps from
        scipy's logsumexp over its samples, and no attained level at all."""
        rng = np.random.default_rng(2020)
        rows, draws = 0, 5_000
        for trial in range(60):
            prob = random_interior_finite_problem(rng, int(rng.integers(2, 5)))
            n = int(rng.integers(20, 201))
            tp = TiltedPair.from_problem(prob, CFG)
            zsum = np.random.default_rng(np.random.SeedSequence(trial)).multinomial(
                n, tp.pi, size=draws).astype(float) @ tp.z
            dev = np.abs(zsum / n - tp.mean_pi)
            etas = [eta for eta in (0.3, 0.1, 0.03, 0.01) if np.any(dev <= eta)]
            got = stein_sanov_empirical(ProductProblem(prob, n), etas, "mc", CFG,
                                        mc_samples=draws, mc_seed=trial)
            for est, eta in zip(got, etas):
                inside = dev <= eta
                want = math.log(tp.ep) + (float(logsumexp(-zsum[inside]))
                                          - math.log(draws)) / n
                assert abs(est.rate_estimate - want) <= 1e-13 * abs(want), (trial, eta)
                assert est.alpha_attained == 1.0 - float(np.mean(inside))
                rows += 1
        assert rows >= 200

    @pytest.mark.parametrize("eta", [0.0, -0.1, math.nan])
    def test_refuses_eta_not_above_zero(self, eta):
        with pytest.raises(IllegalParameterError, match="eta must be > 0"):
            stein_sanov_empirical(ProductProblem(binary_problem(), 25), (0.1, eta), "exact", CFG)

    def test_enumeration_caps(self):
        prob = random_interior_finite_problem(np.random.default_rng(0), 3)
        with pytest.raises(EnumerationTooLargeError):
            stein_sanov_empirical(ProductProblem(prob, 300), (0.05,), "exact", CFG)
        big = random_interior_finite_problem(np.random.default_rng(0), 7)
        with pytest.raises(EnumerationTooLargeError):
            stein_sanov_empirical(ProductProblem(big, 50), (0.05,), "exact", CFG)
