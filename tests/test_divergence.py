"""Weighted distances, divergences, and entropies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winfer.core import Distribution, IntegrationConfig, WeightFunction
from winfer.divergence import (
    QUANTITIES,
    HypothesisProblem,
    bhattacharyya_coeff,
    bhattacharyya_div,
    chernoff_coeff,
    chernoff_div,
    delta,
    hellinger,
    integrals,
    kl,
    quantity,
    renyi_div,
    renyi_entropy,
    renyi_entropy_ext,
    shannon_entropy,
    tsallis_div,
    weight_mass,
    weighted_tv,
    weighted_tv_sup_oracle,
)
from winfer.errors import (
    AlphabetTooLargeError,
    DomainMismatchError,
    IllegalParameterError,
    InfiniteKLError,
    ZeroWeightMassError,
)

CFG = IntegrationConfig()


def binary_problem():
    return HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                             Distribution.from_pmf([0.25, 0.75]),
                             WeightFunction.table([2.0, 1.0]))


def pmf_lists(min_size=2, max_size=8):
    return st.lists(st.floats(0.01, 1.0), min_size=min_size, max_size=max_size)


class TestWeightedTV:
    def test_identity_of_indiscernibles(self):
        p = Distribution.from_pmf([0.4, 0.6])
        prob = HypothesisProblem(p, p, WeightFunction.table([3.0, 0.5]))
        assert weighted_tv(prob, CFG).value == 0.0

    def test_hand_summed_binary(self):
        # (1/2)(2 * 0.25 + 1 * 0.25)
        assert weighted_tv(binary_problem(), CFG).value == pytest.approx(0.375, abs=1e-15)

    def test_sup_oracle_binary(self):
        assert weighted_tv_sup_oracle(binary_problem()) == pytest.approx(0.375, abs=1e-15)

    def test_disjoint_supports_unit_weight(self):
        prob = HypothesisProblem(Distribution.from_pmf([1.0, 0.0]),
                                 Distribution.from_pmf([0.0, 1.0]),
                                 WeightFunction.constant(1.0))
        assert weighted_tv_sup_oracle(prob) == pytest.approx(1.0)
        assert weighted_tv(prob, CFG).value == pytest.approx(1.0)

    def test_oracle_alphabet_cap(self):
        pmf = np.full(21, 1.0 / 21)
        prob = HypothesisProblem(Distribution.from_pmf(pmf),
                                 Distribution.from_pmf(pmf),
                                 WeightFunction.constant(1.0))
        with pytest.raises(AlphabetTooLargeError):
            weighted_tv_sup_oracle(prob)

    def test_gaussian_absolute_weight_quadrature_value(self):
        # pinned by the sup-definition-consistent quadrature oracle; the
        # widely printed (a/2)(1+Erf(a/(2 sqrt 2))) = 1.682689 evaluates the
        # one-sided supremum instead
        prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                 Distribution.gaussian(2.0, 1.0),
                                 WeightFunction.absolute())
        assert weighted_tv(prob, CFG).value == pytest.approx(1.0731410699216889, rel=1e-9)

    def test_poisson_pair_series_path(self):
        lam1, lam2, g = 1.0, 2.0, 0.3
        prob = HypothesisProblem(Distribution.poisson(lam1),
                                 Distribution.poisson(lam2),
                                 WeightFunction.exponential(g))
        dv = weighted_tv(prob, CFG)
        assert dv.method == "series"
        # independent truncated-sum oracle
        from scipy.stats import poisson as sp_poisson
        ls = np.arange(0, 80)
        direct = 0.5 * float(np.sum(np.exp(g * ls) * np.abs(
            sp_poisson(mu=lam1).pmf(ls) - sp_poisson(mu=lam2).pmf(ls))))
        assert dv.value == pytest.approx(direct, rel=1e-11)

    @given(pmf_lists(), pmf_lists(), pmf_lists())
    @settings(max_examples=60, deadline=None)
    def test_metric_axioms(self, ra, rb, rc):
        m = min(len(ra), len(rb), len(rc))
        pa = np.asarray(ra[:m]) / sum(ra[:m])
        pb = np.asarray(rb[:m]) / sum(rb[:m])
        pc = np.asarray(rc[:m]) / sum(rc[:m])
        w = WeightFunction.table(np.linspace(0.5, 2.0, m))
        def tv(x, y):
            return weighted_tv(HypothesisProblem(
                Distribution.from_pmf(x), Distribution.from_pmf(y), w), CFG).value
        ab, ba = tv(pa, pb), tv(pb, pa)
        assert ab == ba  # symmetry, exact
        assert ab >= 0.0
        assert tv(pa, pc) <= tv(pa, pb) + tv(pb, pc) + 1e-12
        assert tv(pa, pa) == 0.0

    @given(pmf_lists(max_size=10), pmf_lists(max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_matches_sup_oracle(self, ra, rb):
        m = min(len(ra), len(rb))
        pa = np.asarray(ra[:m]) / sum(ra[:m])
        pb = np.asarray(rb[:m]) / sum(rb[:m])
        prob = HypothesisProblem(Distribution.from_pmf(pa),
                                 Distribution.from_pmf(pb),
                                 WeightFunction.table(np.linspace(2.0, 0.5, m)))
        assert abs(weighted_tv(prob, CFG).value
                   - weighted_tv_sup_oracle(prob)) <= 1e-12


class TestDeltaHellingerAffinity:
    def test_delta_unit_weight(self):
        prob = HypothesisProblem(Distribution.from_pmf([0.3, 0.7]),
                                 Distribution.from_pmf([0.6, 0.4]),
                                 WeightFunction.constant(1.0))
        assert delta(prob, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_delta_hand_sum(self):
        assert delta(binary_problem(), CFG) == pytest.approx(1.375, abs=1e-15)

    def test_delta_gaussian_mgf(self):
        g = 0.7
        p = Distribution.gaussian(0.0, 1.0)
        prob = HypothesisProblem(p, p, WeightFunction.exponential(g))
        assert delta(prob, CFG) == pytest.approx(math.exp(g * g / 2), rel=1e-10)

    def test_hellinger_identical(self):
        p = Distribution.from_pmf([0.2, 0.8])
        prob = HypothesisProblem(p, p, WeightFunction.table([1.0, 3.0]))
        assert hellinger(prob, CFG) == 0.0

    def test_hellinger_disjoint(self):
        prob = HypothesisProblem(Distribution.from_pmf([1.0, 0.0]),
                                 Distribution.from_pmf([0.0, 1.0]),
                                 WeightFunction.constant(1.0))
        assert hellinger(prob, CFG) == pytest.approx(1.0)

    def test_hellinger_hand_computation(self):
        expected_sq = 0.5 * (2.0 * (math.sqrt(0.5) - math.sqrt(0.25)) ** 2
                             + 1.0 * (math.sqrt(0.5) - math.sqrt(0.75)) ** 2)
        assert hellinger(binary_problem(), CFG) == pytest.approx(
            math.sqrt(expected_sq), abs=1e-15)

    def test_affinity_of_identical_unit_weight(self):
        p = Distribution.from_pmf([0.3, 0.7])
        prob = HypothesisProblem(p, p, WeightFunction.constant(1.0))
        assert bhattacharyya_coeff(prob, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_affinity_disjoint(self):
        prob = HypothesisProblem(Distribution.from_pmf([1.0, 0.0]),
                                 Distribution.from_pmf([0.0, 1.0]),
                                 WeightFunction.constant(1.0))
        assert bhattacharyya_coeff(prob, CFG) == 0.0

    def test_gaussian_affinity(self):
        a = 1.7
        prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                 Distribution.gaussian(a, 1.0),
                                 WeightFunction.constant(1.0))
        assert bhattacharyya_coeff(prob, CFG) == pytest.approx(
            math.exp(-a * a / 8), rel=1e-10)

    def test_unit_weight_gaussian_hellinger_closed_form(self):
        a = 1.3
        prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                 Distribution.gaussian(a, 1.0),
                                 WeightFunction.constant(1.0))
        assert hellinger(prob, CFG) == pytest.approx(
            math.sqrt(1.0 - math.exp(-a * a / 8)), rel=1e-10)

    @given(pmf_lists(), pmf_lists())
    @settings(max_examples=60, deadline=None)
    def test_affinity_mass_identity(self, ra, rb):
        # rho = Delta - eta^2 on every instance
        m = min(len(ra), len(rb))
        prob = HypothesisProblem(
            Distribution.from_pmf(np.asarray(ra[:m]) / sum(ra[:m])),
            Distribution.from_pmf(np.asarray(rb[:m]) / sum(rb[:m])),
            WeightFunction.table(np.linspace(0.3, 1.8, m)))
        rho = bhattacharyya_coeff(prob, CFG)
        dl = delta(prob, CFG)
        eta = hellinger(prob, CFG)
        assert rho == pytest.approx(dl - eta * eta, abs=1e-12)
        assert 0.0 <= rho <= dl + 1e-12


class TestKL:
    def test_identical(self):
        p = Distribution.from_pmf([0.25, 0.75])
        prob = HypothesisProblem(p, p, WeightFunction.table([2.0, 1.0]))
        assert kl(prob, CFG).value == 0.0

    def test_support_violation_is_infinite(self):
        prob = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([1.0, 0.0]),
                                 WeightFunction.constant(1.0))
        assert kl(prob, CFG).value == math.inf

    def test_exponential_family_laplace_form(self):
        # lam (ln lam - ln lam') phi_hat(lam) - lam (lam' - lam) phi_hat'(lam),
        # with phi_hat(s) = 1 / (s - g) the Laplace transform of e^{gx}
        lam, lam_p, g = 2.0, 3.0, 0.5
        wf = WeightFunction.exponential(g)
        prob = HypothesisProblem(Distribution.exponential(lam),
                                 Distribution.exponential(lam_p), wf)
        phi_hat, phi_hat_prime = 1.0 / (lam - g), -1.0 / (lam - g) ** 2
        expected = lam * (math.log(lam) - math.log(lam_p)) * phi_hat \
            - lam * (lam_p - lam) * phi_hat_prime
        assert kl(prob, CFG).value == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.3482687447446695, rel=1e-12)

    def test_unit_weight_gaussian_closed_form(self):
        mu, mu2, s2, s2b = 0.3, -0.5, 1.2, 0.7
        prob = HypothesisProblem(Distribution.gaussian(mu, s2),
                                 Distribution.gaussian(mu2, s2b),
                                 WeightFunction.constant(1.0))
        expected = 0.5 * (math.log(s2b / s2) + (s2 + (mu - mu2) ** 2) / s2b - 1.0)
        assert kl(prob, CFG).value == pytest.approx(expected, rel=1e-10)

    def test_gibbs_inequality_under_mass_ordering(self):
        # K >= 0 whenever E_phi(p) >= E_phi(q); equality iff phi p = phi q a.e.
        rng = np.random.default_rng(23)
        asserted = 0
        for _ in range(300):
            m = int(rng.integers(2, 7))
            p = rng.dirichlet(np.ones(m))
            q = rng.dirichlet(np.ones(m))
            w = np.exp(rng.uniform(-1.5, 1.5, m))
            prob = HypothesisProblem(Distribution.from_pmf(p),
                                     Distribution.from_pmf(q),
                                     WeightFunction.table(w))
            if weight_mass(prob.p, prob.wf, CFG) >= weight_mass(prob.q, prob.wf, CFG):
                asserted += 1
                assert kl(prob, CFG).value >= -1e-12
        assert asserted > 50
        # exact equality case: the weight kills every coordinate where p != q
        eq = HypothesisProblem(Distribution.from_pmf([0.2, 0.3, 0.5]),
                               Distribution.from_pmf([0.3, 0.3, 0.4]),
                               WeightFunction.table([0.0, 1.0, 0.0]))
        assert kl(eq, CFG).value == 0.0
        near = HypothesisProblem(Distribution.from_pmf([0.2, 0.3, 0.5]),
                                 Distribution.from_pmf([0.3, 0.3, 0.4]),
                                 WeightFunction.table([0.0, 1.0, 0.1]))
        assert kl(near, CFG).value > 0.0


class TestAlphaDivergences:
    def test_chernoff_coeff_identical(self):
        p = Distribution.from_pmf([0.4, 0.6])
        prob = HypothesisProblem(p, p, WeightFunction.table([1.5, 0.5]))
        assert chernoff_coeff(prob, 0.3, CFG) == pytest.approx(1.0, abs=1e-12)

    def test_half_alpha_is_affinity_over_mass(self):
        prob = binary_problem()
        rho = bhattacharyya_coeff(prob, CFG)
        ep = weight_mass(prob.p, prob.wf, CFG)
        assert chernoff_coeff(prob, 0.5, CFG) == pytest.approx(rho / ep, abs=1e-14)

    def test_alpha_range_enforced(self):
        with pytest.raises(IllegalParameterError):
            chernoff_coeff(binary_problem(), 1.2, CFG)

    def test_all_three_vanish_at_identical(self):
        p = Distribution.from_pmf([0.4, 0.6])
        prob = HypothesisProblem(p, p, WeightFunction.table([1.5, 0.5]))
        for fn in (chernoff_div, renyi_div, tsallis_div):
            assert fn(prob, 0.4, CFG).value == pytest.approx(0.0, abs=1e-14)

    def test_chernoff_half_equals_bhattacharyya_div(self):
        prob = binary_problem()
        assert chernoff_div(prob, 0.5, CFG).value == pytest.approx(
            bhattacharyya_div(prob, CFG).value, abs=1e-14)

    def test_renyi_tsallis_converge_to_kl(self):
        prob = binary_problem()
        kv = kl(prob, CFG).value
        assert renyi_div(prob, 0.999, CFG).value == pytest.approx(kv, abs=1e-2)
        assert tsallis_div(prob, 0.999, CFG).value == pytest.approx(kv, abs=1e-2)
        # monotone O(10^-k) envelope over k = 2..6
        prev_r = prev_t = math.inf
        for k in range(2, 7):
            a = 1.0 - 10.0 ** (-k)
            er = abs(renyi_div(prob, a, CFG).value - kv)
            et = abs(tsallis_div(prob, a, CFG).value - kv)
            assert er <= prev_r + 1e-15 and er <= 10.0 ** (-k) * 10.0
            assert et <= prev_t + 1e-15 and et <= 10.0 ** (-k) * 10.0
            prev_r, prev_t = er, et

    def test_alpha_one_delegates_to_kl(self):
        prob = binary_problem()
        assert renyi_div(prob, 1.0, CFG).value == kl(prob, CFG).value
        assert tsallis_div(prob, 1.0, CFG).value == kl(prob, CFG).value

    def test_bhattacharyya_div_cases(self):
        p = Distribution.from_pmf([0.4, 0.6])
        same = HypothesisProblem(p, p, WeightFunction.constant(1.0))
        assert bhattacharyya_div(same, CFG).value == pytest.approx(0.0, abs=1e-14)
        disjoint = HypothesisProblem(Distribution.from_pmf([1.0, 0.0]),
                                     Distribution.from_pmf([0.0, 1.0]),
                                     WeightFunction.constant(1.0))
        assert bhattacharyya_div(disjoint, CFG).value == math.inf


class TestEntropies:
    def test_uniform_shannon(self):
        m = 5
        d = Distribution.from_pmf(np.full(m, 1.0 / m))
        assert shannon_entropy(d, WeightFunction.constant(1.0), CFG) == \
            pytest.approx(math.log(m), abs=1e-12)

    def test_degenerate_shannon_zero(self):
        d = Distribution.from_pmf([1.0, 0.0, 0.0])
        assert shannon_entropy(d, WeightFunction.table([2.0, 5.0, 1.0]), CFG) == 0.0

    def test_gaussian_weighted_shannon_oracle_value(self):
        # (1/2) e^{mu g + g^2 s2/2} (ln(2 pi e s2) + g^2 s2); the exponent of
        # the prefactor is the mgf's g^2 s2 / 2 (quadrature decides)
        mu, s2, g = 0.4, 1.3, 0.5
        d = Distribution.gaussian(mu, s2)
        got = shannon_entropy(d, WeightFunction.exponential(g), CFG)
        e0 = math.exp(mu * g + g * g * s2 / 2)
        assert got == pytest.approx(
            0.5 * e0 * (math.log(2 * math.pi * math.e * s2) + g * g * s2), rel=1e-10)

    def test_uniform_renyi_every_alpha(self):
        m = 6
        d = Distribution.from_pmf(np.full(m, 1.0 / m))
        for a in (0.2, 0.5, 0.8):
            assert renyi_entropy(d, WeightFunction.constant(1.0), a, CFG) == \
                pytest.approx(math.log(m), abs=1e-12)

    def test_extended_reduces_at_beta_one(self):
        d = Distribution.from_pmf([0.2, 0.3, 0.5])
        wf = WeightFunction.table([1.2, 0.8, 1.5])
        for a in (0.3, 0.7):
            assert renyi_entropy_ext(d, wf, a, 1.0, CFG) == \
                renyi_entropy(d, wf, a, CFG)

    def test_extended_domain(self):
        d = Distribution.from_pmf([0.2, 0.8])
        wf = WeightFunction.constant(1.0)
        with pytest.raises(IllegalParameterError):
            renyi_entropy_ext(d, wf, 0.3, 0.5, CFG)  # alpha + beta <= 1

    def test_gaussian_weighted_renyi_closed_form(self):
        # (1/2) E0 [ln(2 pi s2) - ln(a)/(1-a) + g^2 s2 / a] with the corrected
        # E0 = e^{mu g + g^2 s2/2}
        mu, s2, g, a = 0.2, 1.1, 0.4, 0.5
        d = Distribution.gaussian(mu, s2)
        got = renyi_entropy(d, WeightFunction.exponential(g), a, CFG)
        e0 = math.exp(mu * g + g * g * s2 / 2)
        want = 0.5 * e0 * (math.log(2 * math.pi * s2)
                           - math.log(a) / (1 - a) + g * g * s2 / a)
        assert got == pytest.approx(want, rel=1e-9)

    def test_unit_weight_reduction_gaussian(self):
        s2 = 1.7
        d = Distribution.gaussian(-0.3, s2)
        assert shannon_entropy(d, WeightFunction.constant(1.0), CFG) == \
            pytest.approx(0.5 * math.log(2 * math.pi * math.e * s2), rel=1e-10)


@pytest.fixture
def calls(monkeypatch):
    """Counts every adaptive integration run from the divergence module."""
    import winfer.divergence as div
    counter = []
    real = div.integrate

    def counted(*args, **kwargs):
        counter.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(div, "integrate", counted)
    return counter


_MP, _MQ = ("mass", "p"), ("mass", "q")


def _gamma_problem(p=None):
    return HypothesisProblem(p or Distribution.gamma(2.0, 1.0), Distribution.gamma(3.0, 1.5),
                             WeightFunction.absolute())


class TestWeightMassMemo:
    """Single-distribution integrals (weight masses, entropy masses) are kept
    in the memo of the problem that reads them, like its pair integrals."""

    def test_repeat_is_memoized_on_the_instance(self, calls):
        prob = _gamma_problem()
        (first, err), = integrals(prob, CFG, [_MP])
        assert integrals(prob, CFG, [_MP]) == [(first, err)]
        assert first == pytest.approx(2.0, rel=1e-12)
        assert len(calls) == 1
        assert prob.memo == {(_MP, CFG): (first, err)}

    def test_weight_mass_integrates_afresh(self, calls):
        d, wf = Distribution.gamma(2.0, 1.0), WeightFunction.absolute()
        assert weight_mass(d, wf, CFG) == weight_mass(d, wf, CFG)
        assert len(calls) == 2

    def test_equal_instances_do_not_share(self, calls):
        a, b = _gamma_problem(), _gamma_problem()
        assert integrals(a, CFG, [_MP, _MQ]) == integrals(b, CFG, [_MP, _MQ])
        assert len(calls) == 2
        assert a.memo is not b.memo

    def test_problems_sharing_a_distribution_integrate_their_own_masses(self, calls):
        d = Distribution.gamma(2.0, 1.0)
        a, b = _gamma_problem(d), _gamma_problem(d)
        assert integrals(a, CFG, [_MP]) == integrals(b, CFG, [_MP])
        assert len(calls) == 2
        assert (_MP, CFG) in a.memo and (_MP, CFG) in b.memo

    def test_other_cfg_or_weight_misses(self, calls):
        d, other = Distribution.poisson(3.0), IntegrationConfig(rel_tol=1e-8)
        prob = HypothesisProblem(d, Distribution.poisson(4.0), WeightFunction.absolute())
        integrals(prob, CFG, [_MP])
        integrals(prob, other, [_MP])
        integrals(HypothesisProblem(d, d, WeightFunction.exponential(0.1)), CFG, [_MP])
        assert len(calls) == 3
        assert set(prob.memo) == {(_MP, CFG), (_MP, other)}

    def test_finite_support_is_not_memoized(self):
        prob = HypothesisProblem(Distribution.from_pmf([0.25, 0.75]),
                                 Distribution.from_pmf([0.5, 0.5]),
                                 WeightFunction.table([1.0, 3.0]))
        assert integrals(prob, CFG, [_MP, _MQ]) == [(2.5, 0.0), (2.0, 0.0)]
        assert prob.memo == {}

    def test_failure_raises_on_every_call(self, calls):
        from winfer.errors import NonConvergentIntegralError
        prob = HypothesisProblem(Distribution.exponential(1.0), Distribution.exponential(2.0),
                                 WeightFunction.exponential(1.5))  # weight outgrows p, not q
        raised = []
        for names in ([_MP], [_MQ, _MP], [_MP]):
            with pytest.raises(NonConvergentIntegralError) as exc:
                integrals(prob, CFG, names)
            raised.append(str(exc.value))
        assert len(calls) == 2  # the failure is memoized, not retried
        assert raised[0] == raised[1] == raised[2]
        assert isinstance(prob.memo[(_MP, CFG)], NonConvergentIntegralError)
        assert integrals(prob, CFG, [_MQ]) == [prob.memo[(_MQ, CFG)]]

    def test_renyi_entropy_reuses_the_mass_bit_for_bit(self, calls):
        from winfer.core import integrate
        d = Distribution.gamma(2.5, 1.3)
        wf = WeightFunction.quadratic(0.2, 1.0)
        got = renyi_entropy(d, wf, 0.4, CFG)
        assert len(calls) == 1  # E_phi(p) and E_phi(p^0.4) in one lockstep pass

        def mass(expo):
            return integrate(lambda x: wf(x) * d.density(x) ** expo, d.support, CFG,
                             dists=(d,), wf=wf)[0]
        a = 0.4  # the direct formula E_phi(p)/(1-a) ln(E_phi(p^a)/E_phi(p))
        assert got == mass(1.0) / (1.0 - a) * math.log(mass(a) / mass(1.0))

    def test_vector_mesh_leaves_no_cycle(self):
        """The memo of a vector problem holds arrays and numbers only: with the
        cyclic collector off, the problem dies with its last reference.  The
        masses and the entropy stop at level 40 of their (p, p) meshes, and tv
        reads the pair's levels 48 and 60."""
        import gc
        import weakref
        gc.disable()
        try:
            prob = HypothesisProblem(
                Distribution.gaussian_mv([0.1, 0.2], [[1.0, 0.2], [0.2, 0.8]]),
                Distribution.gaussian_mv([0.3, 0.0], np.eye(2)),
                WeightFunction.exponential([0.2, -0.1]))
            integrals(prob, CFG, [_MP, _MQ, ("shannon", "p"), "tv"])
            assert set(prob.memo) == {
                (_MP, CFG), (_MQ, CFG), (("shannon", "p"), CFG), ("tv", CFG),
                ("gauss-hermite", "p", 32), ("gauss-hermite", "p", 40),
                ("gauss-hermite", "q", 32), ("gauss-hermite", "q", 40),
                ("gauss-hermite", 48), ("gauss-hermite", 60)}
            for key, got in prob.memo.items():
                # a mesh: p, q and phi wr, and the float miss of its unit masses
                kinds = {np.ndarray, float} if key[0] == "gauss-hermite" else {float}
                assert {type(v) for v in got} == kinds
            ref = weakref.ref(prob)
            del prob
            assert ref() is None
        finally:
            gc.enable()

    def test_q_is_p_vector_problem_builds_one_mesh(self, monkeypatch):
        """When q is p, both roles climb the same (p, p) meshes: one per level."""
        import winfer.divergence as div
        built = []
        real = div.gauss_hermite_nodes

        def counted(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(div, "gauss_hermite_nodes", counted)
        d = Distribution.gaussian_mv([0.1, 0.2], [[1.0, 0.2], [0.2, 0.8]])
        prob = HypothesisProblem(d, d, WeightFunction.exponential([0.2, -0.1]))
        (ep, _), (eq, _), _, _ = integrals(
            prob, CFG, [_MP, _MQ, ("shannon", "p"), ("renyi-mass", "q", 0.4)])
        assert ep == eq
        assert [args[2] for args in built] == [32, 40]
        assert [k for k in prob.memo if k[0] == "gauss-hermite"] == \
            [("gauss-hermite", "p", 32), ("gauss-hermite", "p", 40)]


class TestProblemMemo:
    @staticmethod
    def gamma_problem():
        return HypothesisProblem(Distribution.gamma(2.0, 1.0), Distribution.gamma(3.0, 1.5),
                                 WeightFunction.absolute())

    @staticmethod
    def vector_problem():
        return HypothesisProblem(Distribution.gaussian_mv([0.0, 0.0], np.eye(2)),
                                 Distribution.gaussian_mv([0.4, -0.3], [[1.2, 0.2], [0.2, 0.8]]),
                                 WeightFunction.exponential([0.2, 0.1]))

    def test_memo_belongs_to_one_instance(self, calls):
        a, b = self.gamma_problem(), self.gamma_problem()
        assert a.memo is not b.memo
        first = weighted_tv(a, CFG)
        assert len(calls) == 1
        assert weighted_tv(a, CFG) == first
        assert len(calls) == 1
        assert weighted_tv(b, CFG) == first
        assert len(calls) == 2
        assert a.memo == {("tv", CFG): (2 * first.value, 2 * first.error)}

    def test_other_cfg_or_alpha_misses(self, calls):
        prob = self.gamma_problem()
        chernoff_coeff(prob, 0.3, CFG)  # E_phi(p) and the numerator, in one pass
        chernoff_coeff(prob, 0.3, CFG)
        assert len(calls) == 1
        chernoff_coeff(prob, 0.5, CFG)
        assert len(calls) == 2
        other = IntegrationConfig(rel_tol=1e-8)
        chernoff_coeff(prob, 0.3, other)  # a new weight mass too
        assert len(calls) == 3
        assert {key for key in prob.memo if key[0] == _MP} == {(_MP, CFG), (_MP, other)}
        kl(prob, CFG)
        kl(prob, other)
        assert len(calls) == 5

    def test_quantities_share_the_problem(self, calls):
        from winfer.testing import error_bound_report, min_total_error
        prob = self.gamma_problem()
        error_bound_report(prob, CFG)  # masses, rho, tau, eta, kl: one pass
        assert len(calls) == 1
        min_total_error(prob, CFG)
        bhattacharyya_div(prob, CFG)
        renyi_div(prob, 1.0, CFG)
        chernoff_div(prob, 0.5, CFG)
        tsallis_div(prob, 0.5, CFG)
        renyi_div(prob, 0.5, CFG)
        assert len(calls) == 1  # the Chernoff numerator at 0.5 is rho, already there

    def test_finite_support_stores_nothing(self):
        prob = binary_problem()
        weighted_tv(prob, CFG)
        hellinger(prob, CFG)
        bhattacharyya_coeff(prob, CFG)
        kl(prob, CFG)
        chernoff_coeff(prob, 0.4, CFG)
        assert prob.memo == {}

    def test_failure_raises_on_every_call(self, calls):
        from winfer.errors import NonConvergentIntegralError
        prob = HypothesisProblem(Distribution.exponential(1.0), Distribution.exponential(2.0),
                                 WeightFunction.exponential(1.5))  # weight outgrows p
        raised = []
        for _ in range(2):
            with pytest.raises(NonConvergentIntegralError) as exc:
                kl(prob, CFG)
            raised.append(str(exc.value))
        assert len(calls) == 1  # the failure is memoized, not retried
        assert raised[0] == raised[1]
        assert isinstance(prob.memo[("kl", CFG)], NonConvergentIntegralError)

    def test_memoized_values_equal_fresh_ones(self):
        def report(prob):
            return (weighted_tv(prob, CFG), hellinger(prob, CFG),
                    bhattacharyya_coeff(prob, CFG), kl(prob, CFG),
                    chernoff_coeff(prob, 0.3, CFG))
        for make in (self.gamma_problem, self.vector_problem):
            prob = make()
            first = report(prob)
            assert report(prob) == first == report(make())

    def test_vector_mesh_matches_the_direct_rule(self, meshgrid_rule):
        """The factored mesh sums phi f wr with the closed-form Lebesgue weights
        wr; the oracle is the plain rule sum(wts * f / ref) on a node matrix,
        which evaluates phi, p, q and the covering Gaussian's density at every
        node.  tv reads the pair's levels 48 and 60; kl then climbs levels 32
        and 40 and stops there."""
        prob = self.vector_problem()
        got = weighted_tv(prob, CFG)
        assert set(prob.memo) == {("gauss-hermite", 60), ("gauss-hermite", 48),
                                  ("tv", CFG)}

        def direct(level, g):
            cov = np.asarray(prob.p.scale) + np.asarray(prob.q.scale)
            mean = 0.5 * (prob.p.center + prob.q.center) + cov @ prob.wf.exp_rate_vector
            nodes, wts = meshgrid_rule(mean, cov, level)
            f = prob.wf(nodes) * g(prob.p.density(nodes), prob.q.density(nodes))
            ref = Distribution.gaussian_mv(mean, cov).density(nodes)
            return float(np.sum(wts * (f / ref)))
        hi, lo = (direct(level, lambda p, q: np.abs(p - q)) for level in (60, 48))
        assert got.value == pytest.approx(0.5 * hi, rel=1e-13, abs=0)
        assert got.error == pytest.approx(0.5 * abs(hi - lo), rel=0, abs=1e-13 * hi)
        got = kl(prob, CFG)
        assert set(prob.memo) == {("gauss-hermite", 60), ("gauss-hermite", 48),
                                  ("gauss-hermite", 40), ("gauss-hermite", 32),
                                  ("tv", CFG), ("kl", CFG)}
        hi, lo = (direct(level, lambda p, q: p * np.log(p / q)) for level in (40, 32))
        assert got.value == pytest.approx(hi, rel=1e-13, abs=0)
        # each level's sum differs from the oracle's by roundoff, within 8 eps |hi|
        assert got.error <= max(abs(hi - lo), 1e-13 * hi) + 16 * np.finfo(float).eps * hi

    def test_same_pair_evaluates_the_density_once(self):
        from winfer.divergence import _mv_mesh
        d = Distribution.gaussian_mv([0.1, 0.2], np.eye(2))
        p, q, *_ = _mv_mesh({}, "key", d, d, WeightFunction.constant(1.0), 12)
        assert q is p

    def test_pair_mesh_peaks_below_twice_its_arrays(self):
        """A level-60 d = 3 pair mesh (216,000 nodes) holds p, q and phi wr;
        building it allocates at most twice what it keeps, as no node matrix
        or pointwise density call is made."""
        import tracemalloc

        from winfer.divergence import _mv_mesh
        p = Distribution.gaussian_mv([0.0, 0.0, 0.0], np.eye(3))
        q = Distribution.gaussian_mv([0.5, -0.2, 0.1], [[1.2, 0.1, 0.0], [0.1, 0.9, 0.0],
                                                         [0.0, 0.0, 1.1]])
        for wf in (WeightFunction.constant(1.0), WeightFunction.exponential([0.1, -0.2, 0.05])):
            _mv_mesh({}, None, p, q, wf, 60)  # warm the 1-D rule's cache
            tracemalloc.start()
            try:
                mesh = _mv_mesh({}, None, p, q, wf, 60)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = sum(a.nbytes for a in mesh[:3])
            assert kept == 3 * 60 ** 3 * 8
            assert peak <= 2 * kept


def _grid_brackets(prob):
    """The brackets of the sign changes of p - q on the tv window: 1024 equal
    points, and on a half-line the first step also at lo + step 2^-k, k = 60
    ... 1 (the scan the closed forms replaced, kept here as their oracle)."""
    from winfer.core import _window_for
    lo, hi = _window_for(prob.support, CFG, (prob.p, prob.q), prob.wf)
    xs = np.linspace(lo, hi, 1024)
    if prob.support.kind == "half-line":
        xs = np.concatenate([xs[:1], lo + (xs[1] - lo) * 2.0 ** -np.arange(60, 0, -1), xs[1:]])
    with np.errstate(invalid="ignore"):
        sign = np.sign(prob.p.density(xs) - prob.q.density(xs))
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    return [(xs[i], xs[i + 1]) for i in idx]


def _mp_log_density(dist):
    """ln of a catalog density at 30 digits, from its parameters."""
    import mpmath as mp
    if dist.family == "gaussian-scalar":
        mu, v = mp.mpf(dist.params["mu"]), mp.mpf(dist.params["sigma2"])
        return lambda x: -(x - mu) ** 2 / (2 * v) - mp.log(2 * mp.pi * v) / 2
    lam, beta = ((mp.mpf(dist.params["lam"]), mp.mpf(dist.params["beta"]))
                 if dist.family == "gamma" else (mp.mpf(1), mp.mpf(dist.params["lam"])))
    return lambda x: lam * mp.log(beta) - mp.loggamma(lam) + (lam - 1) * mp.log(x) - beta * x


def _mp_tv(p, q, roots) -> float:
    """tau of catalog members p and q under |x| at 30 digits, the quadrature
    split at the roots of p - q and at the weight's kink 0."""
    import mpmath as mp
    half = p.support.kind == "half-line"
    with mp.workdps(30):
        lp, lq = _mp_log_density(p), _mp_log_density(q)
        f = lambda x: abs(x) * abs(mp.exp(lp(x)) - mp.exp(lq(x)))
        cuts = sorted([mp.mpf(x) for x in roots] + ([] if half else [0]))
        return float(mp.quad(f, [0 if half else -mp.inf] + cuts + [mp.inf]) / 2)


CROSSING_PAIRS = {
    "gaussian, two roots": (Distribution.gaussian(0.0, 1.0), Distribution.gaussian(0.4, 2.5)),
    "gaussian, narrow and wide": (Distribution.gaussian(-1.2, 0.3),
                                  Distribution.gaussian(0.7, 1.9)),
    "gaussian, equal variances": (Distribution.gaussian(-0.3, 1.7),
                                  Distribution.gaussian(1.1, 1.7)),
    "exponential": (Distribution.exponential(1.3), Distribution.exponential(2.9)),
    "exponential, near rates": (Distribution.exponential(2.2), Distribution.exponential(2.25)),
    "gamma, shapes below 1": (Distribution.gamma(0.5, 1.0), Distribution.gamma(0.7, 2.0)),
    "gamma, equal rates": (Distribution.gamma(0.4, 1.3), Distribution.gamma(0.8, 1.3)),
    "gamma, equal shapes": (Distribution.gamma(0.6, 1.0), Distribution.gamma(0.6, 2.5)),
    "gamma, one root": (Distribution.gamma(0.45, 2.0), Distribution.gamma(1.8, 0.7)),
    "exponential and gamma": (Distribution.exponential(1.5), Distribution.gamma(0.6, 0.9)),
    "gamma and exponential": (Distribution.gamma(2.5, 1.2), Distribution.exponential(0.8)),
}


class TestCrossingPoints:
    @pytest.mark.parametrize("name", list(CROSSING_PAIRS))
    def test_roots_match_mpmath_and_the_grid_scan(self, name):
        import mpmath as mp

        from winfer.divergence import _crossing_points
        p, q = CROSSING_PAIRS[name]
        prob = HypothesisProblem(p, q, WeightFunction.absolute())
        pts = _crossing_points(prob, CFG)
        brackets = _grid_brackets(prob)
        # p - q changes sign across each root, and nowhere else on the scan
        assert len(pts) == len(brackets) >= 1 and pts == sorted(pts)
        for x, (a, b) in zip(pts, brackets):
            assert a <= x <= b
            assert np.sign(p.density(x * (1 - 1e-7)) - q.density(x * (1 - 1e-7))) \
                == -np.sign(p.density(x * (1 + 1e-7)) - q.density(x * (1 + 1e-7))) != 0
        with mp.workdps(30):
            lp, lq = _mp_log_density(p), _mp_log_density(q)
            roots = [mp.findroot(lambda x: lp(x) - lq(x), mp.mpf(x)) for x in pts]
        assert pts == pytest.approx([float(r) for r in roots], rel=1e-13)

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=(
            "the shape-0.6 endpoint x^0.6 |p - q| is not smooth, and the K15 error estimate "
            "there is optimistic: tv is 1.5e-13 off, 6x its reported error, with or "
            "without the closed-form roots (ROADMAP item 2(b))")))
        if name == "exponential and gamma" else name for name in CROSSING_PAIRS])
    def test_tv_matches_mpmath_split_at_the_roots(self, name):
        from winfer.divergence import _crossing_points
        p, q = CROSSING_PAIRS[name]
        prob = HypothesisProblem(p, q, WeightFunction.absolute())
        want = _mp_tv(p, q, _crossing_points(prob, CFG))
        got = weighted_tv(prob, CFG)
        assert abs(got.value - want) <= max(got.error, 1e-15 * want)

    def test_quadratic_without_a_sign_change_has_no_root(self):
        from winfer.divergence import _quadratic_roots
        assert _quadratic_roots(1.0, -2.0, 1.0) == []  # a tangent: (x - 1)^2
        assert _quadratic_roots(1.0, 0.0, 1.0) == []  # no real root
        assert _quadratic_roots(0.0, 0.0, 1.0) == []
        assert _quadratic_roots(0.0, 2.0, -1.0) == [0.5]
        assert sorted(_quadratic_roots(1.0, -1e9, 1.0)) == pytest.approx([1e-9, 1e9], rel=1e-15)

    def test_identical_pairs_have_no_root(self):
        from winfer.divergence import _crossing_points
        for make in (lambda: Distribution.gaussian(0.2, 1.3), lambda: Distribution.gamma(0.7, 2.0),
                     lambda: Distribution.exponential(1.1)):
            prob = HypothesisProblem(make(), make(), WeightFunction.absolute())
            assert _crossing_points(prob, CFG) == []

    def test_a_root_below_the_panel_floor_is_dropped(self):
        """gamma(2.6397, 1.437) and gamma(2.6634, 2.278) cross at 5.4e-23 and
        at 1.458.  The first lies below the engine's finest lower-edge panel,
        so tv integrates as if 1.458 were the only breakpoint, bit for bit."""
        from winfer.core import _MAX_ROUNDS, Integrand, _window_for, integrate
        from winfer.divergence import _crossing_points, _terms
        p, q = Distribution.gamma(2.6397, 1.437), Distribution.gamma(2.6634, 2.278)
        prob = HypothesisProblem(p, q, WeightFunction.absolute())
        tiny, root = _crossing_points(prob, CFG)
        lo, hi = _window_for(prob.support, CFG, (p, q), prob.wf)
        assert tiny == pytest.approx(5.4e-23, rel=0.01)
        assert tiny < (hi - lo) / 16 * 2.0 ** -_MAX_ROUNDS
        assert root == pytest.approx(1.458, rel=1e-3)
        tv = lambda points: integrate(lambda x: (p.density(x), q.density(x), prob.wf(x)),
                                      prob.support, CFG, components=[
                                          Integrand(_terms("tv")[0], (p, q), prob.wf, points)])
        assert tv((tiny, root)) == tv((root,)) != tv(())
        assert weighted_tv(prob, CFG).value == 0.5 * tv((root,))[0][0]

    def test_a_near_equal_shape_pair_does_not_overflow(self):
        """|c / a| ~ 1e7: e^(-c/a) overflows, the Wright omega form does not."""
        import warnings

        from winfer.divergence import _crossing_points
        p, q = Distribution.gamma(2.0, 1.0), Distribution.gamma(2.0 + 1e-7, 1.5)
        prob = HypothesisProblem(p, q, WeightFunction.absolute())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = _crossing_points(prob, CFG)
        assert len(pts) == len(_grid_brackets(prob)) == 1
        assert p.density(pts[0]) == pytest.approx(q.density(pts[0]), rel=1e-12)

    @pytest.mark.parametrize("name", ["gaussian, two roots", "gaussian, narrow and wide",
                                      "gamma, shapes below 1", "gamma, one root"])
    def test_a_raw_pdf_pair_is_scanned_to_the_roots(self, name):
        """A density given only as a pdf has no family: p - q is scanned and
        bisected to the closed-form roots, and tv lies within its reported
        error of mpmath's value split at them."""
        import dataclasses

        from winfer.divergence import _crossing_points
        p, q = CROSSING_PAIRS[name]
        roots = _crossing_points(HypothesisProblem(p, q, WeightFunction.absolute()), CFG)
        raw = lambda d: dataclasses.replace(d, family="", params={})
        prob = HypothesisProblem(raw(p), raw(q), WeightFunction.absolute())
        assert _crossing_points(prob, CFG) == pytest.approx(roots, rel=1e-13)
        got = weighted_tv(prob, CFG)
        assert abs(got.value - _mp_tv(p, q, roots)) <= got.error

    def test_infinite_densities_at_the_endpoint_are_silent(self):
        import warnings

        from winfer.core import _window_for
        from winfer.divergence import _crossing_points
        # both shapes below 1: p and q are +inf at x = 0, the window's left edge
        prob = HypothesisProblem(Distribution.gamma(0.5, 1.0), Distribution.gamma(0.7, 2.0),
                                 WeightFunction.absolute())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pts = _crossing_points(prob, CFG)
        lo, hi = _window_for(prob.support, CFG, (prob.p, prob.q), prob.wf)
        xs = np.linspace(lo, hi, 1024)
        # the half-line grid: the first step also at lo + step 2^-k, k = 60 ... 1
        xs = np.concatenate([xs[:1], lo + (xs[1] - lo) * 2.0 ** -np.arange(60, 0, -1), xs[1:]])
        with np.errstate(invalid="ignore"):
            diff = prob.p.density(xs) - prob.q.density(xs)
        assert np.isnan(diff[0]) and np.all(np.isfinite(diff[1:]))
        # the NaN at x = 0 adds no crossing: the brackets are the finite sign changes
        sign = np.sign(diff[1:])
        brackets = np.nonzero(sign[:-1] * sign[1:] < 0)[0] + 1
        assert len(pts) == len(brackets) >= 1
        for x, i in zip(pts, brackets):
            assert xs[i] <= x <= xs[i + 1]

    def test_a_crossing_in_the_first_grid_step_is_found(self):
        """gamma(0.50, 2.16) crosses gamma(0.33, 1.56) at x = 0.02206, inside
        the first step (0.048) of the 1024-point grid, where both densities are
        singular at 0: the root is found, so tv has no unlisted kink, and
        matches mpmath's 30-digit quadrature split at both roots."""
        import mpmath as mp

        from winfer.core import _window_for
        from winfer.divergence import _crossing_points
        a, b = (0.5005957012730126, 2.1605249812942042), (0.3305773915149094, 1.5591718097861833)
        prob = HypothesisProblem(Distribution.gamma(*a), Distribution.gamma(*b),
                                 WeightFunction.absolute())
        pts = _crossing_points(prob, CFG)
        lo, hi = _window_for(prob.support, CFG, (prob.p, prob.q), prob.wf)
        assert len(pts) == 2 and lo < pts[0] < lo + (hi - lo) / 1023 < pts[1]
        with mp.workdps(30):
            pdf = lambda x, lam, beta: beta ** lam * x ** (lam - 1) * mp.exp(-beta * x) \
                / mp.gamma(lam)
            diff = lambda x: pdf(x, *map(mp.mpf, a)) - pdf(x, *map(mp.mpf, b))
            roots = [mp.findroot(diff, mp.mpf(x)) for x in pts]
            want = float(mp.quad(lambda x: x * abs(diff(x)), [0] + roots + [mp.inf]) / 2)
        assert pts == pytest.approx([float(r) for r in roots], rel=1e-13)
        got = weighted_tv(prob, CFG)
        assert abs(got.value - want) <= max(got.error, 1e-13)

    def test_tv_of_a_gamma_pair_does_not_import_scipy_optimize(self, tmp_path):
        import json
        import subprocess
        import sys
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "schema": 1,
            "distributions": [{"family": "gamma", "params": {"lam": 2.0, "beta": 1.0}},
                              {"family": "gamma", "params": {"lam": 3.0, "beta": 1.5}}],
            "weight": {"kind": "absolute"}, "quantities": ["tv"]}))
        script = f"""
import json, sys
import winfer.cli
code = winfer.cli.main(["compute", {str(spec)!r}, "--reproducible",
                        "--out", {str(tmp_path / "out.json")!r}])
(rec,) = json.load(open({str(tmp_path / "out.json")!r}))["quantities"]
print(code, rec["name"], "value" in rec, "scipy.optimize" in sys.modules)
"""
        r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
        assert r.stdout.split() == ["0", "tv", "True", "False"]


MISSHAPED_RATES = {
    "length-1 rate, scalar gaussian": (WeightFunction.exponential([0.3]), "gaussian-scalar",
                                       {"mu": 0.0, "sigma2": 1.0}),
    "length-2 rate, scalar gaussian": (WeightFunction.exponential([0.3, 0.1]), "gaussian-scalar",
                                       {"mu": 0.0, "sigma2": 1.0}),
    "length-3 rate, 2-d gaussian": (WeightFunction.exponential([0.3, 0.1, 0.2]),
                                    "gaussian-multivariate",
                                    {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}),
}


class TestWeightFits:
    @pytest.mark.parametrize("name", list(MISSHAPED_RATES))
    def test_a_misshaped_rate_is_a_domain_mismatch(self, name):
        from winfer.expfam import AdjointFamily, catalog_family
        wf, family, params = MISSHAPED_RATES[name]
        member = catalog_family(family, **params)
        dist = member.family.distribution(member.theta)
        with pytest.raises(DomainMismatchError, match="exponential weight needs a real-vector"):
            weight_mass(dist, wf, CFG)
        with pytest.raises(DomainMismatchError):
            kl(HypothesisProblem(dist, dist, wf), CFG)
        with pytest.raises(DomainMismatchError):  # the mesh fallback
            AdjointFamily(member.family, wf, CFG).weight_mass(member.theta)

    def test_tables_fit_their_alphabet_only(self):
        pmf = Distribution.from_pmf([0.5, 0.5])
        for wf, dist in ((WeightFunction.table([1.0, 2.0, 3.0]), pmf),
                         (WeightFunction.table([1.0, 2.0]), Distribution.gaussian(0.0, 1.0))):
            with pytest.raises(DomainMismatchError, match="table weight needs a finite support"):
                HypothesisProblem(dist, dist, wf)

    def test_fitting_weights_pass(self):
        """Product weights on vector supports stay allowed in the library."""
        mv = Distribution.gaussian_mv([0.0, 0.0], [[1.0, 0.0], [0.0, 1.0]])
        for wf, dist in ((WeightFunction.exponential([0.3, 0.1]), mv),
                         (WeightFunction.product([WeightFunction.absolute()] * 2), mv),
                         (WeightFunction.exponential(0.3), Distribution.gaussian(0.0, 1.0)),
                         (WeightFunction.table([1.0, 2.0]), Distribution.from_pmf([0.5, 0.5]))):
            HypothesisProblem(dist, dist, wf)


class TestQuantityTable:
    @staticmethod
    def gamma_problem():
        return HypothesisProblem(Distribution.gamma(2.0, 1.0), Distribution.gamma(3.0, 1.5),
                                 WeightFunction.absolute())

    def test_renyi_error_is_the_first_order_propagation(self):
        """renyi-div@a = E_p / (a - 1) ln(C / E_p): its error is
        |df/dE_p| err_p + |df/dC| err_C, the integrators' errors carried by the
        hand derivatives."""
        prob, a = self.gamma_problem(), 0.3
        got = renyi_div(prob, a, CFG)
        ep, err_p = prob.memo[(_MP, CFG)]
        c, err_c = prob.memo[(("chernoff", a), CFG)]
        assert err_p > 0 and err_c > 0
        assert got.value == ep / (a - 1.0) * math.log(c / ep)
        hand = abs((math.log(c / ep) - 1.0) / (a - 1.0)) * err_p \
            + abs(ep / ((a - 1.0) * c)) * err_c
        assert got.error == pytest.approx(hand, rel=1e-6)

    def test_linear_quantities_carry_their_integral_error_exactly(self):
        prob = self.gamma_problem()
        tv, kv = weighted_tv(prob, CFG), kl(prob, CFG)
        assert tv.error == 0.5 * prob.memo[("tv", CFG)][1] > 0
        assert kv.error == prob.memo[("kl", CFG)][1] > 0

    def test_every_quantity_has_a_finite_error(self):
        prob = self.gamma_problem()
        for name, entry in QUANTITIES.items():
            got = quantity(prob, name, CFG, 0.4 if entry.alpha else None)
            assert math.isfinite(got.value) and math.isfinite(got.error)
            assert got.error > 0 and got.method == "quadrature"

    def test_finite_alphabets_are_exact_sums(self, calls):
        prob = binary_problem()
        for name, entry in QUANTITIES.items():
            got = quantity(prob, name, CFG, 0.4 if entry.alpha else None)
            assert (got.error, got.method) == (0.0, "exact-sum")
        assert calls == [] and prob.memo == {}

    def test_alpha_guards(self):
        prob = binary_problem()
        assert renyi_div(prob, 1.0, CFG) == tsallis_div(prob, 1.0, CFG) == kl(prob, CFG)
        for name in ("chernoff-coeff", "chernoff-div", "renyi-entropy"):
            with pytest.raises(IllegalParameterError, match=r"\(0, 1\)"):
                quantity(prob, name, CFG, 1.0)
        with pytest.raises(IllegalParameterError, match=r"\(0, 1\]"):
            quantity(prob, "renyi-div", CFG, 1.5)

    def test_zero_weight_mass_and_zero_coefficient(self):
        zero = HypothesisProblem(Distribution.from_pmf([0.5, 0.5]),
                                 Distribution.from_pmf([0.25, 0.75]),
                                 WeightFunction.table([0.0, 0.0]))
        for name in ("chernoff-coeff", "bhattacharyya-div", "stein-sanov-limit"):
            with pytest.raises(ZeroWeightMassError):
                quantity(zero, name, CFG, 0.5)
        disjoint = HypothesisProblem(Distribution.from_pmf([1.0, 0.0]),
                                     Distribution.from_pmf([0.0, 1.0]),
                                     WeightFunction.table([1.0, 1.0]))
        for name in ("chernoff-div", "renyi-div", "bhattacharyya-div", "kl"):
            got = quantity(disjoint, name, CFG, 0.5)
            assert (got.value, got.error) == (math.inf, 0.0)
        with pytest.raises(InfiniteKLError):
            quantity(disjoint, "stein-sanov-limit", CFG)

    def test_module_docstring_lists_the_table(self):
        import winfer.divergence as div
        listed = [line.split()[0].split("@")[0] for line in div.__doc__.splitlines()
                  if line.startswith("    ") and line.split()]
        assert listed == list(QUANTITIES)
