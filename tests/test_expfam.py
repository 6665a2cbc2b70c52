"""Log-normalizer machinery, adjoint families, and catalog closed forms."""

import math

import mpmath
import numpy as np
import pytest
from scipy.special import digamma, erf

from winfer.core import Distribution, IntegrationConfig, WeightFunction, integrate
from winfer.divergence import (
    HypothesisProblem,
    bhattacharyya_div,
    chernoff_div,
    kl,
    renyi_entropy,
    shannon_entropy,
    weight_mass,
    weighted_tv,
)
from winfer.errors import (
    IllegalParameterError,
    NonConvergentIntegralError,
    ParameterOutOfDomainError,
    ZeroWeightMassError,
)
from winfer.estimation import finite_difference_gradient
from winfer.expfam import (
    CATALOG,
    CLOSED_FORMS,
    AdjointFamily,
    adjoint_coefficients,
    bregman,
    burbea_rao,
    catalog_family,
    expfam_bhattacharyya,
    expfam_chernoff,
    expfam_renyi,
    expfam_shannon,
    gaussian_tv_closed_form,
    weighted_bregman,
)

CFG = IntegrationConfig()

MEMBERS = [
    ("exponential", {"lam": 2.0}),
    ("poisson", {"lam": 1.5}),
    ("gaussian-scalar", {"mu": 0.4, "sigma2": 1.2}),
    ("gamma", {"lam": 2.5, "beta": 1.5}),
    ("gaussian-multivariate", {"mean": np.array([0.2, -0.3]),
                               "cov": np.array([[1.0, 0.2], [0.2, 0.8]])}),
]


class TestCatalog:
    def test_unknown_name(self):
        with pytest.raises(IllegalParameterError) as info:
            catalog_family("beta", a=1, b=1)
        assert str(tuple(CATALOG)) in str(info.value)  # the error lists the registry

    def test_registry_names_its_constructors(self):
        assert sorted(CATALOG) == sorted(name for name, _ in MEMBERS)
        for name, params in MEMBERS:
            fam = CATALOG[name]
            assert fam.name == name
            assert fam.constructor(**params).family == name
            assert catalog_family(name, **params).family is fam

    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_member_distribution_round_trips_the_parameters(self, name, params):
        """The member's Distribution is built from from_natural(to_natural(params)),
        not from params directly; the two can differ in the last bits."""
        m = catalog_family(name, **params)
        want = m.family.from_natural(m.family.to_natural(params))
        assert m.dist.params.keys() == want.keys()
        for key in want:
            np.testing.assert_array_equal(m.dist.params[key], want[key])

    def test_illegal_parameters(self):
        with pytest.raises(IllegalParameterError):
            catalog_family("exponential", lam=-1.0)
        with pytest.raises(IllegalParameterError):
            catalog_family("gaussian-scalar", mu=0.0, sigma2=0.0)
        with pytest.raises(IllegalParameterError):
            catalog_family("gaussian-multivariate",
                           mean=[0.0, 0.0], cov=[[1.0, 2.0], [2.0, 1.0]])
        for name, params in [
                ("poisson", {"lam": 0.0}), ("poisson", {"lam": -1.5}),
                ("gamma", {"lam": 0.0, "beta": 1.0}), ("gamma", {"lam": -1.0, "beta": 1.0}),
                ("gamma", {"lam": 2.0, "beta": 0.0}), ("gamma", {"lam": 2.0, "beta": -0.5}),
                ("exponential", {"lam": 1.0, "extra": 2.0}), ("exponential", {}),
                ("gaussian-scalar", {"mu": "a", "sigma2": 1.0}),
                ("gaussian-scalar", {"mu": math.inf, "sigma2": 1.0}),
                ("gaussian-multivariate", {"mean": [0.0, 0.0, 0.0], "cov": np.eye(2)})]:
            with pytest.raises(IllegalParameterError):
                catalog_family(name, **params)

    def test_gaussian_log_normalizer_at_standard(self):
        m = catalog_family("gaussian-scalar", mu=0.0, sigma2=1.0)
        assert m.family.F(m.theta) == pytest.approx(0.5 * math.log(2 * math.pi))

    def test_poisson_log_normalizer(self):
        m = catalog_family("poisson", lam=1.0)
        assert m.theta[0] == pytest.approx(0.0)
        assert m.family.F(m.theta) == pytest.approx(1.0)

    def test_gamma_natural_parameters(self):
        m = catalog_family("gamma", lam=3.0, beta=2.0)
        np.testing.assert_allclose(m.theta, [-2.0, 2.0])
        assert m.family.F(m.theta) == pytest.approx(
            math.lgamma(3.0) - 3.0 * math.log(2.0))

    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_density_normalizes(self, name, params):
        m = catalog_family(name, **params)
        d = m.dist
        if name == "gaussian-multivariate":
            v = weight_mass(d, WeightFunction.constant(1.0), CFG)
        else:
            v, _ = integrate(d.density, d.support, CFG, dists=(d,))
        assert v == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_exponential_form_reconstructs_density(self, name, params):
        m = catalog_family(name, **params)
        fam = m.family
        d = m.dist
        xs = d.draw(np.random.default_rng(0), 32)
        logp = fam.t(xs) @ m.theta - fam.F(m.theta) + fam.k(xs)
        np.testing.assert_allclose(np.exp(logp), d.density(xs), rtol=1e-10)

    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_grad_F_matches_finite_differences(self, name, params):
        m = catalog_family(name, **params)
        fd = finite_difference_gradient(m.family.F, m.theta, h=1e-6)
        np.testing.assert_allclose(m.family.grad_F(m.theta), fd, rtol=1e-5, atol=1e-7)

    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_member_keeps_one_distribution(self, name, params):
        m = catalog_family(name, **params)
        assert m.dist is m.dist

    def test_golden_pair_builds_each_mesh_once(self, monkeypatch):
        """One vector pair of the expfam-golden suite: kl and the Chernoff
        numerators climb the pair's meshes, and E_phi(p), the Shannon entropy
        and the Renyi-entropy masses of p the (p, p) meshes; every integral
        stops at level 40, so each builds levels 32 and 40, once."""
        import sys

        import winfer.core
        from winfer import verify
        real = winfer.core.gauss_hermite_nodes
        meshes = []

        def recorded(center, cov, level=40):
            meshes.append((tuple(center), level))
            return real(center, cov, level)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("winfer") \
                    and getattr(mod, "gauss_hermite_nodes", None) is real:
                monkeypatch.setattr(mod, "gauss_hermite_nodes", recorded)
        pair = verify._golden_pairs_mv()[-1:]  # d = 3
        monkeypatch.setattr(verify, "_golden_pairs", lambda: [])
        monkeypatch.setattr(verify, "_golden_pairs_mv", lambda: pair)
        assert verify.suite_expfam_golden(0, 0, CFG).passed
        assert len(meshes) == len(set(meshes)) == 4
        levels = {}
        for center, level in meshes:
            levels.setdefault(center, []).append(level)
        assert sorted(levels.values()) == [[32, 40], [32, 40]]

    def test_non_symmetric_covariance_refused(self):
        """The Cholesky factor reads the lower triangle only, so a non-symmetric
        cov would silently evaluate another Gaussian."""
        with pytest.raises(IllegalParameterError, match="symmetric"):
            catalog_family("gaussian-multivariate",
                           mean=[0.0, 0.0], cov=[[1.0, 0.9], [0.0, 1.0]])

    def test_from_natural_covariances_are_accepted(self):
        """from_natural inverts the symmetrized precision; the inverse may miss
        symmetry by rounding, which the 1e-12 relative tolerance admits."""
        fam = CATALOG["gaussian-multivariate"]
        rng = np.random.default_rng(7)
        asymmetric = 0
        for _ in range(200):
            d = int(rng.integers(2, 6))
            a = rng.normal(size=(d, d))
            member = catalog_family("gaussian-multivariate", mean=rng.normal(size=d),
                                    cov=a @ a.T + 0.1 * np.eye(d))
            cov = fam.from_natural(member.theta)["cov"]
            asymmetric += bool(np.any(cov != cov.T))
            assert member.dist.params["cov"].shape == (d, d)
        assert asymmetric > 0  # the tolerance is exercised, not idle

    def test_round_trip_parameter_maps(self):
        for name, params in MEMBERS:
            m = catalog_family(name, **params)
            back = m.family.from_natural(m.theta)
            for key, val in params.items():
                np.testing.assert_allclose(back[key], val, rtol=1e-12)


def _renyi_oracle(pdf, g: float, alpha: float):
    """E_phi(p)/(1-a) ln(int phi p^a / E_phi(p)) for phi = e^{g x} on the half
    line, by tanh-sinh quadrature at 30 digits."""
    with mpmath.workdps(30):
        phi_p = lambda x, a: mpmath.exp(g * x) * pdf(x) ** a
        ep = mpmath.quad(lambda x: phi_p(x, 1), [0, 1, 10, mpmath.inf])
        num = mpmath.quad(lambda x: phi_p(x, alpha), [0, 1, 10, mpmath.inf])
        return float(ep / (1 - alpha) * mpmath.log(num / ep))


# Two compute-benchmark cells where the integrand phi p^alpha decays at
# alpha * rate - gamma, far slower than p's own envelope: exponential lam =
# 2.36745, gamma = 0.680434 (decay 0.0298), and gamma(1.39315, 1.19733) with
# gamma = 0.281888 (decay 0.0774); alpha = 0.3.
_SLOW_RENYI = [
    ("exponential", {"lam": 2.3674500989891967}, 0.6804343409780668,
     lambda x: 2.3674500989891967 * mpmath.exp(-2.3674500989891967 * x)),
    ("gamma", {"lam": 1.3931487737707235, "beta": 1.1973262435457488},
     0.28188804935347905,
     lambda x: (1.1973262435457488 ** 1.3931487737707235 * x ** 0.3931487737707235
                * mpmath.exp(-1.1973262435457488 * x) / mpmath.gamma(1.3931487737707235))),
]


class TestRenyiMpmathOracle:
    @pytest.mark.parametrize("name,params,g,pdf", _SLOW_RENYI)
    def test_closed_form_matches_mpmath(self, name, params, g, pdf):
        m = catalog_family(name, **params)
        adj = AdjointFamily(m.family, WeightFunction.exponential(g), CFG)
        assert expfam_renyi(adj, m.theta, 0.3) == pytest.approx(
            _renyi_oracle(pdf, g, 0.3), rel=1e-10)

    @pytest.mark.xfail(strict=True, reason=(
        "core._window_for (called from _lockstep_gk) truncates the Renyi mass "
        "int phi p^alpha with the window of p's envelope, which decays at rate "
        "- gamma; the integrand decays at alpha * rate - gamma, so the window "
        "cuts off most of its mass"))
    @pytest.mark.parametrize("name,params,g,pdf", _SLOW_RENYI)
    def test_quadrature_matches_mpmath(self, name, params, g, pdf):
        m = catalog_family(name, **params)
        got = renyi_entropy(m.dist, WeightFunction.exponential(g), 0.3, CFG)
        assert got == pytest.approx(_renyi_oracle(pdf, g, 0.3), rel=1e-8)


class TestAdjoint:
    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_log_normalizer_shift_identity(self, name, params):
        m = catalog_family(name, **params)
        g = np.full(2, 0.3) if name == "gaussian-multivariate" else 0.3
        adj = AdjointFamily(m.family, WeightFunction.exponential(g), CFG)
        # F* - F = ln E_phi, with E_phi verified by independent quadrature
        numeric = weight_mass(m.dist, adj.wf, CFG)
        assert adj.F_star(m.theta) - m.family.F(m.theta) == \
            pytest.approx(math.log(numeric), abs=1e-8)

    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_grad_log_mass_matches_finite_differences(self, name, params):
        m = catalog_family(name, **params)
        g = np.full(2, 0.25) if name == "gaussian-multivariate" else 0.25
        adj = AdjointFamily(m.family, WeightFunction.exponential(g), CFG)
        fd = finite_difference_gradient(
            lambda th: adj.log_weight_mass(np.atleast_1d(th)), m.theta, h=1e-6)
        got = adj.grad_log_weight_mass(m.theta)
        if name == "gaussian-multivariate":
            # flat precision-block gradients agree up to symmetrization
            d = 2
            sym = lambda v: np.concatenate(
                [v[:d], (0.5 * (v[d:].reshape(d, d) + v[d:].reshape(d, d).T)).reshape(-1)])
            np.testing.assert_allclose(sym(got), sym(fd), rtol=1e-5, atol=1e-7)
        else:
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-7)

    def test_adjoint_carrier(self):
        m = catalog_family("gamma", lam=2.0, beta=1.0)
        adj = AdjointFamily(m.family, WeightFunction.exponential(0.3), CFG)
        xs = np.array([0.5, 1.5, 3.0])
        np.testing.assert_allclose(adj.k_star(xs), m.family.k(xs) + 0.3 * xs)

    def test_incompatible_weight_rejected(self):
        m = catalog_family("gamma", lam=2.0, beta=1.0)
        adj = AdjointFamily(m.family, WeightFunction.exponential(1.5), CFG)
        with pytest.raises(Exception):
            adj.weight_mass(m.theta)

    def test_overflowing_closed_forms_raise_the_numerical_error(self):
        """A closed form past the float range (math.exp or ** of a Python float
        raises OverflowError) raises ``NonConvergentIntegralError`` instead."""
        m1 = catalog_family("gaussian-multivariate", mean=[0.0, 0.0], cov=np.eye(2))
        m2 = catalog_family("gaussian-multivariate", mean=[0.5, 0.0],
                            cov=np.diag([2.0, 1.0]))
        adj = AdjointFamily(m1.family, WeightFunction.exponential([40.0, 0.0]), CFG)
        for form in CLOSED_FORMS.values():  # E_phi(p) = exp(800)
            with pytest.raises(NonConvergentIntegralError, match="overflows"):
                form(adj, m1.theta, m2.theta, 0.5)
        cases = [("poisson", {"lam": 10.0}, 5.0),  # exp(10 (e^5 - 1))
                 ("gaussian-scalar", {"mu": 0.0, "sigma2": 1.0}, 40.0),  # exp(800)
                 ("gamma", {"lam": 500.0, "beta": 1.0}, 0.9)]  # 10^500
        for name, params, g in cases:
            m = catalog_family(name, **params)
            with pytest.raises(NonConvergentIntegralError, match="overflows"):
                AdjointFamily(m.family, WeightFunction.exponential(g), CFG).weight_mass(m.theta)
        m = catalog_family("poisson", lam=2.0)  # the gradient's exp(800)
        with pytest.raises(NonConvergentIntegralError, match="overflows"):
            AdjointFamily(m.family, WeightFunction.exponential(800.0), CFG) \
                .grad_log_weight_mass(m.theta)
        with pytest.raises(NonConvergentIntegralError, match="overflows"):
            gaussian_tv_closed_form(0.5, WeightFunction.exponential(40.0))


class TestBregman:
    def test_zero_at_equal_points(self):
        F = lambda th: float(th[0] ** 2)
        gF = lambda th: np.array([2.0 * th[0]])
        assert bregman(F, gF, 0.7, 0.7) == 0.0

    def test_quadratic_is_squared_distance(self):
        F = lambda th: float(th[0] ** 2)
        gF = lambda th: np.array([2.0 * th[0]])
        assert bregman(F, gF, 1.0, 0.0) == pytest.approx(1.0)

    def test_plain_bregman_is_unweighted_kl(self):
        m1 = catalog_family("exponential", lam=1.0)
        m2 = catalog_family("exponential", lam=2.0)
        b = bregman(m1.family.F, m1.family.grad_F, m2.theta, m1.theta)
        prob = HypothesisProblem(m1.dist, m2.dist, WeightFunction.constant(1.0))
        assert b == pytest.approx(kl(prob, CFG).value, rel=1e-10)

    def test_weighted_bregman_zero_and_reduction(self):
        m = catalog_family("gaussian-scalar", mu=0.3, sigma2=1.0)
        adj1 = AdjointFamily(m.family, WeightFunction.constant(1.0), CFG)
        other = catalog_family("gaussian-scalar", mu=-0.8, sigma2=1.4)
        assert weighted_bregman(adj1, m.theta, m.theta) == pytest.approx(0.0, abs=1e-12)
        plain = bregman(m.family.F, m.family.grad_F, other.theta, m.theta)
        assert weighted_bregman(adj1, other.theta, m.theta) == \
            pytest.approx(plain, rel=1e-9)

    def test_poisson_weighted_bregman_closed_form(self):
        lam, lam_p, g = 1.0, 2.0, 0.3
        m1 = catalog_family("poisson", lam=lam)
        m2 = catalog_family("poisson", lam=lam_p)
        adj = AdjointFamily(m1.family, WeightFunction.exponential(g), CFG)
        e0 = math.exp(lam * (math.exp(g) - 1.0))
        want = e0 * (lam_p - lam + lam * math.exp(g) * math.log(lam / lam_p))
        got = weighted_bregman(adj, m2.theta, m1.theta)
        assert got == pytest.approx(want, rel=1e-12)
        # series oracle through the divergence module
        prob = HypothesisProblem(m1.dist, m2.dist, WeightFunction.exponential(g))
        assert got == pytest.approx(kl(prob, CFG).value, rel=1e-10)


class TestEntropyAndDivergenceForms:
    def test_gaussian_unit_weight_shannon(self):
        m = catalog_family("gaussian-scalar", mu=0.7, sigma2=1.5)
        adj = AdjointFamily(m.family, WeightFunction.constant(1.0), CFG)
        assert expfam_shannon(adj, m.theta) == pytest.approx(
            0.5 * math.log(2 * math.pi * math.e * 1.5), rel=1e-10)

    def test_exponential_shannon_laplace_form(self):
        lam = 2.0
        m = catalog_family("exponential", lam=lam)
        wf = WeightFunction.exponential(0.5)
        adj = AdjointFamily(m.family, wf, CFG)
        # phi_hat(s) = 1 / (s - 0.5), the Laplace transform of e^{0.5 x}
        phi_hat, phi_hat_prime = 1.0 / (lam - 0.5), -1.0 / (lam - 0.5) ** 2
        want = -lam * (math.log(lam) * phi_hat + lam * phi_hat_prime)
        assert expfam_shannon(adj, m.theta) == pytest.approx(want, rel=1e-12)
        assert expfam_shannon(adj, m.theta) == pytest.approx(
            shannon_entropy(m.dist, wf, CFG), rel=1e-9)

    def test_renyi_alpha_to_one_limit(self):
        m = catalog_family("gamma", lam=2.0, beta=1.5)
        adj = AdjointFamily(m.family, WeightFunction.exponential(0.3), CFG)
        h = expfam_shannon(adj, m.theta)
        r = expfam_renyi(adj, m.theta, 1.0 - 1e-6)
        assert abs(r - h) <= 1e-4

    def test_renyi_domain_guard(self):
        m = catalog_family("exponential", lam=2.0)
        adj = AdjointFamily(m.family, WeightFunction.exponential(0.9), CFG)
        # alpha lam = 0.8 < gamma = 0.9: mass of the scaled member diverges
        with pytest.raises(Exception):
            expfam_renyi(adj, m.theta, 0.4)

    def test_renyi_matches_numeric_across_catalog(self):
        for name, params in MEMBERS:
            m = catalog_family(name, **params)
            g = np.full(2, 0.2) if name == "gaussian-multivariate" else 0.25
            adj = AdjointFamily(m.family, WeightFunction.exponential(g), CFG)
            closed = expfam_renyi(adj, m.theta, 0.6)
            numeric = renyi_entropy(m.dist, adj.wf, 0.6, CFG)
            assert closed == pytest.approx(numeric, rel=1e-7), name


class TestBurbeaRaoChernoff:
    def test_zero_at_equal_parameters(self):
        m = catalog_family("gamma", lam=2.0, beta=1.0)
        assert burbea_rao(m.family.F, m.theta, m.theta, 0.3) == pytest.approx(0.0)
        adj = AdjointFamily(m.family, WeightFunction.constant(1.0), CFG)
        assert expfam_chernoff(adj, m.theta, m.theta, 0.3) == pytest.approx(0.0)

    def test_symmetry_to_machine_precision(self):
        m1 = catalog_family("gaussian-scalar", mu=0.3, sigma2=1.0)
        m2 = catalog_family("gaussian-scalar", mu=-0.6, sigma2=1.7)
        for a in (0.2, 0.45, 0.7):
            u1 = burbea_rao(m1.family.F, m1.theta, m2.theta, a)
            u2 = burbea_rao(m1.family.F, m2.theta, m1.theta, 1.0 - a)
            assert u1 == pytest.approx(u2, rel=1e-14, abs=1e-15)

    def test_nonnegative_for_convex_F(self):
        m1 = catalog_family("gamma", lam=2.0, beta=1.0)
        m2 = catalog_family("gamma", lam=3.5, beta=2.2)
        assert burbea_rao(m1.family.F, m1.theta, m2.theta, 0.4) >= 0.0

    def test_chernoff_matches_numeric(self):
        m1 = catalog_family("gaussian-scalar", mu=0.0, sigma2=1.0)
        m2 = catalog_family("gaussian-scalar", mu=1.0, sigma2=1.5)
        wf = WeightFunction.exponential(0.4)
        adj = AdjointFamily(m1.family, wf, CFG)
        prob = HypothesisProblem(m1.dist, m2.dist, wf)
        for a in (0.3, 0.5, 0.7):
            assert expfam_chernoff(adj, m1.theta, m2.theta, a) == \
                pytest.approx(chernoff_div(prob, a, CFG).value, rel=1e-8)

    def test_half_alpha_is_bhattacharyya(self):
        m1 = catalog_family("gamma", lam=2.0, beta=1.5)
        m2 = catalog_family("gamma", lam=3.0, beta=2.0)
        wf = WeightFunction.exponential(0.3)
        adj = AdjointFamily(m1.family, wf, CFG)
        got = expfam_bhattacharyya(adj, m1.theta, m2.theta)
        assert got == pytest.approx(
            expfam_chernoff(adj, m1.theta, m2.theta, 0.5), abs=1e-14)
        prob = HypothesisProblem(m1.dist, m2.dist, wf)
        assert got == pytest.approx(bhattacharyya_div(prob, CFG).value, rel=1e-8)

    def test_mixture_domain_guard(self):
        m1 = catalog_family("gamma", lam=0.2, beta=1.0)
        bad = np.array([-1.0, -0.95])  # lam' just above 0: mixture stays legal
        assert m1.family.contains(bad)
        outside = np.array([1.0, 0.5])
        adj = AdjointFamily(m1.family, WeightFunction.constant(1.0), CFG)
        with pytest.raises(ParameterOutOfDomainError):
            expfam_chernoff(adj, m1.theta, outside, 0.5)


class TestAdjointCoefficients:
    def test_gaussian_exponential_weight(self):
        mu, s2, g = 0.4, 1.3, 0.6
        m = catalog_family("gaussian-scalar", mu=mu, sigma2=s2)
        adj = AdjointFamily(m.family, WeightFunction.exponential(g), CFG)
        c = adjoint_coefficients(adj, m.theta)
        e0 = math.exp(mu * g + g * g * s2 / 2)
        assert c["E0"] == pytest.approx(e0, rel=1e-12)
        assert c["E1"] == pytest.approx((g * s2 + mu) * e0, rel=1e-12)
        assert c["E2"] == pytest.approx((s2 + (g * s2 + mu) ** 2) * e0, rel=1e-12)

    def test_gaussian_unit_weight_moments(self):
        mu, s2 = -0.3, 0.9
        m = catalog_family("gaussian-scalar", mu=mu, sigma2=s2)
        adj = AdjointFamily(m.family, WeightFunction.constant(1.0), CFG)
        c = adjoint_coefficients(adj, m.theta)
        assert c["E0"] == pytest.approx(1.0)
        assert c["E1"] == pytest.approx(mu)
        assert c["E2"] == pytest.approx(s2 + mu * mu)

    def test_gamma_unit_weight_digamma_identity(self):
        m = catalog_family("gamma", lam=2.0, beta=1.0)
        adj = AdjointFamily(m.family, WeightFunction.constant(1.0), CFG)
        c = adjoint_coefficients(adj, m.theta)
        assert c["L"] == pytest.approx(2.0 - digamma(2.0), rel=1e-12)
        # quadrature cross-check of the linear-log moment
        d = m.dist
        direct, _ = integrate(
            lambda x: d.density(x) * (1.0 * x + (1.0 - 2.0) * np.log(x)),
            d.support, CFG, dists=(d,))
        assert c["L"] == pytest.approx(direct, rel=1e-9)

    def test_exponential_family_laplace_pair(self):
        m = catalog_family("exponential", lam=2.0)
        wf = WeightFunction.exponential(0.5)
        adj = AdjointFamily(m.family, wf, CFG)
        c = adjoint_coefficients(adj, m.theta)
        assert c["phi_hat"] == pytest.approx(1.0 / 1.5)
        assert c["phi_hat_prime"] == pytest.approx(-1.0 / 1.5 ** 2)
        assert c["E0"] == pytest.approx(2.0 / 1.5)

    def test_mv_moments_share_one_mesh(self, monkeypatch):
        """A product of scalar exponential weights is exp(g . x) but has no
        closed form here: E0 and all d + d^2 moments sum over one level-48
        mesh."""
        import winfer.expfam
        mean = np.array([0.2, -0.1])
        cov = np.array([[1.1, 0.3], [0.3, 0.9]])
        g = np.array([0.3, -0.2])
        m = catalog_family("gaussian-multivariate", mean=mean, cov=cov)
        wf = WeightFunction.product([WeightFunction.exponential(float(v)) for v in g])
        adj = AdjointFamily(m.family, wf, CFG)
        calls = []
        real = winfer.expfam.gauss_hermite_nodes
        monkeypatch.setattr(winfer.expfam, "gauss_hermite_nodes",
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        c = adjoint_coefficients(adj, m.theta)
        assert len(calls) == 1
        e0 = math.exp(mean @ g + 0.5 * g @ cov @ g)
        shift = cov @ g + mean
        assert c["E0"] == pytest.approx(e0, rel=1e-12)
        np.testing.assert_allclose(c["E1"], shift * e0, rtol=1e-10)
        np.testing.assert_allclose(c["E2"], (cov + np.outer(shift, shift)) * e0,
                                   rtol=1e-10)

    def test_mv_gaussian_exponential_weight(self):
        mean = np.array([0.2, -0.1])
        cov = np.array([[1.1, 0.3], [0.3, 0.9]])
        g = np.array([0.3, -0.2])
        m = catalog_family("gaussian-multivariate", mean=mean, cov=cov)
        adj = AdjointFamily(m.family, WeightFunction.exponential(g), CFG)
        c = adjoint_coefficients(adj, m.theta)
        e0 = math.exp(mean @ g + 0.5 * g @ cov @ g)
        shift = cov @ g + mean
        assert c["E0"] == pytest.approx(e0, rel=1e-12)
        np.testing.assert_allclose(c["E1"], shift * e0, rtol=1e-12)
        np.testing.assert_allclose(c["E2"], (cov + np.outer(shift, shift)) * e0,
                                   rtol=1e-12)


def _textbook_tilt(name: str, params: dict, g):
    """(E_phi, grad ln E_phi in natural coordinates, weighted moment coefficients)
    of phi(x) = e^{g.x}, from the per-family textbook forms."""
    if name == "exponential":
        lam = params["lam"]
        return lam / (lam - g), [1.0 / lam - 1.0 / (lam - g)], {}
    if name == "poisson":
        lam = params["lam"]
        return math.exp(lam * (math.exp(g) - 1.0)), [lam * (math.exp(g) - 1.0)], {}
    if name == "gaussian-scalar":
        mu, s2 = params["mu"], params["sigma2"]
        th1, th2 = mu / s2, -0.5 / s2
        e0 = math.exp(mu * g + s2 * g * g / 2.0)
        grad = [-g / (2.0 * th2), g * th1 / (2.0 * th2 ** 2) + g * g / (4.0 * th2 ** 2)]
        return e0, grad, {"E1": (g * s2 + mu) * e0, "E2": (s2 + (g * s2 + mu) ** 2) * e0}
    if name == "gamma":
        lam, beta = params["lam"], params["beta"]
        e0 = (beta / (beta - g)) ** lam
        th1 = -beta
        grad = [lam * (1.0 / th1 - 1.0 / (th1 + g)), math.log(-th1) - math.log(-th1 - g)]
        ex, elog = e0 * lam / (beta - g), e0 * (digamma(lam) - math.log(beta - g))
        return e0, grad, {"L": beta * ex + (1.0 - lam) * elog}
    mean, cov = params["mean"], params["cov"]
    e0 = math.exp(mean @ g + 0.5 * g @ cov @ g)
    sg = cov @ g
    grad = np.concatenate([sg, (np.outer(sg, mean) + np.outer(mean, sg)
                                + np.outer(sg, sg)).reshape(-1)])
    shift = sg + mean
    return e0, grad, {"E1": shift * e0, "E2": (cov + np.outer(shift, shift)) * e0}


class TestTilt:
    """An exponential weight shifts the natural parameter: the mass, its log
    gradient and the weighted moments come from F and grad F at theta'."""

    @pytest.mark.parametrize("name,params", MEMBERS)
    @pytest.mark.parametrize("rate", [-0.7, 0.3, 0.9])
    def test_matches_the_textbook_forms(self, name, params, rate):
        m = catalog_family(name, **params)
        g = np.array([rate, -0.5 * rate]) if name == "gaussian-multivariate" else rate
        adj = AdjointFamily(m.family, WeightFunction.exponential(g), CFG)
        e0, grad, coeffs = _textbook_tilt(name, params, g)
        assert adj.weight_mass(m.theta) == pytest.approx(e0, rel=1e-13)
        np.testing.assert_allclose(adj.grad_log_weight_mass(m.theta), grad, rtol=1e-13)
        got = adjoint_coefficients(adj, m.theta)
        for key, want in coeffs.items():
            np.testing.assert_allclose(got[key], want, rtol=1e-13, err_msg=key)

    @pytest.mark.parametrize("name,params", MEMBERS)
    def test_constant_weight_is_the_unweighted_family(self, name, params):
        m = catalog_family(name, **params)
        adj = AdjointFamily(m.family, WeightFunction.constant(2.5), CFG)
        assert adj.weight_mass(m.theta) == 2.5
        assert not np.any(adj.grad_log_weight_mass(m.theta))
        got = adjoint_coefficients(adj, m.theta)
        if name == "gaussian-scalar":
            mu, s2 = params["mu"], params["sigma2"]
            assert got["E1"] == pytest.approx(2.5 * mu, rel=1e-13)
            assert got["E2"] == pytest.approx(2.5 * (s2 + mu * mu), rel=1e-13)
        if name == "gamma":
            lam, beta = params["lam"], params["beta"]
            assert got["L"] == pytest.approx(
                2.5 * (lam + (1.0 - lam) * (digamma(lam) - math.log(beta))), rel=1e-13)

    @pytest.mark.parametrize("rate", [2.0, 3.5])
    def test_exponential_rate_at_or_past_lam_is_out_of_domain(self, rate):
        """g >= lam leaves theta' = lam - g outside lam > 0: the mass diverges,
        and every closed form refuses it (no numeric integral is tried)."""
        m = catalog_family("exponential", lam=2.0)
        m2 = catalog_family("exponential", lam=3.0)
        adj = AdjointFamily(m.family, WeightFunction.exponential(rate), CFG)
        with pytest.raises(ParameterOutOfDomainError, match="natural domain"):
            adj.weight_mass(m.theta)
        with pytest.raises(ParameterOutOfDomainError):
            adj.grad_log_weight_mass(m.theta)
        for form in CLOSED_FORMS.values():
            with pytest.raises(ParameterOutOfDomainError):
                form(adj, m.theta, m2.theta, 0.5)

    @pytest.mark.parametrize("name,params,gamma", [
        ("poisson", {"lam": 1.5}, [0.3]),
        ("gaussian-scalar", {"mu": 0.4, "sigma2": 1.2}, [0.3, 0.2]),
        ("gamma", {"lam": 2.5, "beta": 1.5}, [0.3]),
        ("exponential", {"lam": 2.0}, [0.3]),
        MEMBERS[4] + (0.3,),
        MEMBERS[4] + ([0.3, 0.1, 0.2],),
        ("gaussian-multivariate", {"mean": [0.1], "cov": [[1.0]]}, 0.3),
    ], ids=["poisson-vector", "gaussian-vector", "gamma-vector", "exponential-vector",
            "mv-scalar", "mv-wrong-length", "mv-d1-scalar"])
    def test_mismatched_rate_shape_has_no_closed_form(self, name, params, gamma):
        """A rate not shaped like one outcome is not tilted: the closed forms
        decline, and the numeric fallback raises instead of a silent value."""
        from winfer.expfam import _tilt, _weighted_stat
        m = catalog_family(name, **params)
        wf = WeightFunction.exponential(gamma)
        adj = AdjointFamily(m.family, wf, CFG)
        assert _tilt(m.family, wf, m.theta) is None
        assert _weighted_stat(m.family, wf, m.theta) is None
        with pytest.raises(Exception):
            adj.weight_mass(m.theta)
        with pytest.raises(Exception):
            adj.weight_stat(m.theta)


# (family, params, mpmath density, mpmath t(x), support pieces) of the scalar
# members whose weighted moments are checked against mpmath at 30 digits
_STAT_MEMBERS = {
    "exponential": ("exponential", {"lam": 2.0},
                    lambda x: 2 * mpmath.exp(-2 * x), lambda x: [-x], [0, 1, mpmath.inf]),
    "poisson": ("poisson", {"lam": 1.5},
                lambda k: mpmath.exp(-1.5) * mpmath.mpf(1.5) ** k / mpmath.factorial(k),
                lambda k: [k], None),
    "gaussian": ("gaussian-scalar", {"mu": 0.4, "sigma2": 1.2},
                 lambda x: mpmath.npdf(x, 0.4, mpmath.sqrt(1.2)), lambda x: [x, x * x],
                 [-mpmath.inf, 0, mpmath.inf]),
    "gaussian-left": ("gaussian-scalar", {"mu": -2.5, "sigma2": 0.3},
                      lambda x: mpmath.npdf(x, -2.5, mpmath.sqrt(0.3)), lambda x: [x, x * x],
                      [-mpmath.inf, -2.5, 0, mpmath.inf]),
    "gamma": ("gamma", {"lam": 2.5, "beta": 1.5},
              lambda x: mpmath.mpf(1.5) ** 2.5 * x ** 1.5 * mpmath.exp(-1.5 * x)
              / mpmath.gamma(2.5), lambda x: [x, mpmath.log(x)], [0, 1, mpmath.inf]),
    "gamma-shape-below-1": ("gamma", {"lam": 0.6, "beta": 0.9},
                            lambda x: mpmath.mpf(0.9) ** 0.6 * x ** -0.4 * mpmath.exp(-0.9 * x)
                            / mpmath.gamma(0.6), lambda x: [x, mpmath.log(x)],
                            [0, 1, mpmath.inf]),
}
_STAT_WEIGHTS = {
    "quadratic": WeightFunction.quadratic(0.5, 1.0),
    "quartic": WeightFunction.polynomial([2.0, -1.0, 0.5, 0.3, 0.25]),
    "absolute": WeightFunction.absolute(),
}


def _mp_weighted_stat(pdf, t, pieces, wf):
    """(E_phi, E[phi t]) at 30 digits: a quadrature split at the pieces, or
    the Poisson sum."""
    with mpmath.workdps(30):
        phi = (lambda x: abs(x)) if wf.kind == "absolute" else \
            (lambda x: mpmath.polyval(list(reversed(wf.coeffs)), x))
        rows = [lambda x: phi(x) * pdf(x)] + [
            (lambda i: lambda x: phi(x) * pdf(x) * t(x)[i])(i) for i in range(len(t(1)))]
        if pieces is None:
            return [float(mpmath.nsum(f, [0, mpmath.inf])) for f in rows]
        return [float(mpmath.quad(f, pieces)) for f in rows]


class TestWeightedStat:
    """(E_phi, M = E_theta[phi t]) of the polynomial and absolute weights,
    from the catalog's raw moments, against mpmath."""

    @pytest.mark.parametrize("weight", list(_STAT_WEIGHTS))
    @pytest.mark.parametrize("member", list(_STAT_MEMBERS))
    def test_matches_mpmath(self, member, weight):
        name, params, pdf, t, pieces = _STAT_MEMBERS[member]
        wf = _STAT_WEIGHTS[weight]
        m = catalog_family(name, **params)
        e, mom = AdjointFamily(m.family, wf, CFG).weight_stat(m.theta)
        want = _mp_weighted_stat(pdf, t, pieces, wf)
        rel = 1e-12 if params.get("lam", 1.0) < 1.0 and name == "gamma" else 1e-13
        np.testing.assert_allclose([e, *mom], want, rtol=rel, atol=0)

    @pytest.mark.parametrize("mu,s2", [(-3.0, 0.5), (-0.2, 2.0), (0.0, 1.0), (0.7, 0.1),
                                       (5.0, 4.0)])
    def test_gaussian_absolute_weight_matches_mpmath(self, mu, s2):
        m = catalog_family("gaussian-scalar", mu=mu, sigma2=s2)
        wf = WeightFunction.absolute()
        e, mom = AdjointFamily(m.family, wf, CFG).weight_stat(m.theta)
        want = _mp_weighted_stat(lambda x: mpmath.npdf(x, mu, mpmath.sqrt(s2)),
                                 lambda x: [x, x * x], [-mpmath.inf, min(mu, 0), max(mu, 0),
                                                        mpmath.inf], wf)
        np.testing.assert_allclose([e, *mom], want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("name,params", MEMBERS[:4])
    def test_grad_F_star_is_the_weighted_mean_of_t(self, name, params):
        """grad F* = M / E_phi, and grad ln E_phi = M / E_phi - grad F, against
        central differences of the closed mass."""
        m = catalog_family(name, **params)
        adj = AdjointFamily(m.family, WeightFunction.quadratic(0.5, 1.0), CFG)
        e, mom = adj.weight_stat(m.theta)
        np.testing.assert_allclose(adj.grad_F_star(m.theta), mom / e, rtol=1e-15)
        fd = finite_difference_gradient(
            lambda th: adj.log_weight_mass(np.atleast_1d(th)), m.theta, h=1e-6)
        np.testing.assert_allclose(adj.grad_log_weight_mass(m.theta), fd, rtol=1e-6, atol=1e-8)

    def test_a_zero_weight_is_refused(self):
        """E_phi = 0 is refused as ``divergence`` refuses it, by every closed
        form, not a math domain error or 0 / 0."""
        m1, m2 = catalog_family("gamma", lam=2.0, beta=1.0), catalog_family("gamma", lam=3.0,
                                                                             beta=1.5)
        for wf in (WeightFunction.constant(0.0), WeightFunction.polynomial([0.0])):
            adj = AdjointFamily(m1.family, wf, CFG)
            for form in CLOSED_FORMS.values():
                with pytest.raises(ZeroWeightMassError):
                    form(adj, m1.theta, m2.theta, 0.5)
            with pytest.raises(ZeroWeightMassError):
                adjoint_coefficients(adj, m1.theta)


    @pytest.mark.parametrize("name,params,wf", [
        ("exponential", {"lam": 1e200}, WeightFunction.absolute()),
        ("gamma", {"lam": 2.0, "beta": 1e200}, WeightFunction.quadratic(0.0, 1.0)),
        ("poisson", {"lam": 1e-310}, WeightFunction.absolute()),
        ("gaussian-scalar", {"mu": 0.0, "sigma2": 1e-160},
         WeightFunction.polynomial([0.0, 0.0, 1.0])),
        ("gaussian-scalar", {"mu": 0.0, "sigma2": 1e-240}, WeightFunction.absolute()),
    ], ids=["exponential", "gamma", "poisson", "gaussian", "gaussian-signed"])
    def test_an_underflowed_raw_moment_is_refused(self, name, params, wf):
        """A raw moment that is > 0 but comes out 0 or subnormal refuses the
        weighted statistic, and with it every closed form."""
        m = catalog_family(name, **params)
        with pytest.raises(NonConvergentIntegralError, match="underflows"):
            AdjointFamily(m.family, wf, CFG).weight_stat(m.theta)

    def test_a_zero_signed_moment_is_not_refused(self):
        """E[sign x] = 0 of a centred Gaussian is exact, not an underflow."""
        m = catalog_family("gaussian-scalar", mu=0.0, sigma2=1.0)
        e, mom = AdjointFamily(m.family, WeightFunction.absolute(), CFG).weight_stat(m.theta)
        assert e == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-15) and mom[0] == 0.0


class TestGaussianTvClosedForms:
    def test_zero_shift_vanishes(self):
        for wf in (WeightFunction.quadratic(0.5, 1.0), WeightFunction.absolute(),
                   WeightFunction.exponential(0.4)):
            assert gaussian_tv_closed_form(0.0, wf) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
    def test_corrected_forms_match_quadrature(self, a):
        for wf in (WeightFunction.quadratic(0.4, 1.1), WeightFunction.absolute(),
                   WeightFunction.exponential(0.3)):
            prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                     Distribution.gaussian(a, 1.0), wf)
            assert gaussian_tv_closed_form(a, wf) == pytest.approx(
                weighted_tv(prob, CFG).value, rel=1e-9)

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_printed_forms_evaluate_one_sided_supremum(self, a):
        # printed quadratic/absolute variants = tau + (E_phi(q) - E_phi(p)) / 2
        for wf in (WeightFunction.quadratic(0.4, 1.1), WeightFunction.absolute()):
            prob = HypothesisProblem(Distribution.gaussian(0.0, 1.0),
                                     Distribution.gaussian(a, 1.0), wf)
            tau = weighted_tv(prob, CFG).value
            half_gap = 0.5 * (weight_mass(prob.q, wf, CFG)
                              - weight_mass(prob.p, wf, CFG))
            assert gaussian_tv_closed_form(a, wf, as_printed=True) == \
                pytest.approx(tau + half_gap, rel=1e-9)

    def test_printed_exponential_form_is_negative_at_zero_rate(self):
        wf = WeightFunction.exponential(0.0)
        a = 1.0
        printed = gaussian_tv_closed_form(a, wf, as_printed=True)
        assert printed < 0.0
        assert gaussian_tv_closed_form(a, wf) == pytest.approx(
            erf(a / (2 * math.sqrt(2))), rel=1e-12)

    def test_example_values(self):
        assert gaussian_tv_closed_form(2.0, WeightFunction.absolute(),
                                       as_printed=True) == \
            pytest.approx(1.0 + erf(1.0 / math.sqrt(2)), rel=1e-12)
        assert gaussian_tv_closed_form(2.0, WeightFunction.absolute()) == \
            pytest.approx(1.0731410699216889, rel=1e-12)


def _golden_mv_problems():
    """(adjoint, member, member', problem) of every vector expfam-golden pair."""
    from winfer import verify
    out = []
    for name, p1, p2, wf, _ in verify._golden_pairs_mv():
        m1, m2 = catalog_family(name, **p1), catalog_family(name, **p2)
        out.append((AdjointFamily(m1.family, wf, CFG), m1, m2,
                    HypothesisProblem(m1.dist, m2.dist, wf)))
    return out


class TestVectorLadder:
    """Each vector integral climbs the Gauss-Hermite levels 32, 40, 48, 60 and
    stops where two levels agree (tv from level 48)."""

    LADDER_CASES = [
        ("kl", None), ("shannon-entropy", None), ("bhattacharyya-div", None),
        *[(name, a) for name in ("chernoff-div", "renyi-entropy") for a in (0.3, 0.5, 0.8)]]

    @pytest.mark.parametrize("index", [0, 4, 5, 9])  # two d = 2, two d = 3 pairs
    def test_smooth_integrals_within_their_error_of_the_closed_forms(self, index):
        from winfer.divergence import quantity
        from winfer.expfam import CLOSED_FORMS
        adj, m1, m2, prob = _golden_mv_problems()[index]
        for name, alpha in self.LADDER_CASES:
            closed = CLOSED_FORMS[name](adj, m1.theta, m2.theta, alpha)
            got = quantity(prob, name, CFG, alpha)
            scale = max(1.0, abs(closed))
            assert abs(got.value - closed) <= got.error + 1e-14 * scale, (name, alpha)
            assert got.error <= 1e-9 * scale, (name, alpha)
        # each smooth integral stopped below the top two levels, which tv alone reads
        assert {k[-1] for k in prob.memo if k[0] == "gauss-hermite"} == {32, 40}

    @pytest.mark.parametrize("index", [1, 7])  # one d = 2, one d = 3 pair
    def test_tv_is_the_fixed_two_level_rule_bit_for_bit(self, index, meshgrid_rule):
        """tv reads levels 48 and 60 only: the value at 60 and the gap to 48 of
        the fixed rule that preceded the ladder, bit for bit on the factored
        mesh.  On a node matrix (the meshgrid oracle) each level's sum agrees
        within 8 eps of the sum of |terms|, its roundoff."""
        from winfer.core import gauss_hermite_nodes, mesh_density, mesh_weight
        from winfer.divergence import integrals
        prob = _golden_mv_problems()[index][3]
        p, q, wf = prob.p, prob.q, prob.wf
        cov = np.asarray(p.scale, dtype=float) + np.asarray(q.scale, dtype=float)
        mean = 0.5 * (np.asarray(p.center, dtype=float) + np.asarray(q.center, dtype=float))
        mean = mean + cov @ wf.exp_rate_vector

        def at(level):
            rule = gauss_hermite_nodes(mean, cov, level)
            terms = mesh_weight(rule, wf) * np.abs(mesh_density(rule, p) - mesh_density(rule, q))
            nodes, wts = meshgrid_rule(mean, cov, level)
            oracle = wf(nodes) * wts / Distribution.gaussian_mv(mean, cov).density(nodes) \
                * np.abs(p.density(nodes) - q.density(nodes))
            assert abs(np.sum(terms) - np.sum(oracle)) <= 8 * np.finfo(float).eps * np.sum(oracle)
            return float(np.sum(terms))
        hi = at(60)
        assert integrals(prob, CFG, ["tv"])[0] == (hi, abs(hi - at(48)))
        assert weighted_tv(prob, CFG).value == 0.5 * hi
        assert {k[-1] for k in prob.memo if k[0] == "gauss-hermite"} == {48, 60}

    def test_stiff_pair_climbs_to_the_top_and_reports_the_gap(self):
        """A near-singular covariance (correlation 0.99) under the covering
        Gaussian: kl never settles and climbs to level 60, where its gap to 48
        is 1e-2 and the mesh holds p's unit mass only to 1e-3.  A mesh that
        misses a unit mass by more than 1e-8, what ``_accepted`` allows a
        value of 1, refuses the value instead of reporting it with the gap."""
        from winfer.divergence import _mv_mesh, _terms, integrals
        prob = HypothesisProblem(
            Distribution.gaussian_mv([0.0, 0.0], [[1.0, 0.99], [0.99, 1.0]]),
            Distribution.gaussian_mv([0.3, -0.2], np.eye(2)), WeightFunction.constant(1.0))
        with pytest.raises(NonConvergentIntegralError, match="level-60 Gauss-Hermite mesh misses"):
            integrals(prob, CFG, ["kl"])
        assert {k[-1] for k in prob.memo if k[0] == "gauss-hermite"} == {32, 40, 48, 60}
        g = _terms("kl")[0]
        (*hi, miss), (*lo, _) = (_mv_mesh({}, None, prob.p, prob.q, prob.wf, level)
                                 for level in (60, 48))
        gap = abs(float(np.sum(g(*hi))) - float(np.sum(g(*lo))))
        assert gap > CFG.rel_tol and miss > 1e-8  # neither the tolerance nor the mass is met

    @pytest.mark.parametrize("p_cov,q_mean,q_cov,gamma", [
        ([[1.0, 0.999], [0.999, 1.0]], [0.3, -0.2], np.eye(2), None),
        (0.01 * np.eye(2), [0.5, -0.2], np.eye(2), None),
        (np.diag([1e-12, 1.0]), [0.5, 0.0], np.eye(2), None),
        (np.eye(2), [0.5, 0.0], np.diag([2.0, 1.0]), [30.0, 0.0]),
    ], ids=["correlation-0.999", "narrow-p", "degenerate-p", "exponential-30"])
    def test_uncovered_pairs_are_refused(self, p_cov, q_mean, q_cov, gamma):
        """Pairs whose covering Gaussian misses p or q by 0.26 to 1.0 of a unit
        mass.  Read as values they gave kl 2.5109 +- 0.0138 (closed form
        3.1726), 5.679 +- 0.063 (3.760), 0.0 +- 0.0 (13.72) and 0.0 +- 0.0."""
        from winfer.divergence import integrals
        wf = WeightFunction.constant(1.0) if gamma is None else WeightFunction.exponential(gamma)
        prob = HypothesisProblem(Distribution.gaussian_mv([0.0, 0.0], p_cov),
                                 Distribution.gaussian_mv(q_mean, q_cov), wf)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergentIntegralError, match="misses"):
                integrals(prob, CFG, ["kl"])

    def test_non_finite_sum_is_refused(self):
        """exp(1.1 x_0) near x_0 = 700 is past the float range on a mesh that
        covers p and q: tv is refused, not reported as inf with error 0."""
        from winfer.divergence import integrals
        prob = HypothesisProblem(
            Distribution.gaussian_mv([700.0, 0.0], np.eye(2)),
            Distribution.gaussian_mv([700.5, 0.0], np.diag([2.0, 1.0])),
            WeightFunction.exponential([1.1, 0.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonConvergentIntegralError, match="non-finite"):
                integrals(prob, CFG, ["tv"])

    def test_golden_gap_stays_at_its_gate(self):
        """ROADMAP item 4's gate: the expfam-golden ``max_rel_gap`` must not grow
        past its 3.851e-9 (set by the gamma(4, 2.5) Renyi entropy; every vector
        pair's gap is below 1e-14)."""
        from winfer.verify import suite_expfam_golden
        rep = suite_expfam_golden(0, 0, CFG)
        assert rep.passed
        assert rep.margins["max_rel_gap"] <= 3.86e-9
