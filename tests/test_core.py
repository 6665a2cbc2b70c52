"""Outcome spaces, weight functions, integration engines, sampling."""

import math

import numpy as np
import pytest

from winfer.core import (
    Distribution,
    Integrand,
    IntegrationConfig,
    Support,
    WeightFunction,
    finite_difference_gradient,
    gauss_hermite_nodes,
    integrate,
    mesh_coords,
    mesh_density,
    mesh_weight,
    sample,
)
from winfer.errors import (
    DomainMismatchError,
    IllegalParameterError,
    NoSamplerError,
    NonConvergentIntegralError,
)

CFG = IntegrationConfig()


class TestSupport:
    def test_finite_requires_positive_m(self):
        with pytest.raises(IllegalParameterError):
            Support.finite(0)

    def test_labels_must_be_distinct(self):
        with pytest.raises(IllegalParameterError):
            Support(kind="finite", m=2, labels=("a", "a"))

    def test_vector_dimension_cap(self):
        with pytest.raises(IllegalParameterError):
            Support.real_vector(9)

    def test_tensor_rule_refuses_d4_before_building_a_mesh(self):
        # level 2 keeps the call cheap should the refusal ever go: 16 nodes
        for d in (4, 5, 8):
            with pytest.raises(IllegalParameterError, match="d <= 3"):
                gauss_hermite_nodes(np.zeros(d), np.eye(d), 2)
        wr, x, _, chol = gauss_hermite_nodes(np.zeros(3), np.eye(3), 2)
        assert wr.shape == (8,) and x.shape == (2,) and chol.shape == (3, 3)
        # the density of a d = 4 Gaussian needs no mesh and stays available
        assert Support.real_vector(4).d == 4


class TestWeightFunction:
    def test_constant_negative_rejected(self):
        with pytest.raises(IllegalParameterError):
            WeightFunction.constant(-0.5)

    def test_quadratic_certificate(self):
        WeightFunction.quadratic(b=2.0, c=1.0)  # c == b^2/4 boundary admitted
        with pytest.raises(IllegalParameterError):
            WeightFunction.quadratic(b=2.0, c=0.9)

    def test_negative_polynomial_rejected(self):
        with pytest.raises(IllegalParameterError):
            WeightFunction.polynomial((0.0, 1.0))  # x is negative on x < 0

    def test_table_length_checked_on_use(self):
        wf = WeightFunction.table([1.0, 2.0])
        with pytest.raises(Exception):
            wf.table_on(Support.finite(3))

    def test_exponential_vector_form(self):
        wf = WeightFunction.exponential([0.5, -0.25])
        x = np.array([[1.0, 2.0], [0.0, 0.0]])
        np.testing.assert_allclose(wf(x), np.exp(x @ np.array([0.5, -0.25])))

    def test_product_weight(self):
        wf = WeightFunction.product([WeightFunction.exponential(0.5),
                                     WeightFunction.absolute()])
        x = np.array([[1.0, -2.0]])
        np.testing.assert_allclose(wf(x), np.exp(0.5) * 2.0)

    def test_laplace_transforms(self):
        """phi_hat(s) = int_0^inf phi e^{-sx} dx and phi_hat'(s) = -int_0^inf x
        phi e^{-sx} dx, the exponential family's coefficients at lam = s,
        against direct quadratures and the written-out transforms."""
        from winfer.expfam import AdjointFamily, adjoint_coefficients, catalog_family
        sup = Support.half_line(0.0)
        env = Distribution.exponential(2.0)
        member = catalog_family("exponential", lam=2.0)
        # (phi, phi_hat(2), phi_hat'(2)) with phi_hat written out
        for wf, want, want_prime in (
                (WeightFunction.constant(1.5), 1.5 / 2.0, -1.5 / 4.0),
                (WeightFunction.exponential(0.7), 1.0 / 1.3, -1.0 / 1.3 ** 2),
                (WeightFunction.absolute(), 1.0 / 4.0, -2.0 / 8.0),
                # 1/s + 0.3/s^2 + 2/s^3 and its derivative
                (WeightFunction.quadratic(0.3, 1.0), 0.5 + 0.075 + 0.25,
                 -0.25 - 0.075 - 0.375)):
            direct, _ = integrate(lambda x: wf(x) * np.exp(-2.0 * x), sup, CFG,
                                  dists=(env,))
            direct_prime, _ = integrate(lambda x: -x * wf(x) * np.exp(-2.0 * x), sup, CFG,
                                        dists=(env,))
            c = adjoint_coefficients(AdjointFamily(member.family, wf, CFG), member.theta)
            assert c["phi_hat"] == pytest.approx(want, rel=1e-14)
            assert c["phi_hat_prime"] == pytest.approx(want_prime, rel=1e-14)
            assert c["phi_hat"] == pytest.approx(direct, rel=1e-9)
            assert c["phi_hat_prime"] == pytest.approx(direct_prime, rel=1e-9)


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and np.array_equal(got, want, equal_nan=True)
            and np.array_equal(np.signbit(got), np.signbit(want)))


# x = +-0, negatives, NaN, +-inf, the smallest subnormal, non-integers
_EDGE_INPUTS = np.array([0.0, -0.0, -1.0, -1e-300, np.nan, np.inf, -np.inf, 5e-324,
                         1e-300, 0.5, 1.0, 2.5, 3.0, 100.0, 1e300])


class TestCatalogDensities:
    """Gamma and Poisson densities equal scipy.stats bit for bit."""

    def test_gamma_pdf_matches_scipy_stats(self):
        from scipy import stats
        rng = np.random.default_rng(20)
        for _ in range(60):
            lam, beta = np.exp(rng.uniform(np.log(0.05), np.log(40.0), size=2))
            d = Distribution.gamma(float(lam), float(beta))
            oracle = stats.gamma(a=float(lam), scale=1.0 / float(beta))
            inputs = [_EDGE_INPUTS, np.linspace(0.0, 30.0, 240),
                      rng.normal(scale=4.0, size=(3, 7)), rng.exponential(2.0, 40)[::3],
                      *(float(v) for v in _EDGE_INPUTS)]
            with np.errstate(invalid="ignore"):
                for x in inputs:
                    assert _same_bits(d.pdf(x), oracle.pdf(x)), (lam, beta, x)

    def test_poisson_pmf_and_logpmf_match_scipy_stats(self):
        from scipy import stats
        rng = np.random.default_rng(21)
        for _ in range(60):
            mu = float(np.exp(rng.uniform(np.log(0.01), np.log(300.0))))
            d = Distribution.poisson(mu)
            oracle = stats.poisson(mu=mu)
            inputs = [np.arange(64), np.arange(5000, 5064), rng.integers(-5, 400, (4, 6)),
                      _EDGE_INPUTS, np.array([0.5, 1.0, 2.0, 2.5]), 0, 7, -2,
                      *(float(v) for v in _EDGE_INPUTS)]
            with np.errstate(invalid="ignore"):
                for k in inputs:
                    assert _same_bits(d.pdf(k), oracle.pmf(np.asarray(k))), (mu, k)
                    assert _same_bits(d.logpdf(k), oracle.logpmf(np.asarray(k))), (mu, k)


class TestIntegrate:
    def test_standard_normal_mass(self):
        d = Distribution.gaussian(0.0, 1.0)
        v, err = integrate(d.density, Support.real_line(), CFG, dists=(d,))
        assert v == pytest.approx(1.0, abs=1e-10)

    def test_exponential_mean(self):
        d = Distribution.exponential(2.0)
        v, _ = integrate(lambda x: x * d.density(x), Support.half_line(0.0),
                         CFG, dists=(d,))
        assert v == pytest.approx(0.5, abs=1e-10)

    def test_empty_indicator_sums_to_zero(self):
        v, _ = integrate(lambda i: np.zeros_like(np.asarray(i, dtype=float)),
                         Support.finite(4), CFG)
        assert v == 0.0

    def test_counting_series(self):
        d = Distribution.poisson(3.0)
        v, _ = integrate(d.density, Support.counting(), CFG, dists=(d,))
        assert v == pytest.approx(1.0, abs=1e-12)

    def test_counting_series_large_mean(self):
        # mass peak far from l = 0 must not trigger early termination
        d = Distribution.poisson(300.0)
        v, _ = integrate(d.density, Support.counting(), CFG, dists=(d,))
        assert v == pytest.approx(1.0, abs=1e-10)
        mean, _ = integrate(lambda l: l * d.density(l), Support.counting(),
                            CFG, dists=(d,))
        assert mean == pytest.approx(300.0, rel=1e-10)

    def test_weight_overruns_decay_rejected(self):
        d = Distribution.exponential(1.0)
        with pytest.raises(NonConvergentIntegralError):
            integrate(lambda x: np.exp(1.5 * x) * d.density(x),
                      Support.half_line(0.0), CFG, dists=(d,),
                      wf=WeightFunction.exponential(1.5))

    def test_no_envelope_requires_window(self):
        anon = Distribution(support=Support.real_line(),
                            pdf=lambda x: np.exp(-np.abs(x)) / 2.0, tail="bounded")
        with pytest.raises(NonConvergentIntegralError):
            integrate(anon.density, Support.real_line(), CFG, dists=(anon,))
        boxed = Distribution(support=Support.real_line(),
                             pdf=lambda x: np.exp(-np.abs(x)) / 2.0,
                             tail="bounded", window=(-60.0, 60.0))
        v, _ = integrate(boxed.density, Support.real_line(), CFG, dists=(boxed,))
        assert v == pytest.approx(1.0, abs=1e-10)



# integrands of the shared arrays (p, q, phi), as the divergence module forms them
_PAIR_TERMS = {
    "mass-p": lambda p, q, w: w * p,
    "mass-q": lambda p, q, w: w * q,
    "tv": lambda p, q, w: w * np.abs(p - q),
    "rho": lambda p, q, w: w * np.sqrt(p * q),
    "chernoff-0.3": lambda p, q, w: w * p ** 0.3 * q ** 0.7,
    "entropy-p": lambda p, q, w: -w * np.where(p > 0, p * np.log(np.where(p > 0, p, 1.0)), 0.0),
}
_LOCKSTEP_PAIRS = {
    "gaussian": (Distribution.gaussian(-0.4, 0.8), Distribution.gaussian(0.9, 1.5)),
    "exponential": (Distribution.exponential(1.3), Distribution.exponential(2.6)),
    "gamma-shape-above-1": (Distribution.gamma(2.2, 1.4), Distribution.gamma(3.1, 1.1)),
    "gamma-shape-below-1": (Distribution.gamma(0.6, 1.7), Distribution.gamma(1.8, 1.2)),
    "poisson": (Distribution.poisson(2.5), Distribution.poisson(6.0)),
}
_LOCKSTEP_WEIGHTS = {
    "constant": WeightFunction.constant(1.5),
    "exponential": WeightFunction.exponential(0.35),
    "absolute": WeightFunction.absolute(),
    "quadratic": WeightFunction.quadratic(-0.4, 0.5),
    "polynomial": WeightFunction.polynomial([1.0, 0.0, 0.5, 0.0, 0.1]),
}


def _lockstep_components(p, q, wf):
    comps = []
    for name, g in _PAIR_TERMS.items():
        dists = (p,) if name.endswith("-p") else (q,) if name.endswith("-q") else (p, q)
        comps.append(Integrand(g, dists, wf))
    return comps


def _lone(comp, p, q, wf):
    """One component as a single-integrand call: its outcome, value or error."""
    try:
        return integrate(lambda x: comp.g(p.density(x), q.density(x), wf(x)), p.support, CFG,
                         dists=comp.dists, wf=comp.wf, points=comp.points)
    except NonConvergentIntegralError as exc:
        return exc


class TestLockstepIntegrate:
    @pytest.mark.parametrize("pair", list(_LOCKSTEP_PAIRS))
    @pytest.mark.parametrize("weight", list(_LOCKSTEP_WEIGHTS))
    def test_components_match_lone_calls(self, pair, weight):
        """k components in one call give what k one-component calls give: the
        same outcome each, and the same value and error, bit for bit."""
        p, q = _LOCKSTEP_PAIRS[pair]
        wf = _LOCKSTEP_WEIGHTS[weight]
        comps = _lockstep_components(p, q, wf)
        got = integrate(lambda x: (p.density(x), q.density(x), wf(x)), p.support, CFG,
                        components=comps)
        assert len(got) == len(comps)
        for comp, res in zip(comps, got):
            lone = _lone(comp, p, q, wf)
            assert type(res) is type(lone)
            if isinstance(lone, NonConvergentIntegralError):
                assert str(res) == str(lone)
            else:
                assert res == lone

    def test_breakpoints_and_windows_stay_per_component(self):
        """A component's breakpoints and window are its own: the same integrand
        with and without a breakpoint, and over p's window and the pair's."""
        p, q = Distribution.gaussian(0.0, 0.5), Distribution.gaussian(3.0, 2.0)
        wf = WeightFunction.absolute()
        tv = _PAIR_TERMS["tv"]
        comps = [Integrand(tv, (p, q), wf), Integrand(tv, (p, q), wf, (1.234,)),
                 Integrand(_PAIR_TERMS["mass-p"], (p,), wf),
                 Integrand(_PAIR_TERMS["mass-p"], (p, q), wf)]
        got = integrate(lambda x: (p.density(x), q.density(x), wf(x)), p.support, CFG,
                        components=comps)
        for comp, res in zip(comps, got):
            assert res == _lone(comp, p, q, wf)

    def test_shared_window_is_evaluated_once(self):
        """Components with equal windows and breakpoints share their 16 starting
        panels: the first round runs f once on each distinct panel, and each
        component still equals its lone call."""
        p, q = _LOCKSTEP_PAIRS["gaussian"]
        wf = WeightFunction.constant(1.5)
        comps = [Integrand(_PAIR_TERMS[name], (p, q), wf) for name in ("tv", "rho", "chernoff-0.3")]
        comps.append(Integrand(_PAIR_TERMS["mass-p"], (p,), wf))  # p's own window
        sizes = []

        def f(x):
            sizes.append(x.size)
            return p.density(x), q.density(x), wf(x)
        got = integrate(f, p.support, CFG, components=comps)
        assert sizes[0] == 2 * 16 * 15  # two distinct windows, not four copies
        for comp, res in zip(comps, got):
            assert res == _lone(comp, p, q, wf)

    def test_failure_is_isolated(self):
        """The weight mass of a gamma of shape 0.33 does not converge; in the
        same call every other component equals its lone value."""
        p, q = Distribution.gamma(0.3268537236083787, 2.2493470057209395), \
            Distribution.gamma(2.1806708395890455, 1.0817879422615078)
        wf = WeightFunction.exponential(0.15407534938876033)
        comps = _lockstep_components(p, q, wf)
        got = integrate(lambda x: (p.density(x), q.density(x), wf(x)), p.support, CFG,
                        components=comps)
        assert isinstance(got[0], NonConvergentIntegralError)  # E_phi(p)
        assert isinstance(_lone(comps[0], p, q, wf), NonConvergentIntegralError)
        converged = [i for i, res in enumerate(got) if isinstance(res, tuple)]
        assert {1, 3, 4} <= set(converged)  # E_phi(q), rho, the Chernoff numerator
        for i in converged:
            assert got[i] == _lone(comps[i], p, q, wf)

    def test_window_failure_is_isolated(self):
        p, q = Distribution.exponential(1.0), Distribution.exponential(3.0)
        wf = WeightFunction.exponential(1.5)  # outgrows p, not q
        comps = [Integrand(_PAIR_TERMS["mass-p"], (p,), wf),
                 Integrand(_PAIR_TERMS["mass-q"], (q,), wf)]
        bad, good = integrate(lambda x: (p.density(x), q.density(x), wf(x)), p.support,
                              CFG, components=comps)
        assert isinstance(bad, NonConvergentIntegralError)
        assert good[0] == pytest.approx(3.0 / 1.5, rel=1e-12)

    def test_cross_check_with_quad_vec(self):
        """scipy's vector adaptive quadrature, an independent engine, on a
        smooth Gaussian pair."""
        from scipy.integrate import quad_vec
        p, q = Distribution.gaussian(-0.3, 0.9), Distribution.gaussian(0.8, 1.4)
        wf = WeightFunction.quadratic(0.3, 1.0)
        names = ["mass-p", "mass-q", "rho", "chernoff-0.3", "entropy-p"]
        comps = [Integrand(_PAIR_TERMS[n], (p, q), wf) for n in names]
        got = integrate(lambda x: (p.density(x), q.density(x), wf(x)), p.support, CFG,
                        components=comps)

        def vec(x):
            pq = (p.density(np.array([x])), q.density(np.array([x])), wf(np.array([x])))
            return np.array([float(_PAIR_TERMS[n](*pq)[0]) for n in names])
        want, _ = quad_vec(vec, -np.inf, np.inf, epsrel=1e-12, epsabs=1e-14)
        for (val, _), ref in zip(got, want):
            assert val == pytest.approx(ref, rel=1e-9)

    def test_series_components_keep_their_own_length(self):
        """A Poisson of mean 300 needs ~500 terms; a component that reads only
        the Poisson of mean 2 stops after its own two quiet blocks."""
        p, q = Distribution.poisson(2.0), Distribution.poisson(300.0)
        wf = WeightFunction.absolute()
        comps = [Integrand(_PAIR_TERMS["mass-p"], (p,), wf),
                 Integrand(_PAIR_TERMS["mass-q"], (q,), wf)]
        seen = []

        def shared(ls):
            seen.append(ls[-1])
            return p.density(ls), q.density(ls), wf(ls)
        (ep, _), (eq, _) = integrate(shared, Support.counting(), CFG, components=comps)
        assert ep == pytest.approx(2.0, rel=1e-12) and eq == pytest.approx(300.0, rel=1e-10)
        assert (ep, eq) == (_lone(comps[0], p, q, wf)[0], _lone(comps[1], p, q, wf)[0])
        assert max(seen) < 1000  # both stop: the series does not run to its term budget


def _panel_widths(x):
    """Widths of the G7/K15 panels whose nodes an evaluator received: the
    outer Kronrod nodes sit at mid -+ 0.991455371120813 half."""
    x = np.asarray(x).reshape(-1, 15)
    return (x[:, -1] - x[:, 0]) / 0.991455371120813


def _bisection(g, p, q, wf, dists):
    """The evaluator inputs and the (value, error) of plain adaptive
    bisection, one component: 16 equal panels of its window cut at the
    weight's kinks, then each round, up to ``_MAX_ROUNDS``, the halves of every
    panel whose error exceeds a quarter of its share of the budget, kept
    panels first, then left halves, then right halves."""
    from winfer.core import _MAX_ROUNDS, _gk_panels, _window_for
    seen = []

    def f(x):
        seen.append(x)
        return p.density(x), q.density(x), wf(x)
    lo, hi = _window_for(p.support, CFG, dists, wf)
    e = np.arange(17.0) * ((hi - lo) / 16) + lo
    e[-1] = hi
    e = np.unique(np.concatenate([e, [k for k in wf.kink_points if lo < k < hi]]))
    los, his = e[:-1], e[1:]
    vals, errs = _gk_panels(f, [g], None, los, his)
    for rnd in range(_MAX_ROUNDS + 1):
        total, err = np.add.reduceat(vals, [0])[0], np.add.reduceat(errs, [0])[0]
        tol = max(CFG.abs_tol, CFG.rel_tol * abs(total))
        if not err > tol or rnd == _MAX_ROUNDS:
            break
        split = errs > 0.25 * tol / los.size
        lo, hi = los[split], his[split]
        mid = 0.5 * (lo + hi)
        new_lo, new_hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        new_v, new_e = _gk_panels(f, [g], None, new_lo, new_hi)
        los, his = np.concatenate([los[~split], new_lo]), np.concatenate([his[~split], new_hi])
        vals, errs = np.concatenate([vals[~split], new_v]), np.concatenate([errs[~split], new_e])
    return seen, (total, err)


class TestGradedEndpoint:
    """On a half-line, the panel at the lower edge splits at lo + h/16, h/8,
    h/4 and h/2; every other panel, and every panel off the half-line,
    bisects."""

    def test_gamma_pair_converges_in_few_rounds(self):
        """Shapes 1.35 and 2.2: p's derivative is singular at 0.  Every
        component meets its tolerance within 8 evaluator calls (bisection
        took 20), each within 1e-9 relative of mpmath's quadrature."""
        import mpmath as mp
        (lp, bp), (lq, bq), gam = (1.35, 1.3), (2.2, 0.9), 0.3
        p, q, wf = Distribution.gamma(lp, bp), Distribution.gamma(lq, bq), \
            WeightFunction.exponential(gam)
        names = [n for n in _PAIR_TERMS if n != "tv"]  # tv needs its crossing as a breakpoint
        comps = [c for c in _lockstep_components(p, q, wf) if c.g is not _PAIR_TERMS["tv"]]
        calls = []

        def f(x):
            calls.append(x.size)
            return p.density(x), q.density(x), wf(x)
        got = integrate(f, p.support, CFG, components=comps)
        assert len(calls) <= 8
        with mp.workdps(30):
            pdf = lambda x, lam, beta: beta ** lam * x ** (lam - 1) * mp.exp(-beta * x) \
                / mp.gamma(lam)
            dens = {"p": lambda x: pdf(x, mp.mpf(lp), mp.mpf(bp)),
                    "q": lambda x: pdf(x, mp.mpf(lq), mp.mpf(bq))}
            terms = {"mass-p": lambda d, e: d, "mass-q": lambda d, e: e,
                     "rho": lambda d, e: mp.sqrt(d * e),
                     "chernoff-0.3": lambda d, e: d ** 0.3 * e ** 0.7,
                     "entropy-p": lambda d, e: -d * mp.log(d)}
            for name, (val, _) in zip(names, got):
                want = mp.quad(lambda x: mp.exp(gam * x) * terms[name](
                    dens["p"](x), dens["q"](x)), [0, 1, 10, mp.inf])
                assert val == pytest.approx(float(want), rel=1e-9), name

    def test_floor_is_64_halvings_of_the_starting_panel(self):
        """Shape 0.4: p is x^-0.6 at 0.  No panel gets finer than 2^-64 of
        its starting panel (the window's step); the lower-edge panel reaches
        that floor, and the component then stops, long before the 64-round
        cap, at bisection's value within the two reported errors."""
        from winfer.core import _MAX_ROUNDS, _window_for
        p, wf = Distribution.gamma(0.4, 1.3), WeightFunction.exponential(0.3)
        widths = []

        def f(x):
            widths.append(_panel_widths(x))
            return wf(x) * p.density(x)
        got = integrate(f, p.support, CFG, dists=(p,), wf=wf)
        lo, hi = _window_for(p.support, CFG, (p,), wf)
        floor = (hi - lo) / 16 * 2.0 ** -_MAX_ROUNDS
        finest = min(w.min() for w in widths)
        assert finest == pytest.approx(floor, rel=1e-9)
        assert len(widths) < _MAX_ROUNDS // 3
        _, (val, err) = _bisection(_PAIR_TERMS["mass-p"], p, p, wf, (p,))
        assert abs(got[0] - val) <= got[1] + err

    @pytest.mark.parametrize("name", ["mass-p", "tv", "rho", "entropy-p"])
    @pytest.mark.parametrize("weight", ["exponential", "absolute", "quadratic"])
    def test_gaussian_partition_is_unchanged(self, name, weight):
        """A Gaussian component evaluates exactly the panels of plain
        bisection, round by round (tv without a breakpoint has a kink)."""
        p, q = _LOCKSTEP_PAIRS["gaussian"]
        wf = _LOCKSTEP_WEIGHTS[weight]
        dists = (p,) if name.endswith("-p") else (p, q)
        seen = []

        def f(x):
            seen.append(x)
            return _PAIR_TERMS[name](p.density(x), q.density(x), wf(x))
        integrate(f, p.support, CFG, dists=dists, wf=wf)
        want, _ = _bisection(_PAIR_TERMS[name], p, q, wf, dists)
        assert len(seen) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(seen, want))

    def test_poisson_blocks_are_unchanged(self):
        """A Poisson series reads terms 0, 1, 2, ... in blocks of 64."""
        p, q = _LOCKSTEP_PAIRS["poisson"]
        wf = WeightFunction.absolute()
        seen = []

        def f(k):
            seen.append(k)
            return p.density(k), q.density(k), wf(k)
        integrate(f, p.support, CFG, components=_lockstep_components(p, q, wf))
        assert len(seen) > 1
        assert all(np.array_equal(k, np.arange(64 * i, 64 * (i + 1))) for i, k in enumerate(seen))


class TestGaussHermiteNodes:
    """The tensor rule in factored form, ``(wr, x, center, chol)``: the nodes
    are center + chol z on the grid of the 1-D nodes x, wr their Lebesgue
    weights; ``mesh_density`` and ``mesh_weight`` evaluate on it."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("level", [12, 48, 60])
    def test_bit_identical_to_the_meshgrid_rule(self, d, level, meshgrid_rule):
        """The factors are the 1-D nodes, the center and the Cholesky factor,
        and wr the meshgrid rule's weights over the closed form of its
        reference density, ((sqrt(det cov) v_0) v_1) ... with v_k = w_k
        exp(z_k^2 / 2), bit for bit; the coordinates that ``mesh_coords`` sums
        are the meshgrid nodes within the roundoff of a d-term sum."""
        rng = np.random.default_rng(100 * d + level)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.1 * np.eye(d)
        center = rng.normal(size=d)
        rule = gauss_hermite_nodes(center, cov, level)
        wr, x, c, chol = rule
        z, w = np.polynomial.hermite_e.hermegauss(level)
        assert np.array_equal(x, z) and np.array_equal(c, center)
        assert np.array_equal(chol, np.linalg.cholesky(cov))
        want = np.full(level ** d, float(np.prod(np.diag(chol))))
        for g in np.meshgrid(*([w * np.exp(0.5 * z * z)] * d), indexing="ij"):
            want = want * g.reshape(-1)
        assert np.array_equal(wr, want)
        nodes, _ = meshgrid_rule(center, cov, level)
        for i, xi in enumerate(mesh_coords(rule)):
            got = np.broadcast_to(xi, (level,) * d).reshape(-1)
            np.testing.assert_allclose(got, nodes[:, i], rtol=0,
                                       atol=4 * d * np.finfo(float).eps * np.abs(nodes).max())

    def test_scalar_covariance_is_isotropic(self):
        rule = gauss_hermite_nodes([0.5, -1.0], 2.0, 10)
        want = gauss_hermite_nodes([0.5, -1.0], 2.0 * np.eye(2), 10)
        assert all(np.array_equal(a, b) for a, b in zip(rule, want))
        assert np.array_equal(rule[3], math.sqrt(2.0) * np.eye(2))
        ref = Distribution.gaussian_mv([0.5, -1.0], 2.0 * np.eye(2))
        assert np.sum(rule[0] * mesh_density(rule, ref)) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lebesgue_weights_are_the_rule_over_the_density(self, d, meshgrid_rule):
        rng = np.random.default_rng(7 * d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.2 * np.eye(d)
        center = rng.normal(size=d)
        nodes, wts = meshgrid_rule(center, cov, 24)
        rule = gauss_hermite_nodes(center, cov, 24)
        ref = Distribution.gaussian_mv(center, cov).density(nodes)
        np.testing.assert_allclose(rule[0], wts / ref, rtol=1e-12, atol=0)
        # a unit-mass density other than the reference integrates to 1
        other = Distribution.gaussian_mv(center + 0.3, 0.8 * cov)
        assert np.sum(rule[0] * mesh_density(rule, other)) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("level", [12, 60])
    def test_mesh_arrays_match_scipy_at_meshgrid_nodes(self, d, level, meshgrid_rule):
        """p and q against ``scipy.stats.multivariate_normal.pdf``, and phi wr
        against the weight evaluated on the node matrix times wr, wherever the
        oracle exceeds 1e-250.  exp(-m/2) turns a rounding error e of the
        Mahalanobis form m, in either the mesh or the oracle at the rounded
        node, into a relative error e m / 2, so the bound is 1e-13 (1 + m / 2);
        likewise 1e-13 (1 + |ln phi|) for the weight."""
        from scipy.stats import multivariate_normal
        rng = np.random.default_rng(10 * d + level)
        for _ in range(3):
            covs = []
            for jitter in (0.2, 0.3):
                a = rng.normal(size=(d, d))
                covs.append(a @ a.T + jitter * np.eye(d))
            means = rng.normal(size=(2, d))
            g = 0.3 * rng.normal(size=d)
            center = means.mean(axis=0) + sum(covs) @ g
            rule = gauss_hermite_nodes(center, sum(covs), level)
            nodes, _ = meshgrid_rule(center, sum(covs), level)
            for mean, cov in zip(means, covs):
                want = multivariate_normal(mean, cov).pdf(nodes).reshape(-1)
                dev = nodes - mean
                half_m = 0.5 * np.einsum("ni,ni->n", dev, np.linalg.solve(cov, dev.T).T)
                ok = want > 1e-250
                got = mesh_density(rule, Distribution.gaussian_mv(mean, cov))
                assert np.all(np.abs(got - want)[ok] <= (1e-13 * (1 + half_m) * want)[ok])
            factors = [WeightFunction.exponential(float(v)) for v in g]
            for wf in (WeightFunction.exponential(g), WeightFunction.product(factors)):
                want = wf(nodes) * rule[0]
                bound = 1e-13 * (1 + np.abs(nodes @ g)) * want
                assert np.all(np.abs(mesh_weight(rule, wf) - want) <= bound)
            assert np.array_equal(mesh_weight(rule, WeightFunction.constant(2.5)), 2.5 * rule[0])

    def test_only_gaussians_and_vector_weights_evaluate_on_a_mesh(self):
        rule = gauss_hermite_nodes([0.0, 0.0], np.eye(2), 4)
        custom = Distribution(support=Support.real_vector(2), pdf=lambda x: np.ones(len(x)))
        with pytest.raises(DomainMismatchError, match="Gaussians"):
            mesh_density(rule, custom)
        for wf in (WeightFunction.polynomial([1.0, 0.0, 1.0]), WeightFunction.absolute()):
            with pytest.raises(DomainMismatchError, match="vector outcomes"):
                mesh_weight(rule, wf)


class TestMultivariateGaussianDensity:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_matches_scipy_out_to_the_far_tail(self, d):
        """Against scipy.stats.multivariate_normal at Mahalanobis radii 0 to 30.
        exp(-q/2) turns a relative rounding error e of the quadratic form q
        into a relative error e q / 2 of the density, in either
        implementation, so the bound is 1e-13 (1 + q / 2)."""
        from scipy.stats import multivariate_normal
        rng = np.random.default_rng(d)
        a = rng.normal(size=(d, d))
        cov = a @ a.T + 0.3 * np.eye(d)
        mean = rng.normal(size=d)
        u = rng.normal(size=(400, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = np.repeat([0.0, 1.0, 4.0, 9.0, 14.0, 20.0, 25.0, 30.0], 50)
        x = mean + (u * r[:, None]) @ np.linalg.cholesky(cov).T
        got = Distribution.gaussian_mv(mean, cov).density(x)
        want = multivariate_normal(mean, cov).pdf(x)
        assert np.all(want > 0)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + r * r / 2.0) * want)
        single = Distribution.gaussian_mv(mean, cov).density(x[1])
        assert np.ndim(single) == 0 and single == got[1]

    def test_non_symmetric_covariance_refused(self):
        with pytest.raises(IllegalParameterError, match="symmetric"):
            Distribution.gaussian_mv([0.0, 0.0], [[1.0, 0.9], [0.0, 1.0]])
        with pytest.raises(IllegalParameterError, match="symmetric"):
            Distribution.gaussian_mv([0.0, 0.0], [[1.0, 0.5], [0.5 + 1e-9, 1.0]])
        near = Distribution.gaussian_mv([0.0, 0.0], [[1.0, 0.5], [0.5 + 1e-13, 1.0]])
        assert near.density(np.zeros(2)) > 0


class TestWeightMass:
    def test_closed_form_weight_masses_match_quadrature(self):
        # catalog families x built-in weight specs, 1e-8 relative
        from winfer.divergence import weight_mass
        from winfer.expfam import AdjointFamily, catalog_family

        cases = [
            ("exponential", {"lam": 2.0}),
            ("gamma", {"lam": 2.5, "beta": 1.5}),
            ("gaussian-scalar", {"mu": 0.4, "sigma2": 1.2}),
            ("poisson", {"lam": 1.7}),
        ]
        weights = [WeightFunction.constant(2.0), WeightFunction.exponential(0.3),
                   WeightFunction.absolute(), WeightFunction.quadratic(0.5, 1.0)]
        for name, params in cases:
            member = catalog_family(name, **params)
            for wf in weights:
                adj = AdjointFamily(member.family, wf, CFG)
                closed = adj.weight_mass(member.theta)
                numeric = weight_mass(member.dist, wf, CFG)
                assert closed == pytest.approx(numeric, rel=1e-8), (name, wf.kind)


class TestSampling:
    def test_zero_draws(self):
        d = Distribution.from_pmf([0.5, 0.5])
        assert sample(d, 0, seed=1).size == 0

    def test_degenerate_bernoulli(self):
        d = Distribution.from_pmf([0.0, 1.0])
        np.testing.assert_array_equal(sample(d, 5, seed=7), np.ones(5, dtype=int))

    def test_gaussian_mean_clt_bound(self):
        xs = sample(Distribution.gaussian(0.0, 1.0), 100_000, seed=42)
        assert abs(xs.mean()) <= 4.0 / math.sqrt(100_000)

    def test_deterministic_under_seed(self):
        d = Distribution.gaussian(0.0, 1.0)
        np.testing.assert_array_equal(sample(d, 64, seed=9), sample(d, 64, seed=9))

    def test_distinct_seeds_differ(self):
        d = Distribution.gaussian(0.0, 1.0)
        assert not np.array_equal(sample(d, 8, seed=1), sample(d, 8, seed=2))

    def test_no_sampler_raises(self):
        anon = Distribution(support=Support.real_line(), pdf=lambda x: x)
        with pytest.raises(NoSamplerError):
            sample(anon, 3, seed=0)

    def test_goodness_of_fit_finite(self):
        d = Distribution.from_pmf([0.2, 0.3, 0.5])
        xs = sample(d, 60_000, seed=3)
        freq = np.bincount(xs, minlength=3) / xs.size
        np.testing.assert_allclose(freq, [0.2, 0.3, 0.5], atol=0.01)


class TestFiniteDifference:
    def test_square(self):
        g = finite_difference_gradient(lambda t: float(t) ** 2, 3.0)
        assert g[0] == pytest.approx(6.0, abs=1e-6)

    def test_constant(self):
        g = finite_difference_gradient(lambda t: 1.25, np.array([0.3, -2.0]))
        np.testing.assert_allclose(g, 0.0, atol=1e-9)

    def test_log_normalizer_derivative(self):
        g = finite_difference_gradient(lambda lam: -math.log(lam), 2.0)
        assert g[0] == pytest.approx(-0.5, abs=1e-6)


class TestIntegrationConfig:
    def test_positive_tolerances_required(self):
        with pytest.raises(IllegalParameterError):
            IntegrationConfig(rel_tol=0.0)
        with pytest.raises(IllegalParameterError):
            IntegrationConfig(tail_mass_bound=0.0)
