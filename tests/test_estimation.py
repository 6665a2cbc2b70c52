"""Weighted Fisher information, Cramer-Rao, and van Trees machinery."""

import math

import numpy as np
import pytest

from winfer.core import IntegrationConfig, WeightFunction
from winfer.errors import (
    IllegalParameterError,
    ParameterOutOfDomainError,
    RegularityError,
)
from winfer.estimation import (
    EstimatorSpec,
    ParametricModel,
    PriorSpec,
    check_regularity,
    cramer_rao,
    gaussian_scale_model,
    gaussian_shift_model,
    kl_expansion_check,
    mean_estimator,
    nfold_weighted_fisher,
    poisson_log_mean_model,
    scale_abs_mean_estimator,
    shifted_mean_estimator,
    van_trees,
    weighted_fisher,
    weighted_fisher_aux,
)

CFG = IntegrationConfig()
ONE = WeightFunction.constant(1.0)


def b1_mass(theta, g, s2, n=1):
    return math.exp(n * (theta * g + s2 * g * g / 2.0))


def no_work(monkeypatch):
    """Make any integral at theta or any random draw fail the test."""
    import winfer.estimation as estimation

    def raising(*args, **kwargs):
        raise AssertionError("work started")
    monkeypatch.setattr(estimation, "_at_theta", raising)
    monkeypatch.setattr(np.random, "default_rng", raising)


def recorded_draws(monkeypatch) -> list:
    """The shape of every ``standard_normal`` draw of the generators made from here
    on, in order."""
    shapes, real = [], np.random.default_rng

    class Recording:
        def __init__(self, *args):
            self.rng = real(*args)

        def standard_normal(self, size):
            shapes.append(size)
            return self.rng.standard_normal(size)
    monkeypatch.setattr(np.random, "default_rng", Recording)
    return shapes


def block_values(wf, fn, xs, theta, deviation=True):
    """The per-row block evaluation the Monte Carlo ran before it read row
    statistics, kept as the oracle: phi^{(n)}(x) (fn(x) - theta)^2, or
    phi^{(n)}(x) fn(x), for each row x of the (T, n) sample block xs."""
    with np.errstate(divide="ignore"):
        weight = np.exp(np.log(wf(xs)).sum(axis=1))
    estimate = fn(xs)
    return weight * ((estimate - theta) ** 2 if deviation else estimate)


def oracle_mc(model, wf, est, fn, thetas, n, chunks, rng, deviation=True):
    """(mean, stderr, diff_stderr) of ``block_values`` at each theta, on the
    draws the statistics path makes for the estimator's statistic, with
    x = mu + s z from the model's location-scale description: a chunk for S is
    sum z = sqrt(n) Z, spread evenly over a row so that x sums to
    n mu + s sum z; a chunk for A is one standard-normal block of z."""
    (mu1, mu0), (s1, s0) = model.location_scale
    vs = [[] for _ in thetas]
    for t in chunks:
        if est.statistic == "S":
            z = np.repeat((math.sqrt(n) * rng.standard_normal(t) / n)[:, None], n, axis=1)
        else:
            z = rng.standard_normal((t, n))
        for k, th in enumerate(thetas):
            xs = (mu1 * th + mu0) + (s1 * th + s0) * z
            vs[k].append(block_values(wf, fn, xs, th, deviation))
    vs = [np.concatenate(v) for v in vs]
    root = math.sqrt(vs[0].size)
    return [(v.mean(), v.std() / root, (v - vs[0]).std() / root) for v in vs]


def block_draws(est, n, trials, seed):
    """The standard-normal draws of each seed-addressed block of the Monte Carlo,
    rebuilt from its spawn key: ``_MC_BLOCK`` of them for S, rows of n for A, and
    a short last block."""
    import winfer.estimation as estimation
    rows = estimation._MC_BLOCK if est.statistic == "S" else max(1, estimation._MC_BLOCK // n)
    for k, lo in enumerate(range(0, trials, rows)):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
        t = min(rows, trials - lo)
        yield rng.standard_normal(t if est.statistic == "S" else (t, n))


def tilted_oracle(model, wf, est, fn, thetas, n, trials, seed):
    """(mean, ddof-0 stderr) of E^n (fn(x) - theta)^2 at each theta, with E the
    weight's mean written out and x = mu + s z the tilted rows rebuilt from the
    blocks: z ~ N(g, 1) with g = gamma s, spread evenly over a row for S (its
    mean g + Z / sqrt(n)), the block plus g for A."""
    (mu1, mu0), (s1, s0) = model.location_scale
    r, c = (float(wf.gamma), 1.0) if wf.kind == "exponential" else (0.0, float(wf.c))
    out = []
    for th in thetas:
        mu, s = mu1 * th + mu0, s1 * th + s0
        g = r * s
        mass = (c * math.exp(r * mu + g * g / 2.0)) ** n
        vs = []
        for w in block_draws(est, n, trials, seed):
            z = np.repeat((g + w / math.sqrt(n))[:, None], n, axis=1) \
                if est.statistic == "S" else w + g
            vs.append(mass * (fn(mu + s * z) - th) ** 2)
        v = np.concatenate(vs)
        out.append((v.mean(), v.std() / math.sqrt(v.size)))
    return np.array(out)


def mean_stderr(sums, trials) -> np.ndarray:
    """(mean, ddof-0 stderr) of v at each theta, from ``_mc_sums``'s sums of v and
    v^2 over ``trials`` draws."""
    mean = sums[:, 0] / trials
    var = np.maximum(sums[:, 1] / trials - mean * mean, 0.0)
    return np.column_stack([mean, np.sqrt(var / trials)])


def abs_mean(xs):
    return math.sqrt(math.pi / 2.0) * np.abs(xs).mean(axis=1)


class TestModels:
    @pytest.mark.parametrize("model,theta", [
        (gaussian_shift_model(1.3), 0.4),
        (gaussian_scale_model(), 1.2),
        (poisson_log_mean_model(), 0.5),
    ])
    def test_gradient_matches_finite_differences(self, model, theta):
        dist = model.make_distribution(theta)
        xs = dist.draw(np.random.default_rng(0), 16)
        h = 1e-6
        fd = (model.make_distribution(theta + h).density(xs)
              - model.make_distribution(theta - h).density(xs)) / (2 * h)
        np.testing.assert_allclose(model.grad_density(xs, theta, dist.density(xs)), fd,
                                   rtol=1e-5, atol=1e-8)

    def test_theta_domain(self):
        with pytest.raises(Exception):
            gaussian_scale_model().check(-1.0)


# The models' densities, gradients and samplers as they were written out before
# the models were derived from the Distribution constructors; the derived
# models must reproduce them bit for bit (shift model at sigma = 1).
def _shift_written_out(x, th):
    s2 = 1.0 * 1.0
    p = np.exp(-((x - th) ** 2) / (2 * s2)) / math.sqrt(2 * math.pi * s2)
    return p, p * (x - th) / s2, lambda rng, size: rng.normal(th, 1.0, size=size)


def _scale_written_out(x, th):
    p = np.exp(-x * x / (2 * th * th)) / (math.sqrt(2 * math.pi) * th)
    return p, p * (x * x / th ** 3 - 1.0 / th), \
        lambda rng, size: rng.normal(0.0, th, size=size)


def _poisson_written_out(x, th):
    from scipy.special import gammaln, xlogy
    lam = math.exp(th)
    p = np.clip(np.exp(xlogy(x, lam) - gammaln(x + 1) - lam), 0, 1)
    return p, p * (x - lam), lambda rng, size: rng.poisson(lam, size=size)


class TestDerivedModels:
    @pytest.mark.parametrize("model,oracle,thetas,xs", [
        (gaussian_shift_model(), _shift_written_out, (-1.3, 0.0, 0.37, 2.5),
         np.linspace(-9.0, 9.0, 401)),
        (gaussian_scale_model(), _scale_written_out, (0.3, 1.0, 1.7, 4.2),
         np.linspace(-12.0, 12.0, 401)),
        (poisson_log_mean_model(), _poisson_written_out, (-0.7, 0.0, 1.2, 2.9),
         np.arange(0.0, 80.0)),
    ], ids=["shift", "scale", "poisson"])
    def test_equal_to_written_out_formulas(self, model, oracle, thetas, xs):
        for th in thetas:
            dist = model.make_distribution(th)
            p_want, grad_want, draw_want = oracle(xs, th)
            p = dist.density(xs)
            np.testing.assert_array_equal(p, p_want)
            np.testing.assert_array_equal(model.grad_density(xs, th, p), grad_want)
            np.testing.assert_array_equal(dist.draw(np.random.default_rng(7), (50, 4)),
                                          draw_want(np.random.default_rng(7), (50, 4)))


class TestWeightedFisher:
    def test_classical_gaussian(self):
        m = gaussian_shift_model(sigma=1.5)
        assert weighted_fisher(m, ONE, 0.7, CFG) == pytest.approx(1.0 / 1.5 ** 2,
                                                                  rel=1e-10)

    def test_exponential_weight_closed_form(self):
        s2, g, th = 1.0, 0.5, 0.3
        m = gaussian_shift_model(sigma=math.sqrt(s2))
        want = (1.0 / s2 + g * g) * b1_mass(th, g, s2)
        assert weighted_fisher(m, WeightFunction.exponential(g), th, CFG) == \
            pytest.approx(want, rel=1e-8)

    def test_scale_family_closed_form(self):
        th, g = 1.4, 0.6
        m = gaussian_scale_model()
        wf = WeightFunction.exponential(g / th)  # weight scaled at the eval point
        want = th ** -2 * math.exp(g * g / 2) * (2 + 4 * g * g + g ** 4)
        assert weighted_fisher(m, wf, th, CFG) == pytest.approx(want, rel=1e-8)

    def test_aux_identities(self):
        th, g = 0.3, 0.5
        m = gaussian_shift_model()
        aux = weighted_fisher_aux(m, WeightFunction.exponential(g), th, CFG)
        e = b1_mass(th, g, 1.0)
        assert aux.E == pytest.approx(e, rel=1e-10)
        assert aux.grad_E[0] == pytest.approx(g * e, rel=1e-6)
        assert aux.interchange_gap <= 1e-6

    def test_unit_weight_aux_trivial(self):
        m = gaussian_shift_model()
        aux = weighted_fisher_aux(m, ONE, 0.2, CFG)
        assert aux.E == pytest.approx(1.0, abs=1e-10)
        assert abs(aux.grad_E[0]) <= 1e-8
        assert abs(aux.V[0]) <= 1e-10

    def test_exponential_rate_family_mass(self):
        from winfer.divergence import weight_mass
        from winfer.core import Distribution
        lam, g = 2.0, 0.5
        assert weight_mass(Distribution.exponential(lam),
                           WeightFunction.exponential(g), CFG) == \
            pytest.approx(lam / (lam - g), rel=1e-10)


def two_parameter_gaussian_model() -> ParametricModel:
    """N(mu, e^{2s}) with theta = (mu, s); exercises the matrix Fisher path."""

    def grad_density(x, th, p):
        mu, s = th
        sd = math.exp(s)
        x = np.asarray(x, dtype=float)
        return np.stack([p * (x - mu) / sd ** 2,
                         p * ((x - mu) ** 2 / sd ** 2 - 1.0)], axis=-1)

    from winfer.core import Distribution
    return ParametricModel(
        name="gaussian-mean-logsd", d=2, grad_density=grad_density,
        make_distribution=lambda th: Distribution.gaussian(th[0], math.exp(2 * th[1])))


class TestMatrixFisher:
    def test_classical_two_parameter_gaussian(self):
        model = two_parameter_gaussian_model()
        theta = np.array([0.4, 0.3])
        mat = weighted_fisher(model, ONE, theta, CFG)
        sd = math.exp(0.3)
        np.testing.assert_allclose(mat, np.diag([1.0 / sd ** 2, 2.0]),
                                   rtol=1e-8, atol=1e-10)

    def test_weighted_matrix_symmetric_psd(self):
        model = two_parameter_gaussian_model()
        theta = np.array([0.2, -0.1])
        mat = weighted_fisher(model, WeightFunction.exponential(0.4), theta, CFG)
        np.testing.assert_allclose(mat, mat.T, rtol=0, atol=0)
        assert np.linalg.eigvalsh(mat).min() >= -1e-10

    def test_nfold_matrix_combination(self):
        model = two_parameter_gaussian_model()
        theta = np.array([0.2, -0.1])
        wf = WeightFunction.exponential(0.3)
        n = 4
        from winfer.estimation import weighted_fisher_aux
        aux = weighted_fisher_aux(model, wf, theta, CFG)
        info = weighted_fisher(model, wf, theta, CFG)
        want = n * aux.E ** (n - 1) * info \
            + n * (n - 1) * aux.E ** (n - 2) * np.outer(aux.V, aux.V)
        got = nfold_weighted_fisher(model, wf, theta, n, CFG)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert np.linalg.eigvalsh(got).min() >= -1e-10

    def test_bounds_guarded_to_scalar_models(self):
        model = two_parameter_gaussian_model()
        with pytest.raises(IllegalParameterError):
            cramer_rao(model, ONE, np.array([0.0, 0.0]), 3,
                       scale_abs_mean_estimator(), ("A",), CFG, trials=10)[0]


class TestNfoldFisher:
    def test_reduces_at_n_one(self):
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(0.4)
        assert nfold_weighted_fisher(m, wf, 0.3, 1, CFG) == pytest.approx(
            weighted_fisher(m, wf, 0.3, CFG), rel=1e-9)

    def test_unit_weight_is_linear_in_n(self):
        m = gaussian_shift_model(sigma=1.2)
        assert nfold_weighted_fisher(m, ONE, 0.1, 7, CFG) == pytest.approx(
            7.0 / 1.2 ** 2, rel=1e-8)

    def test_assembled_closed_form(self):
        th, g, n = 0.3, 0.5, 3
        m = gaussian_shift_model()
        e = b1_mass(th, g, 1.0)
        i1 = (1 + g * g) * e
        v = g * e
        want = n * e ** (n - 1) * i1 + n * (n - 1) * e ** (n - 2) * v * v
        assert nfold_weighted_fisher(m, WeightFunction.exponential(g), th, n, CFG) \
            == pytest.approx(want, rel=1e-7)

    def test_against_monte_carlo_definition(self):
        # I_n = E[ phi^{(n)} ( sum_i score(X_i) )^2 ] with 10^6 draws, 3 sigma
        th, g, n, trials = 0.2, 0.4, 3, 1_000_000
        m = gaussian_shift_model()
        rng = np.random.default_rng(99)
        xs = rng.normal(th, 1.0, size=(trials, n))
        score = xs - th  # (p'/p)(x) for the unit-variance shift family
        v = np.exp(g * xs.sum(axis=1)) * score.sum(axis=1) ** 2
        mc, se = float(v.mean()), float(v.std(ddof=1) / math.sqrt(trials))
        closed = nfold_weighted_fisher(m, WeightFunction.exponential(g), th, n, CFG)
        assert abs(closed - mc) <= 3 * se


class TestRegularity:
    def test_catalog_models_pass(self):
        check_regularity(gaussian_shift_model(), WeightFunction.exponential(0.4),
                         0.3, CFG)
        check_regularity(gaussian_scale_model(), WeightFunction.exponential(0.3),
                         1.1, CFG)

    def test_broken_gradient_aborts(self):
        base = gaussian_shift_model()
        broken = ParametricModel(
            name="broken", d=1,
            grad_density=lambda x, th, p: 1.1 * base.grad_density(x, th, p),
            make_distribution=base.make_distribution)
        with pytest.raises(RegularityError):
            check_regularity(broken, WeightFunction.exponential(0.4), 0.3, CFG)

    def test_broken_gradient_aborts_the_bounds_before_any_draw(self, monkeypatch):
        # the bounds read grad E in closed form: the quadrature of int phi grad p
        # at their middle node, 1.1x the true one, misses it
        import dataclasses
        base = gaussian_shift_model()
        broken = dataclasses.replace(
            base, grad_density=lambda x, th, p: 1.1 * base.grad_density(x, th, p))

        def raising(*args, **kwargs):
            raise AssertionError("draw started")
        monkeypatch.setattr(np.random, "default_rng", raising)
        wf = WeightFunction.exponential(0.4)
        est = mean_estimator(broken, wf)
        prior = PriorSpec(kind="gaussian", mean=0.3, var=1.0)
        for call in (lambda: cramer_rao(broken, wf, 0.3, 4, est, ("A", "B"), CFG),
                     lambda: van_trees(broken, wf, 4, est, prior, ("A", "B", "C"), CFG)):
            with pytest.raises(RegularityError, match="grad E vs int phi grad p"):
                call()


class TestKlExpansion:
    def test_gaussian_quotients(self):
        th, g = 0.3, 0.5
        m = gaussian_shift_model()
        rep = kl_expansion_check(m, WeightFunction.exponential(g), th,
                                 (1e-2, 5e-3, 1e-3), CFG)
        e = b1_mass(th, g, 1.0)
        assert rep.first_limit == pytest.approx(-g * e, rel=1e-6)
        assert abs(rep.first_quotients[-1] - rep.first_limit) <= 1e-3
        assert abs(rep.second_quotients[-1] - rep.second_limit) <= 1e-3
        assert rep.first_order >= 0.9
        assert rep.second_order >= 0.9

    def test_unit_weight_classical_expansion(self):
        m = gaussian_shift_model()
        rep = kl_expansion_check(m, ONE, 0.1, (1e-2, 1e-3), CFG)
        assert rep.first_limit == pytest.approx(0.0, abs=1e-8)
        assert rep.second_limit == pytest.approx(0.5, rel=1e-8)

    def test_poisson_first_order_convergence(self):
        m = poisson_log_mean_model()
        rep = kl_expansion_check(m, WeightFunction.exponential(0.3), 0.4,
                                 (4e-2, 2e-2, 1e-2, 5e-3), CFG)
        assert rep.first_order >= 0.9
        assert rep.second_order >= 0.9


class TestCramerRao:
    def test_b1_equality_case(self):
        th, g, n = 0.0, 0.5, 5
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(g)
        r = cramer_rao(m, wf, th, n, mean_estimator(m, wf), ("A",), CFG,
                       trials=400_000, seed=42)[0]
        closed = (1.0 / n) * b1_mass(th, g, 1.0, n) * (1 + n * g * g)
        assert r.rhs == pytest.approx(closed, rel=1e-8)
        assert abs(r.lhs - closed) <= 3 * r.lhs_stderr
        assert r.holds_3sigma

    def test_zero_bias_estimator_sits_above_bound(self):
        th, g, n = 0.0, 0.5, 5
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(g)
        r = cramer_rao(m, wf, th, n, shifted_mean_estimator(m, wf), ("A",), CFG,
                       trials=400_000, seed=43)[0]
        expected_lhs = (1.0 / n) * b1_mass(th, g, 1.0, n)
        assert r.rhs == pytest.approx(expected_lhs / (1 + n * g * g), rel=1e-8)
        assert abs(r.lhs - expected_lhs) <= 3 * r.lhs_stderr
        assert r.lhs - 3 * r.lhs_stderr > r.rhs

    def test_unweighted_classical_equality(self):
        m = gaussian_shift_model(sigma=1.0)
        r = cramer_rao(m, ONE, 0.3, 4, mean_estimator(m, ONE), ("A",), CFG,
                       trials=200_000, seed=44)[0]
        assert r.rhs == pytest.approx(0.25, rel=1e-8)
        assert abs(r.lhs - 0.25) <= 3 * r.lhs_stderr

    def test_version_b_closed_rhs(self):
        th, g, n = 0.0, 0.5, 5
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(g)
        r = cramer_rao(m, wf, th, n, mean_estimator(m, wf), ("B",), CFG,
                       trials=200_000, seed=45)[0]
        want = (1.0 / n) * math.exp(n * (g * th + g * g / 4.0)) \
            * (1 + n * g * g / 4.0) ** 2
        assert r.rhs == pytest.approx(want, rel=1e-8)
        assert r.holds_3sigma

    def test_lhs_dominates_both_bounds(self):
        th, n = 0.1, 4
        m = gaussian_shift_model()
        for g in (0.1, 0.5, 1.0):
            wf = WeightFunction.exponential(g)
            est = mean_estimator(m, wf)
            ra = cramer_rao(m, wf, th, n, est, ("A",), CFG, trials=150_000, seed=46)[0]
            rb = cramer_rao(m, wf, th, n, est, ("B",), CFG, trials=150_000, seed=46)[0]
            slack = 3 * max(ra.lhs_stderr, rb.lhs_stderr)
            assert ra.lhs >= max(ra.rhs, rb.rhs) - slack

    def test_bare_estimator_reads_the_closed_form_bias(self):
        # an EstimatorSpec carries no bias data: the mean's b' = n g^2 s2 E^n
        # is read in closed form
        th, g, n = 0.0, 0.3, 3
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(g)
        bare = EstimatorSpec(name="mean")
        r = cramer_rao(m, wf, th, n, bare, ("A",), CFG, trials=300_000, seed=47)[0]
        closed = (1.0 / n) * b1_mass(th, g, 1.0, n) * (1 + n * g * g)
        assert r.details["bias_prime"] == pytest.approx(n * g * g * b1_mass(th, g, 1.0, n),
                                                        rel=1e-15)
        assert abs(r.lhs - closed) <= 3 * r.lhs_stderr
        assert r.holds_3sigma

    def test_scale_family_bound_via_closed_form_bias(self):
        # the rhs is deterministic: it holds against lhs_exact, and the Monte
        # Carlo lhs holds against it at 3 of its own stderrs
        m = gaussian_scale_model()
        th, g, n = 1.0, 0.4, 10
        wf = WeightFunction.exponential(g / th)
        r = cramer_rao(m, wf, th, n, scale_abs_mean_estimator(), ("A",), CFG,
                       trials=200_000, seed=48)[0]
        assert r.rhs <= r.lhs_exact
        assert r.holds_3sigma


class TestSharedDraw:
    """``cramer_rao``: versions A and B at one theta bound one lhs, read on one
    draw, with every integral from one call at theta."""

    @pytest.mark.parametrize("model,wf,est", [
        (gaussian_shift_model(1.3), WeightFunction.exponential(0.5), EstimatorSpec(name="mean")),
        (gaussian_shift_model(), WeightFunction.exponential(0.5),
         shifted_mean_estimator(gaussian_shift_model(), WeightFunction.exponential(0.5))),
        (gaussian_scale_model(), WeightFunction.exponential(0.4), scale_abs_mean_estimator()),
        (gaussian_scale_model(), WeightFunction.constant(2.0), EstimatorSpec(name="mean")),
    ], ids=["shift-mean", "shift-shifted-mean", "scale-abs-mean", "scale-constant-weight"])
    def test_rows_share_one_draw_and_equal_the_lone_calls(self, model, wf, est, monkeypatch):
        shapes = recorded_draws(monkeypatch)
        a, b = cramer_rao(model, wf, 1.1, 4, est, ("A", "B"), CFG, trials=30_000, seed=21)
        assert len(shapes) == 1  # one draw for both rows
        assert (a.version, b.version) == ("A", "B")
        assert (a.lhs, a.lhs_stderr, a.lhs_exact) == (b.lhs, b.lhs_stderr, b.lhs_exact)
        assert cramer_rao(model, wf, 1.1, 4, est, ("A",), CFG, trials=30_000, seed=21)[0] == a
        assert cramer_rao(model, wf, 1.1, 4, est, ("B",), CFG, trials=30_000, seed=21)[0] == b

    def test_version_validation(self):
        m = gaussian_shift_model()
        for versions in ((), ("C",), ("A", "D")):
            with pytest.raises(IllegalParameterError):
                cramer_rao(m, ONE, 0.0, 3, mean_estimator(m, ONE), versions, CFG, trials=10)


def shift_bias_terms(g, s2, offset, theta, n):
    """(b, b', c, c') of the Gaussian shift family with the weight e^{g x} for the
    estimator mean + offset (offset 0 or -s2 g), as written out by hand."""
    mass = math.exp(n * (theta * g + s2 * g * g / 2.0))
    smass = math.exp(n * (theta * g / 2.0 + s2 * g * g / 8.0))
    sign = 1.0 if offset == 0.0 else -1.0
    return ((g * s2 * mass, n * g * g * s2 * mass) if offset == 0.0 else (0.0, 0.0)) + (
        sign * 0.5 * s2 * g * smass, sign * 0.25 * n * s2 * g * g * smass)


class TestClosedFormBias:
    """``_bias``: the weighted biases b (plain weight) and c (square-root
    weight) and their derivatives, in closed form."""

    @pytest.mark.parametrize("theta", [0.0, 0.3, -0.8])
    def test_shift_family_matches_the_written_out_formulas(self, theta):
        from winfer.estimation import _bias
        g, s2, n = 0.5, 1.3 * 1.3, 5
        m = gaussian_shift_model(1.3)
        wf = WeightFunction.exponential(g)
        for est in (mean_estimator(m, wf), shifted_mean_estimator(m, wf)):
            want = shift_bias_terms(g, s2, est.offset, theta, n)
            got = _bias(m, wf, est, n, theta)[1:] + _bias(m, wf, est, n, theta, root=True)[1:]
            for x, y in zip(got, want):
                assert abs(x - y) <= 2 * math.ulp(y), (est.name, got, want)
            assert _bias(m, wf, est, n, theta)[0] == pytest.approx(
                math.exp(n * (theta * g + s2 * g * g / 2.0)), rel=1e-15)

    @pytest.mark.parametrize("family,weight", [
        ("shift", "exponential"), ("shift", "constant"), ("shift", "negative-rate"),
        ("scale", "exponential"), ("scale", "constant"), ("scale", "negative-rate")])
    def test_derivatives_match_a_central_difference(self, family, weight):
        from winfer.estimation import _bias
        wf = {"exponential": WeightFunction.exponential(0.4),
              "constant": WeightFunction.constant(2.0),
              "negative-rate": WeightFunction.exponential(-0.7)}[weight]
        if family == "shift":
            m = gaussian_shift_model(1.3)
            ests = [mean_estimator(m, wf), EstimatorSpec("twice-mean", coef=2.0)] + (
                [shifted_mean_estimator(m, wf)] if weight != "constant" else [])
        else:
            m = gaussian_scale_model()
            ests = [mean_estimator(m, wf), scale_abs_mean_estimator(),
                    EstimatorSpec("mean-minus", offset=-0.3)]
        h = 1e-5
        for est in ests:
            for n, theta, root in ((1, 0.7, False), (5, 1.3, False), (1, 0.7, True),
                                   (5, 1.3, True)):
                bp = _bias(m, wf, est, n, theta, root)[2]
                fd = (_bias(m, wf, est, n, theta + h, root)[1]
                      - _bias(m, wf, est, n, theta - h, root)[1]) / (2 * h)
                assert abs(bp - fd) <= 1e-8 * max(1.0, abs(bp)), (est.name, n, root, bp, fd)

    @pytest.mark.parametrize("weight", ["exponential", "constant"])
    def test_scale_weighted_mean_matches_monte_carlo(self, weight):
        # W = E^n theta + b (plain weight) and Z = s^n theta + c (square-root
        # weight) against the block oracle's Monte Carlo mean of phi^{(n)} theta*
        from winfer.estimation import _bias
        m, n, thetas = gaussian_scale_model(), 4, (0.7, 1.3)
        wf, root_wf = (WeightFunction.exponential(0.4), WeightFunction.exponential(0.2)) \
            if weight == "exponential" else \
            (WeightFunction.constant(2.0), WeightFunction.constant(math.sqrt(2.0)))
        offset = EstimatorSpec("abs-mean-plus", statistic="A", coef=math.sqrt(math.pi / 2.0),
                               offset=0.25)
        for est, fn in ((mean_estimator(m, wf), lambda xs: xs.mean(axis=1)),
                        (scale_abs_mean_estimator(), abs_mean),
                        (offset, lambda xs: abs_mean(xs) + 0.25)):
            for root, w in ((False, wf), (True, root_wf)):
                mc = oracle_mc(m, w, est, fn, thetas, n, (100_000,), np.random.default_rng(5),
                               deviation=False)
                for th, (mean, se, _) in zip(thetas, mc):
                    mass, b, _ = _bias(m, wf, est, n, th, root)
                    assert abs(mass * th + b - mean) <= 3 * se, (est.name, root, th)


class TestVanTrees:
    def test_version_c_classical_value(self):
        m = gaussian_shift_model()
        prior = PriorSpec(kind="gaussian", mean=0.0, var=0.5)
        (vt,) = van_trees(m, ONE, 10, mean_estimator(m, ONE), prior, ("C",), CFG,
                           trials=40_000, seed=7)
        assert vt.rhs == pytest.approx(1.0 / (10 + 1.0 / 0.5), abs=1e-6)
        assert vt.holds_3sigma

    def test_version_a_classical_average(self):
        m = gaussian_shift_model()
        prior = PriorSpec(kind="gaussian", mean=0.0, var=1.0)
        (vt,) = van_trees(m, ONE, 8, mean_estimator(m, ONE), prior, ("A",), CFG,
                           trials=40_000, seed=8)
        assert vt.rhs == pytest.approx(1.0 / 8, rel=1e-7)
        assert abs(vt.lhs - 1.0 / 8) <= 3 * vt.lhs_stderr

    def test_weighted_version_c_holds(self):
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(0.25)
        prior = PriorSpec(kind="gaussian", mean=0.0, var=1.0)
        (vt,) = van_trees(m, wf, 10, mean_estimator(m, wf), prior, ("C",), CFG,
                           trials=60_000, seed=9)
        assert vt.holds_3sigma
        assert vt.rhs > 0

    def test_weighted_version_c_closed_form_lhs(self):
        # the mean attains equality pointwise, so lhs has a closed prior average
        m = gaussian_shift_model()
        g, n, tau2 = 0.25, 10, 1.0
        wf = WeightFunction.exponential(g)
        prior = PriorSpec(kind="gaussian", mean=0.0, var=tau2)
        (vt,) = van_trees(m, wf, n, mean_estimator(m, wf), prior, ("C",), CFG,
                           trials=120_000, seed=10)
        want = (1.0 / n) * (1 + n * g * g) * math.exp(n * g * g / 2.0) \
            * math.exp(n * n * g * g * tau2 / 2.0)
        assert abs(vt.lhs - want) <= 4 * vt.lhs_stderr

    def test_bump_prior_version_a(self):
        m = gaussian_shift_model()
        prior = PriorSpec(kind="bump", center=0.0, width=1.0)
        (vt,) = van_trees(m, ONE, 6, mean_estimator(m, ONE), prior, ("A",), CFG,
                           trials=40_000, seed=11)
        assert vt.rhs == pytest.approx(1.0 / 6, rel=1e-6)
        assert abs(vt.lhs - 1.0 / 6) <= 3 * vt.lhs_stderr

    def test_bump_prior_pdf_normalized(self):
        prior = PriorSpec(kind="bump", center=0.3, width=0.8)
        xs, ws = prior.quadrature(64)
        assert ws.sum() == pytest.approx(1.0, abs=1e-12)
        grid = np.linspace(-0.6, 1.2, 20_001)
        mass = np.trapezoid(prior.pdf(grid), grid)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_out_of_domain_prior_nodes_are_refused_before_work(self, monkeypatch):
        # the scale family needs theta > 0; these priors put nodes at or below 0
        no_work(monkeypatch)
        m = gaussian_scale_model()
        wf = WeightFunction.exponential(0.4)
        for prior in (PriorSpec(kind="gaussian", mean=1.0, var=1.0),
                      PriorSpec(kind="bump", center=0.5, width=1.0)):
            for version in ("A", "B", "C"):
                with pytest.raises(ParameterOutOfDomainError):
                    van_trees(m, wf, 4, scale_abs_mean_estimator(), prior, (version,), CFG,
                              trials=20_000, seed=3)

    def test_scale_family_versions_hold(self):
        # b' and c' in closed form: versions A and B run on the scale family too
        m = gaussian_scale_model()
        wf = WeightFunction.exponential(0.4)
        prior = PriorSpec(kind="gaussian", mean=1.0, var=0.005)
        for est in (scale_abs_mean_estimator(), mean_estimator(m, wf)):
            rows = van_trees(m, wf, 4, est, prior, ("A", "B", "C"), CFG,
                             trials=100_000, seed=12)
            for vt in rows:
                assert vt.rhs <= vt.lhs_exact, (est.name, vt.version)
                assert vt.holds_3sigma, (est.name, vt.version)

    def test_rows_a_and_b_report_prior_averaged_details(self):
        # each term of a van Trees A or B row's details is the prior average of
        # the same term on the row at theta, node by node
        m = gaussian_scale_model()
        wf = WeightFunction.exponential(0.4)
        est = scale_abs_mean_estimator()
        prior = PriorSpec(kind="gaussian", mean=1.0, var=0.005)
        nodes, weights = prior.quadrature()
        for vt in van_trees(m, wf, 4, est, prior, ("A", "B"), CFG, trials=2_000):
            per_node = [cramer_rao(m, wf, float(th), 4, est, (vt.version,), CFG,
                                   trials=2_000)[0].details for th in nodes]
            assert vt.details.keys() == per_node[0].keys()
            for key, value in vt.details.items():
                want = sum(w * d[key] for w, d in zip(weights, per_node))
                assert value == pytest.approx(want, rel=1e-13), (vt.version, key)

    def test_unweighted_mean_has_zero_bias_terms(self):
        from winfer.estimation import _bias
        m = gaussian_shift_model(sigma=1.5)
        wf = WeightFunction.constant(2.0)
        for root in (False, True):
            _, b, bp = _bias(m, wf, mean_estimator(m, wf), 5, 0.7, root)
            assert b == bp == 0.0

    def test_version_validation(self):
        m = gaussian_shift_model()
        with pytest.raises(IllegalParameterError):
            van_trees(m, ONE, 3, mean_estimator(m, ONE),
                      PriorSpec(kind="gaussian"), ("D",), CFG, trials=10)


class TestClosedFormNodes:
    """``_closed_at``: E, V, I_phi, s and I1 in closed form, the integrals the
    van Trees prior nodes read."""

    @pytest.mark.parametrize("model", [gaussian_shift_model(1.3), gaussian_scale_model()],
                             ids=["shift", "scale"])
    @pytest.mark.parametrize("wf", [WeightFunction.exponential(0.5),
                                    WeightFunction.exponential(-0.3),
                                    WeightFunction.constant(2.0)],
                             ids=["exp(0.5x)", "exp(-0.3x)", "constant-2"])
    def test_matches_quadrature(self, model, wf):
        from winfer.estimation import _at_theta, _closed_at
        thetas = np.array([0.2, 0.5, 1.0, 1.7, 3.0])
        closed = _closed_at(model, wf, mean_estimator(model, wf), thetas)
        for k, th in enumerate(thetas):
            quad = _at_theta(model, wf, float(th), CFG, ["E", "V", "I", "s", "I1"])
            for kind in ("E", "V", "I", "s", "I1"):
                # V is 0 under a constant weight: E sets its scale
                scale = abs(quad["E" if kind == "V" else kind])
                assert abs(closed[kind][k] - float(np.ravel(quad[kind])[0])) \
                    <= 1e-13 * scale, (kind, th)

    @pytest.mark.parametrize("model,prior", [
        (gaussian_shift_model(), PriorSpec(kind="gaussian", mean=0.2, var=1.0)),
        (gaussian_scale_model(), PriorSpec(kind="gaussian", mean=1.0, var=0.005))],
        ids=["shift", "scale"])
    def test_a_wrong_closed_form_is_refused_before_any_draw(self, model, prior, monkeypatch):
        import winfer.estimation as estimation
        real = estimation._closed_at

        def mutated(*args):
            at = real(*args)
            return {**at, "I": at["I"] * (1.0 + 1e-6)}
        monkeypatch.setattr(estimation, "_closed_at", mutated)

        def raising(*args, **kwargs):
            raise AssertionError("draw started")
        monkeypatch.setattr(np.random, "default_rng", raising)
        wf = WeightFunction.exponential(0.4)
        with pytest.raises(RegularityError, match="closed-form I misses quadrature"):
            van_trees(model, wf, 4, mean_estimator(model, wf), prior, ("A", "C"), CFG,
                      trials=20_000, seed=3)


def tilted_deviation(g, n, theta, s2, shifted):
    """E_theta[e^{g S} (theta* - theta)^2] for the Gaussian shift with weight
    e^{g x}: under the tilt, mean(X) - theta ~ N(g s2, s2 / n)."""
    mass = np.exp(n * g * theta + n * g * g * s2 / 2.0)
    return mass * (s2 / n if shifted else g * g * s2 * s2 + s2 / n)


class TestSumStatistic:
    @staticmethod
    def estimators():
        """(estimator, its written-out block function) pairs that read S."""
        shift, scale = gaussian_shift_model(1.3), gaussian_scale_model()
        wf = WeightFunction.exponential(0.4)
        mean = lambda xs: xs.mean(axis=1)
        return [(mean_estimator(shift, wf), mean), (mean_estimator(shift, ONE), mean),
                (mean_estimator(scale, wf), mean),
                (shifted_mean_estimator(shift, wf), lambda xs: xs.mean(axis=1) - 1.3 * 1.3 * 0.4)]

    def test_sum_path_equals_fn_bit_for_bit(self):
        rng = np.random.default_rng(3)
        for est, fn in self.estimators():
            assert (est.statistic, est.coef) == ("S", 1.0)
            for shape in ((1000, 1), (1000, 5), (777, 13)):
                xs = rng.normal(0.3, 1.7, size=shape)
                assert np.array_equal(xs.sum(axis=1) / shape[1] + est.offset, fn(xs))

    def test_monte_carlo_values_equal_the_generic_path(self, monkeypatch):
        # every model, weight and estimator the path takes, over several blocks
        # (3 for S, 12 for A, a short last one), against the tilted block
        # oracle on the same draws: equal to rounding, which the cancelling
        # (theta* - theta)^2 amplifies row by row; and, at tilts |g| <= 0.5,
        # against the untilted block oracle on its own draws within 3 combined
        # stderrs, the check of the tilt that does not share it
        import winfer.estimation as estimation
        from winfer.estimation import _mc_sums
        monkeypatch.setattr(estimation, "_MC_BLOCK", 15_000)
        shift, scale = gaussian_shift_model(1.3), gaussian_scale_model()
        cases = [(shift, est, fn) for est, fn in self.estimators()[::3]] + [
            (scale, mean_estimator(scale, ONE), lambda xs: xs.mean(axis=1)),
            (scale, scale_abs_mean_estimator(), abs_mean)]
        thetas, n, trials = (0.3, 0.9, 1.4), 5, 35_000
        for wf in (WeightFunction.exponential(0.3), ONE, WeightFunction.constant(2.0)):
            for model, est, fn in cases:
                got = mean_stderr(_mc_sums(model, wf, thetas, n, est, trials, 4), trials)
                want = tilted_oracle(model, wf, est, fn, thetas, n, trials, 4)
                # a stderr of ~0 reads the roundoff of sum v^2 / T - mean^2,
                # sqrt(eps) |mean| / sqrt(T)
                np.testing.assert_allclose(
                    got, want, rtol=1e-9,
                    atol=1e-7 * np.abs(want[:, 0]).max() / math.sqrt(trials))
                plain = np.array(oracle_mc(model, wf, est, fn, thetas, n, (trials,),
                                           np.random.default_rng(4)))[:, :2]
                assert np.all(np.abs(got[:, 0] - plain[:, 0])
                              <= 3 * np.hypot(got[:, 1], plain[:, 1])), (est.name, got, plain)

    def test_statistic_path_never_builds_samples(self, monkeypatch):
        # an estimator of S draws one t-long sum z per chunk, on either family;
        # one of A one (t, n) block per chunk, which all 32 prior nodes read
        shapes = recorded_draws(monkeypatch)
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(0.5)
        prior = PriorSpec(kind="gaussian", mean=0.0, var=1.0)
        for est in (mean_estimator(m, wf), shifted_mean_estimator(m, wf)):
            van_trees(m, wf, 5, est, prior, ("A", "C"), CFG, trials=5_000, seed=1)
        assert shapes == [5_000, 5_000]
        shapes.clear()
        scale, wf = gaussian_scale_model(), WeightFunction.exponential(0.4)
        for est in (mean_estimator(scale, wf), scale_abs_mean_estimator()):
            van_trees(scale, wf, 4, est, PriorSpec(kind="gaussian", mean=1.0, var=0.005),
                      ("C",), CFG, trials=5_000, seed=1)
        assert shapes == [5_000, (5_000, 4)]

    def test_versions_share_one_lhs(self):
        m = gaussian_shift_model(0.8)
        wf = WeightFunction.exponential(0.3)
        prior = PriorSpec(kind="gaussian", mean=0.2, var=0.5)
        est = mean_estimator(m, wf)
        joint = van_trees(m, wf, 4, est, prior, ("A", "B", "C"), CFG, trials=20_000, seed=5)
        assert [r.version for r in joint] == ["A", "B", "C"]
        for r in joint:
            (alone,) = van_trees(m, wf, 4, est, prior, (r.version,), CFG,
                                 trials=20_000, seed=5)
            assert (alone.lhs, alone.lhs_stderr) == (joint[0].lhs, joint[0].lhs_stderr)
            assert alone.rhs == r.rhs
            assert alone.details == r.details

    @pytest.mark.parametrize("g,n,theta,sigma,seed", [
        (0.5, 5, 0.0, 1.0, 7), (0.25, 3, 0.4, 1.3, 8), (-0.4, 8, -0.3, 0.7, 9),
        (0.8, 2, 1.1, 1.0, 10)])
    def test_lhs_matches_the_exact_tilted_deviation(self, g, n, theta, sigma, seed):
        m = gaussian_shift_model(sigma)
        s2 = sigma * sigma
        wf = WeightFunction.exponential(g)
        prior = PriorSpec(kind="gaussian", mean=theta, var=1.0)
        nodes, weights = prior.quadrature(32)
        for shifted, est in ((False, mean_estimator(m, wf)),
                             (True, shifted_mean_estimator(m, wf))):
            ra = cramer_rao(m, wf, theta, n, est, ("A",), CFG, trials=200_000, seed=seed)[0]
            exact = tilted_deviation(g, n, theta, s2, shifted)
            assert abs(ra.lhs - exact) <= 3 * ra.lhs_stderr
            (vt,) = van_trees(m, wf, n, est, prior, ("C",), CFG, trials=100_000, seed=seed)
            exact = float(np.sum(weights * tilted_deviation(g, n, nodes, s2, shifted)))
            assert abs(vt.lhs - exact) <= 3 * vt.lhs_stderr


class TestSumPath:
    """The Gaussian shift family with e^{gamma x} and an estimator of the sum
    draws the row sums S ~ N(n theta, n sigma^2), never a (trials, n) block."""

    @staticmethod
    def no_blocks():
        import dataclasses

        from winfer.core import Distribution

        def raising(*args, **kwargs):
            raise AssertionError("(trials, n) sample block built")
        return dataclasses.replace(
            gaussian_shift_model(1.2), make_distribution=lambda th: dataclasses.replace(
                Distribution.gaussian(th, 1.44), sampler=raising))

    def test_rows_a_b_and_van_trees_never_build_blocks(self, monkeypatch):
        m = self.no_blocks()
        shapes = recorded_draws(monkeypatch)
        wf = WeightFunction.exponential(0.5)
        prior = PriorSpec(kind="gaussian", mean=0.0, var=1.0)
        for est in (mean_estimator(m, wf), shifted_mean_estimator(m, wf)):
            for version in ("A", "B"):
                assert cramer_rao(m, wf, 0.2, 5, est, (version,), CFG, trials=300_000,
                                  seed=1)[0].holds_3sigma
            for vt in van_trees(m, wf, 5, est, prior, ("A", "C"), CFG,
                                trials=20_000, seed=1):
                assert vt.holds_3sigma
        assert shapes and all(np.ndim(size) == 0 for size in shapes)  # t-long draws

    def test_three_sigma_rate_over_consecutive_seeds(self):
        # seeds 0..39, none left out: each lhs sits within 3 sigma of its
        # closed form on at least 37 of them, and the z-scores centre on 0
        g, n, th = 0.5, 5, 0.0
        m = gaussian_shift_model()
        wf = WeightFunction.exponential(g)
        prior = PriorSpec(kind="gaussian", mean=th, var=1.0)
        nodes, weights = prior.quadrature(32)
        mean, shifted = mean_estimator(m, wf), shifted_mean_estimator(m, wf)
        exact_vt = float(np.sum(weights * tilted_deviation(g, n, nodes, 1.0, False)))
        z = {"A mean": [], "A shifted-mean": [], "van Trees": []}
        for seed in range(40):
            for key, est, shifted_ in (("A mean", mean, False),
                                       ("A shifted-mean", shifted, True)):
                r = cramer_rao(m, wf, th, n, est, ("A",), CFG, trials=50_000, seed=seed)[0]
                z[key].append((r.lhs - tilted_deviation(g, n, th, 1.0, shifted_))
                              / r.lhs_stderr)
            (vt,) = van_trees(m, wf, n, mean, prior, ("C",), CFG, trials=50_000, seed=seed)
            z["van Trees"].append((vt.lhs - exact_vt) / vt.lhs_stderr)
        for key, zs in z.items():
            zs = np.asarray(zs)
            assert np.sum(np.abs(zs) <= 3) >= 37, (key, zs)
            assert abs(zs.mean()) <= 0.5, (key, zs.mean())


def per_theta_values(g, n, s2, offset, thetas, d):
    """E^n (theta* - theta)^2 at each theta over the draws D = S - n (theta + g s2)
    of the row sum S under the tilt, S ~ N(n (theta + g s2), n s2), one array per
    theta, with E^n = e^{n (g theta + g^2 s2 / 2)} written out."""
    for th in thetas:
        estimate = (n * (th + g * s2) + d) / n + offset
        yield np.exp(n * (g * th + g * g * s2 / 2.0)) * (estimate - th) ** 2


class TestFactoredSumPath:
    """On the sum path every theta's sums are closed forms over one set of
    per-draw sums, drawn under the tilt in seed-addressed blocks; they match a
    loop over one array per theta, on the draws rebuilt from the blocks' spawn
    keys, to rounding."""

    @staticmethod
    def setting(g=0.4, sigma=1.3):
        m = gaussian_shift_model(sigma)
        wf = WeightFunction.exponential(g)
        return m, wf, (mean_estimator(m, wf), shifted_mean_estimator(m, wf))

    def test_mc_sums_matches_a_per_theta_loop(self):
        from winfer.estimation import _MC_BLOCK, _mc_sums
        g, n, sigma = 0.4, 4, 1.3
        m, wf, ests = self.setting(g, sigma)
        thetas, trials = (-0.3, 0.0, 0.5, 1.1), _MC_BLOCK + 30_000
        for est in ests:
            got = mean_stderr(_mc_sums(m, wf, thetas, n, est, trials, 9), trials)
            d = math.sqrt(n * sigma * sigma) * np.concatenate(list(block_draws(est, n, trials, 9)))
            root = math.sqrt(d.size)
            for (mean, se), v in zip(got, per_theta_values(g, n, sigma * sigma, est.offset,
                                                           thetas, d)):
                np.testing.assert_allclose((mean, se), (v.mean(), v.std() / root),
                                           rtol=1e-12, atol=0)

    def test_block_sums_in_place_matches_the_expression_bit_for_bit(self):
        from winfer.estimation import _block_sums
        g, n, sigma, rows = 0.4, 5, 1.3, 20_000
        m, wf, ests = self.setting(g, sigma)
        abs_mean_est = scale_abs_mean_estimator()
        for est, keys in [(est, [(g * sigma, sigma, est.offset)]) for est in ests] + [
                (abs_mean_est, [(0.3, 0.8, -0.8), (0.5, 1.3, -1.3), (0.3, 1.1, -1.1)]),
                (abs_mean_est, [(0.4, 1.1, -1.1)])]:
            got = _block_sums(est, n, rows, keys, 21, 3)
            # the allocating expression the in-place arithmetic replaced, on
            # block 3's draws
            w = np.random.default_rng(np.random.SeedSequence(21, spawn_key=(3,))).standard_normal(
                rows if est.statistic == "S" else (rows, n))
            for row, (gs, s, b) in zip(got, keys):
                if est.statistic == "S":
                    f = (est.coef / math.sqrt(n) * s * w + (b + est.coef * gs * s)) ** 2
                else:
                    f = (est.coef / n * s * np.einsum("ij->i", np.abs(w + gs)) + b) ** 2
                assert row.tobytes() == np.array([float(f.sum()), float((f * f).sum())]).tobytes()

    def test_shift_nodes_make_one_pass_per_block(self, monkeypatch):
        # the 32 prior nodes of a coef-1 estimator share (g, s, B), so each block
        # evaluates one array; at coef 2, B = theta + offset tells them apart
        import winfer.estimation as estimation
        monkeypatch.setattr(estimation, "_MC_BLOCK", 4_999)
        sizes = []

        class Counting:
            """numpy, as ``estimation`` sees it, counting the products that open a
            pass (those with no ``out``)."""
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def multiply(x, y, **kwargs):
                if "out" not in kwargs:
                    sizes.append(np.size(y))
                return np.multiply(x, y, **kwargs)
        monkeypatch.setattr(estimation, "np", Counting())
        m, wf, ests = self.setting()
        prior = PriorSpec(kind="gaussian", mean=0.2, var=1.0)
        for est, passes in ((ests[0], 1), (ests[1], 1), (EstimatorSpec("twice-mean", coef=2.0), 32)):
            sizes.clear()
            van_trees(m, wf, 5, est, prior, ("A", "C"), CFG, trials=12_345, seed=1)
            assert sorted(k for k in sizes if k in (4_999, 2_347)) == \
                [2_347] * passes + [4_999] * (2 * passes), est.name

    def test_van_trees_matches_a_per_node_loop(self, monkeypatch):
        import winfer.estimation as estimation
        monkeypatch.setattr(estimation, "_MC_BLOCK", 25_000)
        g, n, sigma, seed, trials = 0.4, 5, 1.3, 11, 60_000
        m, wf, ests = self.setting(g, sigma)
        prior = PriorSpec(kind="gaussian", mean=0.2, var=1.0)
        nodes, weights = prior.quadrature(32)
        for est in ests:
            (vt,) = van_trees(m, wf, n, est, prior, ("C",), CFG, trials=trials, seed=seed)
            d = math.sqrt(n * sigma * sigma) * np.concatenate(
                list(block_draws(est, n, trials, seed)))
            lhs = se = 0.0
            for w, v in zip(weights, per_theta_values(g, n, sigma * sigma, est.offset,
                                                      nodes, d)):
                lhs += w * v.mean()
                se += w * v.std(ddof=1) / math.sqrt(trials)
            assert vt.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
            assert vt.lhs_stderr == pytest.approx(se, rel=1e-12, abs=0)

    @pytest.mark.parametrize("g,n,theta,sigma", [
        (0.5, 5, 0.0, 1.0), (0.25, 3, 0.4, 1.3), (-0.4, 8, -0.3, 0.7)])
    def test_lhs_exact_is_the_tilted_deviation(self, g, n, theta, sigma):
        m, wf, ests = self.setting(g, sigma)
        s2 = sigma * sigma
        prior = PriorSpec(kind="gaussian", mean=theta, var=1.0)
        nodes, weights = prior.quadrature(32)
        for shifted, est in zip((False, True), ests):
            for version in ("A", "B"):
                r = cramer_rao(m, wf, theta, n, est, (version,), CFG, trials=2_000, seed=0)[0]
                assert r.lhs_exact == pytest.approx(
                    tilted_deviation(g, n, theta, s2, shifted), rel=1e-13)
            for vt in van_trees(m, wf, n, est, prior, ("A", "C"), CFG, trials=2_000):
                assert vt.lhs_exact == pytest.approx(
                    float(np.sum(weights * tilted_deviation(g, n, nodes, s2, shifted))),
                    rel=1e-13)

    def test_lhs_within_three_sigma_of_lhs_exact_over_seeds(self):
        # seeds 0..19, none left out: each row's lhs sits within 3 of its
        # stderrs of lhs_exact on at least 18 of them
        g, n, th = 0.5, 5, 0.0
        m, wf, ests = self.setting(g, 1.0)
        prior = PriorSpec(kind="gaussian", mean=th, var=1.0)
        hits = {}
        for seed in range(20):
            for est in ests:
                rows = [cramer_rao(m, wf, th, n, est, ("A",), CFG, trials=50_000, seed=seed)[0],
                        cramer_rao(m, wf, th, n, est, ("B",), CFG, trials=50_000, seed=seed)[0],
                        van_trees(m, wf, n, est, prior, ("C",), CFG, trials=20_000,
                                  seed=seed)[0]]
                for key, r in zip(("A", "B", "van Trees"), rows):
                    ok = abs(r.lhs - r.lhs_exact) <= 3 * r.lhs_stderr
                    hits[key, est.name] = hits.get((key, est.name), 0) + ok
        assert all(count >= 18 for count in hits.values()), hits


class TestSeedAddressedBlocks:
    """The Monte Carlo draws blocks addressed by (seed, block index), maps them
    over a thread per core and sums them in block order."""

    @staticmethod
    def rows_at(workers, monkeypatch) -> list:
        """Every cramer_rao and van_trees row of both families, statistics S and
        A, with more blocks than workers and a short last block, run on a pool
        of ``workers`` threads."""
        import concurrent.futures

        import winfer.estimation as estimation
        monkeypatch.setattr(estimation, "_MC_BLOCK", 2_000)
        monkeypatch.setattr(estimation.os, "sched_getaffinity", lambda pid: set(range(workers)))
        pools, real = [], concurrent.futures.ThreadPoolExecutor

        def recording(max_workers):
            pools.append(max_workers)
            return real(max_workers)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
        shift, scale = gaussian_shift_model(1.3), gaussian_scale_model()
        wf = WeightFunction.exponential(0.4)
        rows = []
        for model, est, prior in (
                (shift, mean_estimator(shift, wf), PriorSpec(kind="gaussian", mean=0.2, var=1.0)),
                (shift, EstimatorSpec("twice-mean", coef=2.0),
                 PriorSpec(kind="gaussian", mean=0.2, var=1.0)),
                (scale, mean_estimator(scale, wf), PriorSpec(kind="gaussian", mean=1.0, var=0.005)),
                (scale, scale_abs_mean_estimator(),
                 PriorSpec(kind="gaussian", mean=1.0, var=0.005))):
            rows += cramer_rao(model, wf, 1.1, 4, est, ("A", "B"), CFG, trials=9_700, seed=5)
            rows += van_trees(model, wf, 4, est, prior, ("A", "B", "C"), CFG, trials=9_700,
                              seed=6)
        assert set(pools) == {workers}
        return rows

    def test_rows_do_not_depend_on_the_worker_count(self, monkeypatch):
        # S: 4 blocks of 2,000 and one of 1,700; A: 19 blocks of 500 rows and
        # one of 200; the threads switch as often as the interpreter allows
        import sys
        one = self.rows_at(1, monkeypatch)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (2, 3):
                assert self.rows_at(workers, monkeypatch) == one, workers
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("n", [5_000, 1_000, 300])
    def test_no_draw_exceeds_the_block_budget(self, n, monkeypatch):
        # a block holds max(1, budget // n) rows of A, so at n above the budget
        # one row of n normals; every draw holds at most max(budget, n) of them,
        # and the blocks hold exactly trials x n (trials for S)
        import winfer.estimation as estimation
        budget = 1_000
        monkeypatch.setattr(estimation, "_MC_BLOCK", budget)
        shapes = recorded_draws(monkeypatch)
        scale = gaussian_scale_model()
        wf = WeightFunction.exponential(0.4 / n)
        for est, per_row in ((scale_abs_mean_estimator(), n), (mean_estimator(scale, wf), 1)):
            shapes.clear()
            (r,) = cramer_rao(scale, wf, 1.0, n, est, ("A",), CFG, trials=7, seed=2)
            assert math.isfinite(r.lhs) and r.lhs_stderr > 0
            assert max(np.prod(shape) for shape in shapes) <= max(budget, n)
            assert sum(np.prod(shape) for shape in shapes) == 7 * per_row

    def test_lhs_within_three_sigma_of_lhs_exact_at_strong_tilts(self):
        # seeds 0..19, none left out, at gamma 0.5, 2 and 3 on the shift mean
        # (version A's equality case), the scale mean and scale-abs-mean at
        # n = 5: at least 97% of rows lie within 3 lhs_stderr of lhs_exact, and
        # the gamma-2 shift-mean row never reports version A violated
        shift, scale, n = gaussian_shift_model(), gaussian_scale_model(), 5
        hits, rows = 0, 0
        for gamma in (0.5, 2.0, 3.0):
            wf = WeightFunction.exponential(gamma)
            for model, est in ((shift, mean_estimator(shift, wf)),
                               (scale, mean_estimator(scale, wf)),
                               (scale, scale_abs_mean_estimator())):
                for seed in range(20):
                    (r,) = cramer_rao(model, wf, 1.0, n, est, ("A",), CFG, trials=20_000,
                                      seed=seed)
                    rows += 1
                    hits += abs(r.lhs - r.lhs_exact) <= 3 * r.lhs_stderr
                    if gamma == 2.0 and model is shift:
                        assert r.holds_3sigma, seed
        assert hits >= 0.97 * rows, (hits, rows)


def quad_lhs(gamma, theta, n, fn, c=1.0):
    """E_theta[c^n e^{gamma S} (fn(x) - theta)^2] on the Gaussian scale family by
    mpmath quadrature over z (x = theta z), for n = 1 or 2; the box [-12, 12]^n,
    split at the kink of |z|, leaves out less than 1e-25 of it."""
    import mpmath as mp
    mp.mp.dps = 20 if n == 1 else 15

    def f(*z):
        xs = [theta * zi for zi in z]
        dens = mp.exp(-sum(zi * zi for zi in z) / 2) / (2 * mp.pi) ** (len(z) / 2)
        return c ** n * mp.exp(gamma * sum(xs)) * (fn(xs) - theta) ** 2 * dens
    return float(mp.quad(f, *([[-12, 0, 12]] * n), method="gauss-legendre"))


class TestScaleLhsExact:
    """The scale family's closed-form lhs (``_exact_lhs``) against quadrature and
    against its Monte Carlo lhs."""

    @pytest.mark.parametrize("n,estimator,weight,theta", [
        (1, "scale-abs-mean", "exponential", 0.7), (1, "scale-abs-mean", "constant", 1.3),
        (1, "mean", "exponential", 1.3), (1, "mean", "constant", 0.7),
        (2, "scale-abs-mean", "exponential", 1.3), (2, "mean", "constant", 0.7)])
    def test_scale_lhs_exact_matches_quadrature(self, n, estimator, weight, theta):
        import mpmath as mp
        from winfer.estimation import _exact_lhs
        scale, g, c = gaussian_scale_model(), 0.4, 2.0
        wf = WeightFunction.exponential(g) if weight == "exponential" else \
            WeightFunction.constant(c)
        est, fn = (scale_abs_mean_estimator(),
                   lambda xs: mp.sqrt(mp.pi / 2) * sum(abs(x) for x in xs) / len(xs)) \
            if estimator == "scale-abs-mean" else \
            (mean_estimator(scale, wf), lambda xs: sum(xs) / len(xs))
        want = quad_lhs(g, theta, n, fn) if weight == "exponential" else \
            quad_lhs(0.0, theta, n, fn, c)
        assert _exact_lhs(scale, wf, est, n, (theta,), (1.0,)) == pytest.approx(want, rel=1e-13)

    def test_reported_on_the_scale_rows(self):
        scale = gaussian_scale_model()
        wf = WeightFunction.exponential(0.4)
        est = scale_abs_mean_estimator()
        from winfer.estimation import _exact_lhs
        r = cramer_rao(scale, wf, 1.2, 4, est, ("A",), CFG, trials=2_000)[0]
        assert r.lhs_exact == _exact_lhs(scale, wf, est, 4, (1.2,), (1.0,))
        prior = PriorSpec(kind="gaussian", mean=1.0, var=0.005)
        nodes, weights = prior.quadrature(32)
        (vt,) = van_trees(scale, wf, 4, est, prior, ("C",), CFG, trials=2_000)
        per_node = [_exact_lhs(scale, wf, est, 4, (th,), (1.0,)) for th in nodes]
        assert vt.lhs_exact == pytest.approx(float(np.dot(weights, per_node)), rel=1e-13)

    def test_lhs_within_three_sigma_of_lhs_exact_over_seeds(self):
        # seeds 0..19, none left out: the CLI's scale row (weight e^{gamma x /
        # theta}) and a van Trees lhs sit within 3 stderrs of lhs_exact on at
        # least 18 of them
        scale, th, n = gaussian_scale_model(), 1.3, 5
        wf = WeightFunction.exponential(0.5 / th)
        est = scale_abs_mean_estimator()
        prior = PriorSpec(kind="gaussian", mean=th, var=0.01)
        hits = {"A": 0, "van Trees": 0}
        for seed in range(20):
            rows = (cramer_rao(scale, wf, th, n, est, ("A",), CFG, trials=50_000, seed=seed)[0],
                    van_trees(scale, wf, n, est, prior, ("C",), CFG, trials=20_000,
                              seed=seed)[0])
            for key, r in zip(hits, rows):
                hits[key] += abs(r.lhs - r.lhs_exact) <= 3 * r.lhs_stderr
        assert all(count >= 18 for count in hits.values()), hits


class TestRefusals:
    """Every model, weight and estimator pair the Monte Carlo cannot draw is
    refused before any integral or draw."""

    @pytest.mark.parametrize("model,wf,est", [
        (poisson_log_mean_model(), WeightFunction.exponential(0.3), EstimatorSpec("mean")),
        (gaussian_shift_model(), WeightFunction.absolute(), EstimatorSpec("mean")),
        (gaussian_scale_model(), WeightFunction.quadratic(0.0, 1.0), scale_abs_mean_estimator()),
        (gaussian_shift_model(), WeightFunction.exponential(0.3), scale_abs_mean_estimator()),
    ], ids=["poisson", "absolute-weight", "quadratic-weight", "abs-statistic-on-shift"])
    def test_refused_before_any_sampling(self, model, wf, est, monkeypatch):
        no_work(monkeypatch)
        prior = PriorSpec(kind="gaussian", mean=1.0, var=0.1)
        for call in (lambda: cramer_rao(model, wf, 1.0, 3, est, ("A",), CFG, trials=1_000)[0],
                     lambda: cramer_rao(model, wf, 1.0, 3, est, ("B",), CFG, trials=1_000)[0],
                     lambda: van_trees(model, wf, 3, est, prior, ("C",), CFG, trials=1_000)):
            with pytest.raises(IllegalParameterError, match="no Monte Carlo path"):
                call()


class TestScaledSumOnShift:
    """An estimator 2 S / n on the shift family, which the one Monte Carlo kernel
    runs like any other: theta* - theta = 2 xbar - theta, and under the tilt e^{g S}
    xbar ~ N(theta + g sigma^2, sigma^2 / n)."""

    def test_lhs_within_three_sigma_of_lhs_exact_and_rhs_below(self):
        g, n, sigma = 0.4, 4, 1.3
        s2 = sigma * sigma
        m, wf = gaussian_shift_model(sigma), WeightFunction.exponential(g)
        est = EstimatorSpec("twice-mean", coef=2.0)
        prior = PriorSpec(kind="gaussian", mean=0.3, var=0.5)
        rows = [r for th in (-0.5, 0.2, 1.0)
                for r in cramer_rao(m, wf, th, n, est, ("A", "B"), CFG, trials=200_000, seed=3)]
        rows += van_trees(m, wf, n, est, prior, ("A", "B", "C"), CFG, trials=100_000, seed=4)
        exact = lambda th: np.exp(n * (th * g + s2 * g * g / 2.0)) \
            * ((th + 2 * g * s2) ** 2 + 4 * s2 / n)
        nodes, weights = prior.quadrature()
        for r in rows:
            want = exact(r.theta) if r.theta is not None else float(weights @ exact(nodes))
            assert r.lhs_exact == pytest.approx(want, rel=1e-12), r
            assert abs(r.lhs - r.lhs_exact) <= 3 * r.lhs_stderr, r
            assert r.rhs <= r.lhs_exact, r


class TestSampleSizes:
    @pytest.mark.parametrize("n,trials", [(0, 1000), (-1, 1000), (3, 1), (3, 0), (3, -5)])
    def test_refused_before_any_work(self, n, trials, monkeypatch):
        import dataclasses

        import winfer.estimation as estimation

        def no_work(*args, **kwargs):
            raise AssertionError("work started")
        monkeypatch.setattr(estimation, "check_regularity", no_work)
        m = dataclasses.replace(gaussian_shift_model(), make_distribution=no_work)
        wf = WeightFunction.exponential(0.5)
        est = mean_estimator(gaussian_shift_model(), wf)
        prior = PriorSpec(kind="gaussian", mean=0.0, var=1.0)
        for call in (lambda: cramer_rao(m, wf, 0.0, n, est, ("A",), CFG, trials=trials)[0],
                     lambda: cramer_rao(m, wf, 0.0, n, est, ("B",), CFG, trials=trials)[0],
                     lambda: van_trees(m, wf, n, est, prior, ("A", "C"), CFG,
                                       trials=trials)):
            with pytest.raises(IllegalParameterError, match="must be >="):
                call()
