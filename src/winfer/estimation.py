"""Weighted Fisher information, weighted Cramer-Rao bounds (versions A and B),
and weighted van Trees bounds (versions A, B, C).

A smooth parametric model is a map theta -> Distribution, built by the
``Distribution`` catalog constructors, plus the theta-gradient of its density;
n i.i.d. observations carry the product weight prod_i phi(x_i).  Monte Carlo
estimates of the weighted quadratic deviation report their standard error, and
every bound assertion in the test-suites is made at 3 standard errors.

Regularity is not assumed silently: ``check_regularity`` verifies the two
interchange identities (grad E = int phi grad p and int grad p = 0) and the
bound computations call it first, aborting with a diagnostic rather than
reporting an unsound bound.

Version-A bounds follow the single-entry derivation, which carries a
Kronecker delta between the parameter component and the differentiation
direction (for d = 1 the distinction is invisible).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    Distribution,
    IntegrationConfig,
    WeightFunction,
    _hermegauss,
    finite_difference_gradient,
    integrate,
)
from .divergence import HypothesisProblem, kl, weight_mass
from .errors import (
    IllegalParameterError,
    ParameterOutOfDomainError,
    RegularityError,
)

__all__ = [
    "ParametricModel",
    "EstimatorSpec",
    "PriorSpec",
    "gaussian_shift_model",
    "gaussian_scale_model",
    "poisson_log_mean_model",
    "mean_estimator",
    "shifted_mean_estimator",
    "scale_abs_mean_estimator",
    "weighted_fisher",
    "FisherAux",
    "weighted_fisher_aux",
    "nfold_weighted_fisher",
    "check_regularity",
    "KlExpansionReport",
    "kl_expansion_check",
    "CramerRaoResult",
    "cramer_rao_A",
    "cramer_rao_B",
    "VanTreesResult",
    "van_trees",
]

_MC_CHUNK = 250_000
_MC_PIECE = 62_500


def _is_scalar_exponential(wf: WeightFunction) -> bool:
    """phi(x) = e^{gamma x} with scalar gamma: log prod_i phi(x_i) = gamma * sum_i x_i."""
    return wf.kind == "exponential" and np.ndim(wf.gamma) == 0


def _check_sample_sizes(n: int, trials: int) -> None:
    if n < 1:
        raise IllegalParameterError("n must be >= 1")
    if trials < 2:
        raise IllegalParameterError("trials must be >= 2")


@dataclass(frozen=True)
class ParametricModel:
    """Family theta -> p_theta with analytic gradient access.

    ``make_distribution(theta)`` supplies the density, sampler, support and
    envelope.  ``grad_density(x, theta, p)`` is the theta-gradient of the
    density at x, given the density values p there (so an integrand
    evaluates p once); it is vectorized in x and has shape (N,) for d = 1.
    """

    name: str
    d: int
    grad_density: Callable                 # (x, theta, p(x)) -> gradient
    make_distribution: Callable            # theta -> Distribution
    theta_domain: Callable = lambda th: True

    def check(self, theta) -> float:
        if not self.theta_domain(theta):
            raise ParameterOutOfDomainError(f"{self.name}: theta outside the domain")
        return theta


def gaussian_shift_model(sigma: float = 1.0) -> ParametricModel:
    """N(theta, sigma^2) with known variance; the classical shift family."""
    if sigma <= 0:
        raise IllegalParameterError("sigma must be > 0")
    s2 = sigma * sigma

    def grad_density(x, th, p):
        x = np.asarray(x, dtype=float)
        return p * (x - th) / s2

    return ParametricModel(
        name="gaussian-shift", d=1, grad_density=grad_density,
        make_distribution=lambda th: Distribution.gaussian(th, s2))


def gaussian_scale_model() -> ParametricModel:
    """p_theta(x) = (1/theta) g(x/theta) with standard normal g (theta > 0)."""

    def grad_density(x, th, p):
        x = np.asarray(x, dtype=float)
        return p * (x * x / th ** 3 - 1.0 / th)

    return ParametricModel(
        name="gaussian-scale", d=1, grad_density=grad_density,
        make_distribution=lambda th: Distribution.gaussian(0.0, th * th),
        theta_domain=lambda th: th > 0)


def poisson_log_mean_model() -> ParametricModel:
    """Poisson(e^theta); d ln p / d theta = l - e^theta."""

    def grad_density(x, th, p):
        lam = math.exp(th)
        x = np.asarray(x, dtype=float)
        return p * (x - lam)

    return ParametricModel(
        name="poisson-log-mean", d=1, grad_density=grad_density,
        make_distribution=lambda th: Distribution.poisson(math.exp(th)))


# ---------------------------------------------------------------------------
# estimators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EstimatorSpec:
    """Estimator over n-tuples with optional analytic weighted-bias data.

    ``fn`` maps a (T, n) block of samples to the T estimates.  ``of_sum``,
    when given, computes the same estimates from the row sums
    S = sum_i x_i and n, bit for bit equal to ``fn``: the Monte Carlo then
    sums each sample row once, and on the Gaussian shift family with a scalar
    exponential weight, whose log product weight is gamma * S, it draws S
    alone (``_on_sum``).

    ``bias``/``bias_prime`` refer to the plain-weight decomposition
    W = E(theta)^n theta + b(theta); ``c``/``c_prime`` to the square-root
    weight decomposition Z = s(theta)^n theta + c(theta).  Each callable takes
    (theta, n).  When absent, the bounds fall back to Monte Carlo estimation
    of the bias derivative with propagated uncertainty.
    """

    name: str
    fn: Callable                            # (T, n) samples -> (T,) estimates
    bias: Optional[Callable] = None
    bias_prime: Optional[Callable] = None
    c: Optional[Callable] = None
    c_prime: Optional[Callable] = None
    of_sum: Optional[Callable] = None       # (S, n) row sums -> (T,) estimates


def _sample_mean(xs):
    return xs.mean(axis=1)


def _sum_over_n(s, n):
    return s / n  # == xs.mean(axis=1): numpy's mean is the sum divided by n


def mean_estimator(model: ParametricModel, wf: WeightFunction) -> EstimatorSpec:
    """Sample mean; analytic weighted bias under the Gaussian shift family
    with an exponential weight (the equality case of version A) or a constant
    one (unbiased: every bias term is 0)."""
    if model.name == "gaussian-shift" and wf.kind == "constant":
        zero = lambda th, n: 0.0
        return EstimatorSpec(name="mean", fn=_sample_mean, of_sum=_sum_over_n,
                             bias=zero, bias_prime=zero, c=zero, c_prime=zero)
    if model.name == "gaussian-shift" and _is_scalar_exponential(wf):
        g = float(wf.gamma)
        # sigma^2 backed out of the model's distribution at theta = 0
        s2 = model.make_distribution(0.0).params["sigma2"]

        def _mass(th, n):
            return math.exp(n * (th * g + s2 * g * g / 2.0))

        def _smass(th, n):
            return math.exp(n * (th * g / 2.0 + s2 * g * g / 8.0))

        return EstimatorSpec(
            name="mean", fn=_sample_mean, of_sum=_sum_over_n,
            bias=lambda th, n: g * s2 * _mass(th, n),
            bias_prime=lambda th, n: n * g * g * s2 * _mass(th, n),
            c=lambda th, n: 0.5 * s2 * g * _smass(th, n),
            c_prime=lambda th, n: 0.25 * n * s2 * g * g * _smass(th, n))
    return EstimatorSpec(name="mean", fn=_sample_mean, of_sum=_sum_over_n)


def shifted_mean_estimator(model: ParametricModel, wf: WeightFunction) -> EstimatorSpec:
    """Sample mean minus sigma^2 gamma: zero weighted bias under the Gaussian
    shift family with the exponential weight."""
    if model.name != "gaussian-shift" or not _is_scalar_exponential(wf):
        raise IllegalParameterError(
            "shifted mean is specific to the Gaussian shift family with e^{gamma x}")
    g = float(wf.gamma)
    s2 = model.make_distribution(0.0).params["sigma2"]

    def _smass(th, n):
        return math.exp(n * (th * g / 2.0 + s2 * g * g / 8.0))

    return EstimatorSpec(
        name="shifted-mean", fn=lambda xs: xs.mean(axis=1) - s2 * g,
        of_sum=lambda s, n: s / n - s2 * g,
        bias=lambda th, n: 0.0,
        bias_prime=lambda th, n: 0.0,
        c=lambda th, n: -0.5 * s2 * g * _smass(th, n),
        c_prime=lambda th, n: -0.25 * n * s2 * g * g * _smass(th, n))


def scale_abs_mean_estimator() -> EstimatorSpec:
    """sqrt(pi/2) mean |X_i|: unbiased for the Gaussian scale parameter when
    phi == 1; weighted bias handled by Monte Carlo differencing."""
    return EstimatorSpec(
        name="scale-abs-mean",
        fn=lambda xs: math.sqrt(math.pi / 2.0) * np.abs(xs).mean(axis=1))


# ---------------------------------------------------------------------------
# weighted Fisher information
# ---------------------------------------------------------------------------

def _fisher_entry(model, wf, theta, l, m_, cfg) -> float:
    dist = model.make_distribution(theta)

    def f(x):
        p = dist.density(x)
        if model.d == 1:
            gl = gm = model.grad_density(x, theta, p)
        else:
            grads = model.grad_density(x, theta, p)
            gl, gm = grads[..., l], grads[..., m_]
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(p > 0, gl * gm / np.where(p > 0, p, 1.0), 0.0)
        return wf(x) * val

    val, _ = integrate(f, dist.support, cfg, dists=(dist,), wf=wf)
    return val


def weighted_fisher(model: ParametricModel, wf: WeightFunction, theta,
                    cfg: IntegrationConfig):
    """int phi 1(p>0) p^{-1} grad p^T grad p; scalar when d = 1."""
    model.check(theta)
    if model.d == 1:
        return _fisher_entry(model, wf, theta, 0, 0, cfg)
    mat = np.empty((model.d, model.d))
    for l in range(model.d):
        for m_ in range(l, model.d):
            mat[l, m_] = mat[m_, l] = _fisher_entry(model, wf, theta, l, m_, cfg)
    return mat


@dataclass(frozen=True)
class FisherAux:
    E: float                 # mean weight E(theta) = int phi p_theta
    grad_E: np.ndarray       # finite-difference gradient of E
    V: np.ndarray            # int phi grad p_theta
    interchange_gap: float   # max |grad_E - V|

    @property
    def scalar_grad_E(self) -> float:
        return float(self.grad_E[0])

    @property
    def scalar_V(self) -> float:
        return float(self.V[0])


def _mean_weight(model, wf, theta, cfg) -> float:
    dist = model.make_distribution(theta)
    return weight_mass(dist, wf, cfg)


def weighted_fisher_aux(model: ParametricModel, wf: WeightFunction, theta,
                        cfg: IntegrationConfig) -> FisherAux:
    """E(theta), its gradient, and V = int phi grad p (regularity: V = grad E)."""
    model.check(theta)
    dist = model.make_distribution(theta)
    e = _mean_weight(model, wf, theta, cfg)
    grad_e = finite_difference_gradient(
        lambda th: _mean_weight(model, wf, th, cfg), theta, h=1e-5)
    v = np.empty(model.d)
    for l in range(model.d):
        def f(x, _l=l):
            g = model.grad_density(x, theta, dist.density(x))
            g = g if model.d == 1 else g[..., _l]
            return wf(x) * g
        v[l], _ = integrate(f, dist.support, cfg, dists=(dist,), wf=wf)
    gap = float(np.max(np.abs(grad_e - v)))
    return FisherAux(E=e, grad_E=grad_e, V=v, interchange_gap=gap)


def nfold_weighted_fisher(model: ParametricModel, wf: WeightFunction, theta,
                          n: int, cfg: IntegrationConfig):
    """n E^{n-1} I_phi + n (n-1) E^{n-2} V^T V for n i.i.d. observations."""
    if n < 1:
        raise IllegalParameterError("n must be >= 1")
    aux = weighted_fisher_aux(model, wf, theta, cfg)
    info = weighted_fisher(model, wf, theta, cfg)
    if model.d == 1:
        v = aux.scalar_V
        return n * aux.E ** (n - 1) * info + n * (n - 1) * aux.E ** (n - 2) * v * v
    vv = np.outer(aux.V, aux.V)
    return n * aux.E ** (n - 1) * info + n * (n - 1) * aux.E ** (n - 2) * vv


def check_regularity(model: ParametricModel, wf: WeightFunction, theta,
                     cfg: IntegrationConfig, tol: float = 1e-6) -> FisherAux:
    """Abort (RegularityError) unless the interchange identities hold; return
    the ``weighted_fisher_aux`` at theta that the check built."""
    aux = weighted_fisher_aux(model, wf, theta, cfg)
    scale = max(1.0, abs(aux.E))
    if aux.interchange_gap > tol * scale:
        raise RegularityError(
            f"grad E vs int phi grad p gap {aux.interchange_gap:.2e} exceeds {tol:.0e}")
    dist = model.make_distribution(theta)
    for l in range(model.d):
        def f(x, _l=l):
            g = model.grad_density(x, theta, dist.density(x))
            return g if model.d == 1 else g[..., _l]
        total, _ = integrate(f, dist.support, cfg, dists=(dist,), wf=None)
        if abs(total) > tol:
            raise RegularityError(f"int grad p = {total:.2e} != 0")
    return aux


# ---------------------------------------------------------------------------
# local KL expansion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KlExpansionReport:
    steps: np.ndarray
    first_quotients: np.ndarray    # K(p_theta || p_{theta+h}) / h
    second_quotients: np.ndarray   # [K + E(theta+h) - E(theta)] / h^2
    first_limit: float             # -E'(theta)
    second_limit: float            # I_phi(theta) / 2
    first_order: float             # observed convergence order in h
    second_order: float


def _weighted_kl_between(model, wf, theta, theta_p, cfg) -> float:
    prob = HypothesisProblem(model.make_distribution(theta),
                             model.make_distribution(theta_p), wf)
    return kl(prob, cfg).value


def _observed_order(hs: np.ndarray, errs: np.ndarray) -> float:
    good = errs > 1e-14
    if good.sum() < 2:
        return float("inf")
    slope, _ = np.polyfit(np.log(hs[good]), np.log(errs[good]), 1)
    return float(slope)


def kl_expansion_check(model: ParametricModel, wf: WeightFunction, theta: float,
                       steps, cfg: IntegrationConfig, component: int = 0,
                       ) -> KlExpansionReport:
    """Difference-quotient convergence of the weighted KL local expansion.

    With h = theta' - theta the quotients K/h and [K + E(theta') - E(theta)]/h^2
    converge to -E'(theta) and I_phi(theta)/2 respectively, at first order in h.
    (The difference direction is fixed so that both limits exist; flipping the
    sign of the first quotient makes the second diverge like 1/h.)
    """
    if model.d != 1:
        raise IllegalParameterError("expansion check implemented for scalar theta")
    hs = np.asarray(sorted(steps, reverse=True), dtype=float)
    aux = weighted_fisher_aux(model, wf, theta, cfg)
    info = weighted_fisher(model, wf, theta, cfg)
    e0 = aux.E
    q1 = np.empty_like(hs)
    q2 = np.empty_like(hs)
    for i, h in enumerate(hs):
        kv = _weighted_kl_between(model, wf, theta, theta + h, cfg)
        e1 = _mean_weight(model, wf, theta + h, cfg)
        q1[i] = kv / h
        q2[i] = (kv + (e1 - e0)) / (h * h)
    first_limit = -aux.scalar_grad_E
    second_limit = 0.5 * info
    return KlExpansionReport(
        steps=hs, first_quotients=q1, second_quotients=q2,
        first_limit=first_limit, second_limit=second_limit,
        first_order=_observed_order(hs, np.abs(q1 - first_limit)),
        second_order=_observed_order(hs, np.abs(q2 - second_limit)))


# ---------------------------------------------------------------------------
# Monte Carlo weighted quadratic deviation
# ---------------------------------------------------------------------------

def _weighted_values(wf: WeightFunction, est: EstimatorSpec, xs: np.ndarray,
                     theta: float, deviation: bool = True) -> np.ndarray:
    """Per row of the (T, n) block xs: phi^{(n)}(x) (theta*(x) - theta)^2, or
    phi^{(n)}(x) theta*(x) with ``deviation=False``.

    Each row is summed once, for the exponential weight (log phi^{(n)} =
    gamma * sum, no phi evaluated) and for an estimator that declares
    ``of_sum``.
    """
    exponential = _is_scalar_exponential(wf)
    s = xs.sum(axis=1) if exponential or est.of_sum is not None else None
    if exponential:
        lw = float(wf.gamma) * s
    else:
        with np.errstate(divide="ignore"):
            lw = np.log(wf(xs)).sum(axis=1)
    estimate = est.fn(xs) if est.of_sum is None else est.of_sum(s, xs.shape[1])
    return np.exp(lw) * ((estimate - theta) ** 2 if deviation else estimate)


def _on_sum(model, wf, est) -> bool:
    """A sample enters only through S = sum_i x_i ~ N(n theta, n sigma^2): Gaussian
    shift family, log phi^{(n)} = gamma S, and an estimator with ``of_sum``."""
    return model.name == "gaussian-shift" and _is_scalar_exponential(wf) \
        and est.of_sum is not None


def _mc_values(model, wf, est, n, thetas, t, rng, deviation: bool = True):
    """Yield the t values of ``_weighted_values`` at each theta, from one draw.

    Under ``_on_sum`` the draw is D = sigma sqrt(n) Z: S = n theta + D, phi^{(n)} =
    e^{gamma n theta} e^{gamma D}.  Else a (t, n) standard-normal block, moved to
    each theta ``_MC_PIECE`` rows at a time so that keeping it costs no peak memory.
    """
    if _on_sum(model, wf, est):
        g = float(wf.gamma)
        d = math.sqrt(n * model.make_distribution(0.0).params["sigma2"]) * rng.standard_normal(t)
        tilt = np.exp(g * d)
        for th in thetas:
            estimate = est.of_sum(n * th + d, n)
            yield np.exp(g * n * th) * tilt * ((estimate - th) ** 2 if deviation else estimate)
    else:
        zs = rng.standard_normal((t, n))
        pieces = np.array_split(zs, -(-t // _MC_PIECE))
        for th in thetas:
            yield np.concatenate([
                _weighted_values(wf, est, _shift_samples(model, th, z, rng), th, deviation)
                for z in pieces])


def _mc_weighted(model, wf, thetas, n, est, trials, rng, deviation: bool = True) -> list:
    """(mean, stderr) at each theta of ``thetas`` of phi^{(n)}(X) |theta*(X) -
    theta|^2, or with ``deviation=False`` of phi^{(n)}(X) theta*(X), i.e.
    W(theta), in chunks of ``_MC_CHUNK`` draws shared by every theta."""
    sums = np.zeros((len(thetas), 2))
    done = 0
    while done < trials:
        t = min(_MC_CHUNK, trials - done)
        for acc, v in zip(sums, _mc_values(model, wf, est, n, thetas, t, rng, deviation)):
            acc += float(v.sum()), float((v * v).sum())
        done += t
    mean = sums[:, 0] / trials
    var = np.maximum(sums[:, 1] / trials - mean * mean, 0.0)
    return list(zip(mean.tolist(), np.sqrt(var / trials).tolist()))


def _bias_prime_mc(model, wf, theta, n, est, cfg, trials, seed) -> tuple:
    """Central-difference d/dtheta of b(theta) = W(theta) - E(theta)^n theta; both
    points read one draw of ``_mc_values`` (common random numbers)."""
    h = 1e-3 * max(1.0, abs(theta))
    pts = (theta + h, theta - h)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    out = [(w - _mean_weight(model, wf, th, cfg) ** n * th, se) for th, (w, se)
           in zip(pts, _mc_weighted(model, wf, pts, n, est, trials, rng, deviation=False))]
    bp = (out[0][0] - out[1][0]) / (2 * h)
    se = math.hypot(out[0][1], out[1][1]) / (2 * h)
    return bp, se


# ---------------------------------------------------------------------------
# Cramer-Rao bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CramerRaoResult:
    version: str
    theta: float
    n: int
    lhs: float
    lhs_stderr: float
    rhs: float
    rhs_stderr: float = 0.0
    details: dict = field(default_factory=dict)

    @property
    def holds_3sigma(self) -> bool:
        slack = 3.0 * math.hypot(self.lhs_stderr, self.rhs_stderr)
        return self.lhs >= self.rhs - slack


def cramer_rao_A(model: ParametricModel, wf: WeightFunction, theta: float, n: int,
                 est: EstimatorSpec, cfg: IntegrationConfig,
                 trials: int = 1_000_000, seed: int = 0) -> CramerRaoResult:
    """Version A: lhs = E[phi^{(n)} |theta*-theta|^2] against R(theta, n)."""
    if model.d != 1:
        raise IllegalParameterError("deviation bounds implemented for scalar theta")
    model.check(theta)
    _check_sample_sizes(n, trials)
    aux = check_regularity(model, wf, theta, cfg)
    info = weighted_fisher(model, wf, theta, cfg)
    e, ep = aux.E, aux.scalar_grad_E

    if est.bias_prime is not None:
        bp, bp_se = est.bias_prime(theta, n), 0.0
    else:
        bp, bp_se = _bias_prime_mc(model, wf, theta, n, est, cfg,
                                   max(trials // 4, 50_000), seed + 1)

    denom = n * info * e ** (n - 1) + n * (n - 1) * ep * ep * e ** (n - 2)
    rhs = (e ** n + bp) ** 2 / denom
    rhs_se = 2.0 * abs(e ** n + bp) * bp_se / denom

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ((lhs, lhs_se),) = _mc_weighted(model, wf, (theta,), n, est, trials, rng)
    return CramerRaoResult(
        version="A", theta=theta, n=n, lhs=lhs, lhs_stderr=lhs_se,
        rhs=rhs, rhs_stderr=rhs_se,
        details={"E": e, "E_prime": ep, "I_w": info, "bias_prime": bp})


def _sqrt_weight_mass(model, wf, theta, cfg) -> float:
    """s(theta) = E_theta[phi(X)^{1/2}]."""
    dist = model.make_distribution(theta)
    f = lambda x: np.sqrt(wf(x)) * dist.density(x)
    half_wf = WeightFunction.exponential(wf.gamma / 2.0) \
        if _is_scalar_exponential(wf) else None
    val, _ = integrate(f, dist.support, cfg, dists=(dist,), wf=half_wf)
    return val


def cramer_rao_B(model: ParametricModel, wf: WeightFunction, theta: float, n: int,
                 est: EstimatorSpec, cfg: IntegrationConfig,
                 trials: int = 1_000_000, seed: int = 0) -> CramerRaoResult:
    """Version B: same lhs against S(theta, n) built from s(theta) and the
    unweighted Fisher information."""
    if model.d != 1:
        raise IllegalParameterError("deviation bounds implemented for scalar theta")
    model.check(theta)
    _check_sample_sizes(n, trials)
    check_regularity(model, wf, theta, cfg)
    one = WeightFunction.constant(1.0)
    info_plain = weighted_fisher(model, one, theta, cfg)
    s = _sqrt_weight_mass(model, wf, theta, cfg)

    if est.c_prime is not None:
        cp = est.c_prime(theta, n)
        cp_se = 0.0
    else:
        raise IllegalParameterError(
            "version B needs the analytic square-root-weight bias derivative")

    rhs = (s ** n + cp) ** 2 / (n * info_plain)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ((lhs, lhs_se),) = _mc_weighted(model, wf, (theta,), n, est, trials, rng)
    return CramerRaoResult(
        version="B", theta=theta, n=n, lhs=lhs, lhs_stderr=lhs_se,
        rhs=rhs, rhs_stderr=cp_se,
        details={"s": s, "I": info_plain, "c_prime": cp})


# ---------------------------------------------------------------------------
# van Trees bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorSpec:
    """Smooth prior on the scalar parameter: gaussian or a compact bump."""

    kind: str                  # "gaussian" | "bump"
    mean: float = 0.0
    var: float = 1.0
    center: float = 0.0
    width: float = 1.0

    def pdf(self, th):
        if self.kind == "gaussian":
            return Distribution.gaussian(self.mean, self.var).density(th)
        th = np.asarray(th, dtype=float)
        u = (th - self.center) / self.width
        inside = np.abs(u) < 1.0
        out = np.zeros_like(th, dtype=float)
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out / (self.width * _BUMP_NORM)

    def grad_log_pdf(self, th):
        th = np.asarray(th, dtype=float)
        if self.kind == "gaussian":
            return -(th - self.mean) / self.var
        u = (th - self.center) / self.width
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.where(np.abs(u) < 1, -2.0 * u / (1.0 - u * u) ** 2, 0.0)
        return g / self.width

    def quadrature(self, level: int = 32):
        """Nodes/weights approximating integrals against the prior."""
        if self.kind == "gaussian":
            x, w, _ = _hermegauss(level)
            nodes = self.mean + math.sqrt(self.var) * x
            return nodes, w / math.sqrt(2 * math.pi)
        xs = np.linspace(self.center - self.width, self.center + self.width,
                         4 * level + 1)
        ps = self.pdf(xs)
        w = np.full(xs.size, xs[1] - xs[0])
        w[0] = w[-1] = 0.5 * (xs[1] - xs[0])
        w = w * ps
        return xs, w / w.sum()


_BUMP_NORM = 0.443993816168450  # int_{-1}^{1} exp(-1/(1-u^2)) du


@dataclass(frozen=True)
class VanTreesResult:
    version: str
    n: int
    lhs: float
    lhs_stderr: float
    rhs: float
    details: dict = field(default_factory=dict)

    @property
    def holds_3sigma(self) -> bool:
        return self.lhs >= self.rhs - 3.0 * self.lhs_stderr


def van_trees(model: ParametricModel, wf: WeightFunction, n: int,
              est: EstimatorSpec, prior: PriorSpec, versions: Sequence[str],
              cfg: IntegrationConfig, trials: int = 200_000, seed: int = 0,
              level: int = 32) -> tuple:
    """Prior-averaged weighted quadratic deviation against versions A/B/C:
    one ``VanTreesResult`` per entry of ``versions``, all sharing one lhs.

    lhs integrates the per-theta Monte Carlo deviation over the prior with
    common random numbers across prior nodes; version C uses the weighted
    Fisher information density of the prior.  Each node's
    ``weighted_fisher_aux`` and ``weighted_fisher`` are computed once, for
    versions A and C together, and the regularity check's aux serves its node.
    """
    versions = tuple(versions)
    if not versions or any(v not in ("A", "B", "C") for v in versions):
        raise IllegalParameterError("version must be A, B, or C")
    if model.d != 1:
        raise IllegalParameterError("deviation bounds implemented for scalar theta")
    if "A" in versions and est.bias_prime is None:
        raise IllegalParameterError(
            "van Trees version A needs the analytic weighted-bias derivative")
    if "B" in versions and est.c_prime is None:
        raise IllegalParameterError(
            "van Trees version B needs the analytic square-root-weight bias derivative")
    _check_sample_sizes(n, trials)
    nodes, weights = prior.quadrature(level)
    mid = len(nodes) // 2
    mid_aux = check_regularity(model, wf, float(nodes[mid]), cfg)
    lhs, lhs_se = _prior_averaged_deviation(model, wf, n, est, nodes, weights,
                                            trials, seed)

    if "A" in versions or "C" in versions:
        auxs = [mid_aux if k == mid else weighted_fisher_aux(model, wf, float(t), cfg)
                for k, t in enumerate(nodes)]
        infos = [weighted_fisher(model, wf, float(t), cfg) for t in nodes]
    results = []
    for version in versions:
        details: dict = {}
        if version == "A":
            rhs = 0.0
            for th, w, aux, info in zip(nodes, weights, auxs, infos):
                rhs += w * _pointwise_rhs_A(aux, info, float(th), n, est)
        elif version == "B":
            rhs = 0.0
            for th, w in zip(nodes, weights):
                rhs += w * _pointwise_rhs_B(model, wf, float(th), n, est, cfg)
        else:
            e_pow = np.array([aux.E ** n for aux in auxs])
            numer = float(np.sum(weights * e_pow)) ** 2
            j_term = float(np.sum(weights * e_pow * prior.grad_log_pdf(nodes) ** 2))
            tr_iw = np.array(infos)
            grad_e = np.array([aux.scalar_grad_E for aux in auxs])
            t_val = j_term + n * float(np.sum(weights * tr_iw)) \
                + n * (n - 1) * float(np.sum(weights * grad_e ** 2))
            rhs = numer / t_val
            details = {"T": t_val, "prior_information": j_term}
        results.append(VanTreesResult(version=version, n=n, lhs=lhs, lhs_stderr=lhs_se,
                                      rhs=rhs, details=details))
    return tuple(results)


def _prior_averaged_deviation(model, wf, n, est, nodes, weights, trials, seed) -> tuple:
    """sum_k w_k E_{theta_k}[phi^{(n)} (theta* - theta_k)^2] and its stderr.

    Common random numbers: one draw of ``_mc_values`` serves every node, so
    on the sum each node costs O(trials).
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    lhs = 0.0
    lhs_se = 0.0
    for w, v in zip(weights, _mc_values(model, wf, est, n, nodes.tolist(), trials, rng)):
        se = float(v.std(ddof=1) / math.sqrt(trials))
        lhs += float(w) * float(v.mean())
        lhs_se += float(w) * se  # CRN couples the nodes; sum is a safe upper bound
    return lhs, lhs_se


def _shift_samples(model, theta, zs, rng):
    """Move one standard-normal block to theta when the model is a location/scale
    transform of it; fall back to fresh draws (no common numbers) otherwise."""
    if model.name == "gaussian-shift":
        sigma = math.sqrt(model.make_distribution(0.0).params["sigma2"])
        return theta + sigma * zs
    if model.name == "gaussian-scale":
        return theta * zs
    return model.make_distribution(theta).draw(rng, zs.shape)


def _pointwise_rhs_A(aux, info, theta, n, est) -> float:
    bp = est.bias_prime(theta, n)
    denom = n * info * aux.E ** (n - 1) \
        + n * (n - 1) * aux.scalar_grad_E ** 2 * aux.E ** (n - 2)
    return (aux.E ** n + bp) ** 2 / denom


def _pointwise_rhs_B(model, wf, theta, n, est, cfg) -> float:
    one = WeightFunction.constant(1.0)
    info = weighted_fisher(model, one, theta, cfg)
    s = _sqrt_weight_mass(model, wf, theta, cfg)
    cp = est.c_prime(theta, n)
    return (s ** n + cp) ** 2 / (n * info)
