"""Weighted Fisher information, weighted Cramer-Rao bounds (versions A and B),
and weighted van Trees bounds (versions A, B, C).

A smooth parametric model is a map theta -> Distribution, built by the
``Distribution`` catalog constructors, plus the theta-gradient of its density;
n i.i.d. observations carry the product weight prod_i phi(x_i).  Monte Carlo
estimates of the weighted quadratic deviation report their standard error, and
every bound assertion in the test-suites is made at 3 standard errors.

The Monte Carlo has one path (``_mc_sums``): each chunk of draws is reduced
once to row statistics, S = sum_i x_i and A = sum_i |x_i|, that every theta
reads.  It runs the Gaussian shift and scale families with the weight
e^{gamma x} or a constant, and refuses anything else before any work; every
bound also reports its lhs in closed form (``lhs_exact``).

Regularity is not assumed silently: ``check_regularity`` verifies the two
interchange identities (grad E = int phi grad p and int grad p = 0), and every
bound checks them at its theta first, aborting with a diagnostic rather than
reporting an unsound bound.

Version-A bounds follow the single-entry derivation, which carries a
Kronecker delta between the parameter component and the differentiation
direction (for d = 1 the distinction is invisible).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import erf

from .core import (
    Distribution,
    Integrand,
    IntegrationConfig,
    WeightFunction,
    _hermegauss,
    finite_difference_gradient,
    integrate,
)
from .divergence import HypothesisProblem, integrals, weight_mass
from .errors import (
    IllegalParameterError,
    NonConvergentIntegralError,
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


def _is_scalar_exponential(wf: WeightFunction) -> bool:
    """phi(x) = e^{gamma x} with scalar gamma: log prod_i phi(x_i) = gamma * sum_i x_i."""
    return wf.kind == "exponential" and np.ndim(wf.gamma) == 0


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
    """Estimator over n-tuples, coef * T / n + offset, of the one row statistic
    T it reads (``statistic``): S = sum_i x_i or A = sum_i |x_i|; with optional
    analytic weighted-bias data.

    ``bias``/``bias_prime`` refer to the plain-weight decomposition
    W = E(theta)^n theta + b(theta); ``c``/``c_prime`` to the square-root
    weight decomposition Z = s(theta)^n theta + c(theta).  Each callable takes
    (theta, n).  When absent, the bounds fall back to Monte Carlo estimation
    of the bias derivative with propagated uncertainty.
    """

    name: str
    statistic: str = "S"                    # "S" = sum_i x_i, "A" = sum_i |x_i|
    coef: float = 1.0
    offset: float = 0.0
    bias: Optional[Callable] = None
    bias_prime: Optional[Callable] = None
    c: Optional[Callable] = None
    c_prime: Optional[Callable] = None


def mean_estimator(model: ParametricModel, wf: WeightFunction) -> EstimatorSpec:
    """Sample mean; analytic weighted bias under the Gaussian shift family
    with an exponential weight (the equality case of version A) or a constant
    one (unbiased: every bias term is 0)."""
    if model.name == "gaussian-shift" and wf.kind == "constant":
        zero = lambda th, n: 0.0
        return EstimatorSpec(name="mean", bias=zero, bias_prime=zero, c=zero, c_prime=zero)
    if model.name == "gaussian-shift" and _is_scalar_exponential(wf):
        g = float(wf.gamma)
        # sigma^2 backed out of the model's distribution at theta = 0
        s2 = model.make_distribution(0.0).params["sigma2"]

        def _mass(th, n):
            return math.exp(n * (th * g + s2 * g * g / 2.0))

        def _smass(th, n):
            return math.exp(n * (th * g / 2.0 + s2 * g * g / 8.0))

        return EstimatorSpec(
            name="mean",
            bias=lambda th, n: g * s2 * _mass(th, n),
            bias_prime=lambda th, n: n * g * g * s2 * _mass(th, n),
            c=lambda th, n: 0.5 * s2 * g * _smass(th, n),
            c_prime=lambda th, n: 0.25 * n * s2 * g * g * _smass(th, n))
    return EstimatorSpec(name="mean")


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
        name="shifted-mean", offset=-s2 * g,
        bias=lambda th, n: 0.0,
        bias_prime=lambda th, n: 0.0,
        c=lambda th, n: -0.5 * s2 * g * _smass(th, n),
        c_prime=lambda th, n: -0.25 * n * s2 * g * g * _smass(th, n))


def scale_abs_mean_estimator() -> EstimatorSpec:
    """sqrt(pi/2) mean |X_i|: unbiased for the Gaussian scale parameter when
    phi == 1; weighted bias handled by Monte Carlo differencing."""
    return EstimatorSpec(name="scale-abs-mean", statistic="A", coef=math.sqrt(math.pi / 2.0))


# ---------------------------------------------------------------------------
# the integrals at theta
# ---------------------------------------------------------------------------
# Every Fisher quantity is built from integrals of p, phi and grad p at one
# theta: "E" = int phi p, "s" = int phi^(1/2) p, "V"_l = int phi d_l p,
# "U"_l = int d_l p, "I"_lm = int phi 1(p>0) d_l p d_m p / p, and "I1", the
# same with phi = 1.  "E'" is the gradient of E by central differences of
# ``weight_mass``: the side of the interchange check V = grad E that does not
# differentiate under the integral.

def _fisher_terms(gl, gm, p):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0, gl * gm / np.where(p > 0, p, 1.0), 0.0)


# kind -> (number of direction indices, integrand of (p, phi, grad p, *indices))
_TERMS = {"E": (0, lambda p, w, g: w * p),
          "s": (0, lambda p, w, g: np.sqrt(w) * p),
          "V": (1, lambda p, w, g, l: w * g[l]),
          "U": (1, lambda p, w, g, l: g[l]),
          "I": (2, lambda p, w, g, l, m: w * _fisher_terms(g[l], g[m], p)),
          "I1": (2, lambda p, w, g, l, m: _fisher_terms(g[l], g[m], p))}


def _at_theta(model, wf, theta, cfg, kinds) -> dict:
    """{kind: value} at theta: a number for "E" and "s", a d-vector for "E'",
    "V" and "U", a symmetric matrix for "I" and "I1" (a number when d = 1).
    Each integral is a component of one lockstep ``integrate`` call, with the
    window of its lone integral: phi's for most, none for "U" and "I1", and for
    "s" the half-rate exponential's (none for other weights).  The first
    failure is raised."""
    d, dist = model.d, model.make_distribution(model.check(theta))
    half = WeightFunction.exponential(wf.gamma / 2.0) if _is_scalar_exponential(wf) else None
    out, comps, slots = {}, [], []
    for kind in dict.fromkeys(kinds):
        if kind == "E'":
            out[kind] = finite_difference_gradient(
                lambda th: weight_mass(model.make_distribution(th), wf, cfg), theta, h=1e-5)
            continue
        rank, term = _TERMS[kind]
        out[kind] = np.empty((d,) * rank)
        for ix in itertools.combinations_with_replacement(range(d), rank):
            comps.append(Integrand(lambda p, w, *g, _t=term, _ix=ix: _t(p, w, g, *_ix),
                                   (dist,), {"s": half, "U": None, "I1": None}.get(kind, wf)))
            slots.append((kind, ix))

    def evaluate(x):
        p = dist.density(x)
        g = model.grad_density(x, theta, p)
        return (p, wf(x)) + ((g,) if d == 1 else tuple(g[..., l] for l in range(d)))

    for (kind, ix), res in zip(slots, integrate(evaluate, dist.support, cfg, components=comps)):
        if isinstance(res, NonConvergentIntegralError):
            raise res
        out[kind][ix] = out[kind][ix[::-1]] = res[0]
    return {kind: v.item() if v.ndim != 1 and v.size == 1 else v for kind, v in out.items()}


# ---------------------------------------------------------------------------
# weighted Fisher information
# ---------------------------------------------------------------------------

def weighted_fisher(model: ParametricModel, wf: WeightFunction, theta,
                    cfg: IntegrationConfig):
    """int phi 1(p>0) p^{-1} grad p^T grad p; scalar when d = 1."""
    return _at_theta(model, wf, theta, cfg, ["I"])["I"]


@dataclass(frozen=True)
class FisherAux:
    E: float                 # mean weight E(theta) = int phi p_theta
    grad_E: np.ndarray       # finite-difference gradient of E
    V: np.ndarray            # int phi grad p_theta
    interchange_gap: float   # max |grad_E - V|


def _aux(at: dict) -> FisherAux:
    return FisherAux(E=at["E"], grad_E=at["E'"], V=at["V"],
                     interchange_gap=float(np.max(np.abs(at["E'"] - at["V"]))))


def weighted_fisher_aux(model: ParametricModel, wf: WeightFunction, theta,
                        cfg: IntegrationConfig) -> FisherAux:
    """E(theta), its gradient, and V = int phi grad p (regularity: V = grad E)."""
    return _aux(_at_theta(model, wf, theta, cfg, ["E", "E'", "V"]))


def nfold_weighted_fisher(model: ParametricModel, wf: WeightFunction, theta,
                          n: int, cfg: IntegrationConfig):
    """n E^{n-1} I_phi + n (n-1) E^{n-2} V^T V for n i.i.d. observations."""
    if n < 1:
        raise IllegalParameterError("n must be >= 1")
    at = _at_theta(model, wf, theta, cfg, ["E", "V", "I"])
    e, info = at["E"], at["I"]
    if model.d == 1:
        v = float(at["V"][0])
        return n * e ** (n - 1) * info + n * (n - 1) * e ** (n - 2) * v * v
    return n * e ** (n - 1) * info + n * (n - 1) * e ** (n - 2) * np.outer(at["V"], at["V"])


# the kinds the regularity check reads
_REGULARITY = ["E", "E'", "V", "U"]


def _regular(at: dict, tol: float = 1e-6) -> FisherAux:
    """The aux of ``at``; RegularityError unless its interchange identities hold."""
    aux = _aux(at)
    scale = max(1.0, abs(aux.E))
    if aux.interchange_gap > tol * scale:
        raise RegularityError(
            f"grad E vs int phi grad p gap {aux.interchange_gap:.2e} exceeds {tol:.0e}")
    for total in at["U"].tolist():
        if abs(total) > tol:
            raise RegularityError(f"int grad p = {total:.2e} != 0")
    return aux


def check_regularity(model: ParametricModel, wf: WeightFunction, theta,
                     cfg: IntegrationConfig, tol: float = 1e-6) -> FisherAux:
    """Abort (RegularityError) unless the interchange identities hold; return
    the ``weighted_fisher_aux`` at theta that the check built."""
    return _regular(_at_theta(model, wf, theta, cfg, _REGULARITY), tol)


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


def _observed_order(hs: np.ndarray, errs: np.ndarray) -> float:
    good = errs > 1e-14
    if good.sum() < 2:
        return float("inf")
    slope, _ = np.polyfit(np.log(hs[good]), np.log(errs[good]), 1)
    return float(slope)


def kl_expansion_check(model: ParametricModel, wf: WeightFunction, theta: float,
                       steps, cfg: IntegrationConfig) -> KlExpansionReport:
    """Difference-quotient convergence of the weighted KL local expansion.

    With h = theta' - theta the quotients K/h and [K + E(theta') - E(theta)]/h^2
    converge to -E'(theta) and I_phi(theta)/2 respectively, at first order in h.
    (The difference direction is fixed so that both limits exist; flipping the
    sign of the first quotient makes the second diverge like 1/h.)
    """
    if model.d != 1:
        raise IllegalParameterError("expansion check implemented for scalar theta")
    hs = np.asarray(sorted(steps, reverse=True), dtype=float)
    at = _at_theta(model, wf, theta, cfg, ["E", "E'", "I"])
    q1 = np.empty_like(hs)
    q2 = np.empty_like(hs)
    for i, h in enumerate(hs):
        prob = HypothesisProblem(model.make_distribution(theta),
                                 model.make_distribution(theta + h), wf)
        (kv, _), (eq, _) = integrals(prob, cfg, ("kl", ("mass", "q")))
        q1[i] = kv / h
        q2[i] = (kv + (eq - at["E"])) / (h * h)
    first_limit = -float(at["E'"][0])
    second_limit = 0.5 * at["I"]
    return KlExpansionReport(
        steps=hs, first_quotients=q1, second_quotients=q2,
        first_limit=first_limit, second_limit=second_limit,
        first_order=_observed_order(hs, np.abs(q1 - first_limit)),
        second_order=_observed_order(hs, np.abs(q2 - second_limit)))


# ---------------------------------------------------------------------------
# Monte Carlo weighted quadratic deviation
# ---------------------------------------------------------------------------

# A chunk of draws is reduced once to row statistics, and every theta reads
# them.  The weight is phi(x) = c e^{gamma x} (e^{gamma x}, or a constant c as
# gamma = 0), so phi^{(n)} = c^n e^{gamma S}, and an estimator is
# coef * T / n + offset with T = S or A (``EstimatorSpec``).  The Gaussian shift
# family draws D = S - n theta = sigma sqrt(n) Z directly, and carries S only;
# the Gaussian scale family draws one standard-normal (t, n) block, whose row
# sums sum z and sum |z| give S = theta sum z and A = theta sum |z|.

# the row statistics each model's draw carries
_STATISTICS = {"gaussian-shift": ("S",), "gaussian-scale": ("S", "A")}


def _weight_rate(model, wf, est) -> tuple:
    """(gamma, c) with phi(x) = c e^{gamma x}.  IllegalParameterError for any
    other weight, for a model with no draw, and for an estimator whose
    statistic the draw does not carry (on the shift family, S / n + offset)."""
    if est.statistic not in _STATISTICS.get(model.name, ()) or (
            model.name == "gaussian-shift" and est.coef != 1.0):
        raise IllegalParameterError(
            f"no Monte Carlo path for the {est.name} estimator on {model.name}")
    if _is_scalar_exponential(wf):
        return float(wf.gamma), 1.0
    if wf.kind == "constant":
        return 0.0, float(wf.c)
    raise IllegalParameterError(f"no Monte Carlo path for the {wf.kind} weight")


def _check_mc_inputs(model, wf, est, n: int, trials: int) -> None:
    """Refuse, before any integral or draw, what the Monte Carlo cannot run."""
    if model.d != 1:
        raise IllegalParameterError("deviation bounds implemented for scalar theta")
    if n < 1:
        raise IllegalParameterError("n must be >= 1")
    if trials < 2:
        raise IllegalParameterError("trials must be >= 2")
    _weight_rate(model, wf, est)


def _sum_moments(model, est, g, n, t, rng, deviation: bool = True) -> np.ndarray:
    """[sum F | sum F F^T], an (m, 1 + m) array, over one draw of t values of
    D = sigma sqrt(n) Z on the shift family.  There S = n theta + D, phi^{(n)} =
    c^n e^{gamma n theta} e^{gamma D} and theta* - theta = r = D/n + offset at
    every theta, so the value at theta is c^n e^{gamma n theta} F with
    F = e^{gamma D} r^2, or with ``deviation=False`` c^n e^{gamma n theta}
    (theta, 1) . F with F = (e^{gamma D}, e^{gamma D} r) (``_mc_sums`` applies
    the c^n); the arithmetic runs in place on three t-long buffers."""
    r = rng.standard_normal(t)  # D, until r = D/n + offset is formed
    r *= math.sqrt(n * model.make_distribution(0.0).params["sigma2"])
    tilt = np.exp(g * r)
    r /= n
    r += est.offset
    if deviation:
        r *= r
    r *= tilt
    feats, prod = ([r] if deviation else [tilt, r]), np.empty(t)
    return np.array([[float(f.sum())] + [float(np.multiply(f, h, out=prod).sum())
                                          for h in feats] for f in feats])


def _scale_sums(est, g, n, t, thetas, rng, deviation: bool = True) -> np.ndarray:
    """(len(thetas), 3): the sums of v, v^2 and (v - v_0)^2 of ``_mc_sums``, without
    its c^n, over one chunk of t draws on the scale family.  The standard-normal
    (t, n) block is reduced to sum z and q = coef T / n (T = sum z or sum |z|) and
    freed; at theta x the estimate is x q + offset and phi^{(n)} = c^n e^{g x sum z}."""
    z = rng.standard_normal((t, n))
    sz = np.einsum("ij->i", z)  # ~3x faster than z.sum(axis=1) for short rows
    q = est.coef / n * (np.einsum("ij->i", np.abs(z, out=z)) if est.statistic == "A" else sz)
    del z
    sums = np.zeros((len(thetas), 3))
    for k, x in enumerate(thetas):
        estimate = x * q + est.offset
        v = np.exp(g * x * sz)
        v *= (estimate - x) ** 2 if deviation else estimate
        first = v if k == 0 else first
        sums[k] = float(v.sum()), float((v * v).sum()), \
            float(((v - first) ** 2).sum()) if k else 0.0
    return sums


def _exact_lhs(model, wf, est, n, thetas, weights) -> float:
    """sum_k w_k E_{theta_k}[phi^{(n)} (theta* - theta_k)^2] in closed form.

    Shift family: E e^{gamma D} = e^{n gamma^2 sigma^2 / 2}, and under that tilt
    r ~ N(gamma sigma^2 + offset, sigma^2 / n).  Scale family: with g = gamma
    theta, a coordinate's tilted moments are M0 = E e^{g z} = e^{g^2/2},
    M2 = E e^{g z} z^2 = M0 (1 + g^2) and M1 = E e^{g z} z = g M0, or for A,
    E e^{g z} |z| = M0 g erf(g / sqrt 2) + sqrt(2 / pi); with
    theta* - theta = theta q + b, q = coef T / n, b = offset - theta, the lhs is
    theta^2 E e q^2 + 2 theta b E e q + b^2 M0^n over e = e^{g sum z}."""
    g, c = _weight_rate(model, wf, est)
    th = np.asarray(thetas, dtype=float)
    if model.name == "gaussian-shift":
        s2 = model.make_distribution(0.0).params["sigma2"]
        mass = np.exp(g * n * th + n * g * g * s2 / 2.0)
        return float(np.dot(weights, c ** n * mass * ((g * s2 + est.offset) ** 2 + s2 / n)))
    gt = g * th
    m0 = np.exp(gt * gt / 2.0)
    m1 = gt * m0 if est.statistic == "S" else \
        gt * m0 * erf(gt / math.sqrt(2.0)) + math.sqrt(2.0 / math.pi)
    eq2 = (est.coef / n) ** 2 * (n * m0 * (1.0 + gt * gt) * m0 ** (n - 1)
                                 + n * (n - 1) * m1 * m1 * m0 ** (n - 2))
    eq1, b = est.coef * m1 * m0 ** (n - 1), est.offset - th
    return float(np.dot(weights, c ** n * (th * th * eq2 + 2.0 * th * b * eq1 + b * b * m0 ** n)))


def _mc_sums(model, wf, thetas, n, est, trials, rng, deviation: bool = True) -> np.ndarray:
    """(len(thetas), 3): the sums over ``trials`` draws of v, v^2 and (v - v_0)^2,
    with v = phi^{(n)}(X) |theta*(X) - theta|^2 at each theta of ``thetas``, or with
    ``deviation=False`` v = phi^{(n)}(X) theta*(X), i.e. W(theta), and v_0 its
    value at the first theta.  The draws come in chunks of ``_MC_CHUNK`` shared by
    every theta, each reduced once to row statistics: on the shift family to one
    ``_sum_moments``, of which each theta's sums are forms in its coefficients u;
    on the scale family to (sum z, sum |z|) in ``_scale_sums``.
    """
    g, c = _weight_rate(model, wf, est)
    th = np.asarray(thetas, dtype=float)
    location = model.name == "gaussian-shift"
    sums, moments, done = np.zeros((th.size, 3)), 0.0, 0
    while done < trials:
        t = min(_MC_CHUNK, trials - done)
        if location:
            moments = moments + _sum_moments(model, est, g, n, t, rng, deviation)
        else:
            sums += _scale_sums(est, g, n, t, th, rng, deviation)
        done += t
    if location:
        u = np.exp(g * n * th)[:, None]
        u = u if deviation else u * np.column_stack([th, np.ones_like(th)])
        gram, du = moments[:, 1:], u - u[0]
        sums = np.column_stack([u @ moments[:, 0], ((u @ gram) * u).sum(axis=1),
                                ((du @ gram) * du).sum(axis=1)])
    return sums * [c ** n, c ** (2 * n), c ** (2 * n)]


def _mc_weighted(model, wf, thetas, n, est, trials, rng, deviation: bool = True) -> list:
    """(mean, stderr, diff_stderr) of ``_mc_sums``'s v at each theta;
    ``diff_stderr`` is the stderr of v - v_0, which the shared draws make far
    smaller than the two stderrs."""
    sums = _mc_sums(model, wf, thetas, n, est, trials, rng, deviation)
    mean = sums[:, 0] / trials
    var = np.maximum(sums[:, 1] / trials - mean * mean, 0.0)
    diff_var = np.maximum(sums[:, 2] / trials - (mean - mean[0]) ** 2, 0.0)
    return list(zip(mean.tolist(), np.sqrt(var / trials).tolist(),
                    np.sqrt(diff_var / trials).tolist()))


def _bias_prime_mc(model, wf, theta, n, est, cfg, trials, seed) -> tuple:
    """Central-difference d/dtheta of b(theta) = W(theta) - E(theta)^n theta and
    its stderr; both points read one draw of ``_mc_weighted`` (common random
    numbers), so the stderr is that of the per-draw difference."""
    h = 1e-3 * max(1.0, abs(theta))
    pts = (theta + h, theta - h)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    mc = _mc_weighted(model, wf, pts, n, est, trials, rng, deviation=False)
    up, dn = (w - weight_mass(model.make_distribution(th), wf, cfg) ** n * th
              for th, (w, _, _) in zip(pts, mc))
    return (up - dn) / (2 * h), mc[1][2] / (2 * h)


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
    lhs_exact: Optional[float] = None   # the closed form of lhs (``_exact_lhs``)
    details: dict = field(default_factory=dict)

    @property
    def holds_3sigma(self) -> bool:
        slack = 3.0 * math.hypot(self.lhs_stderr, self.rhs_stderr)
        return self.lhs >= self.rhs - slack


# what each version reads at theta (see ``_at_theta``): R of version A and the
# T of version C share theirs
_READS = {"A": ["E", "E'", "I"], "B": ["s", "I1"], "C": ["E", "E'", "I"]}
# the estimator's analytic bias derivative each rhs reads, and its description
_BIAS = {"A": ("bias_prime", "weighted-bias derivative"),
         "B": ("c_prime", "square-root-weight bias derivative")}


def _rhs(version: str, at: dict, n: int, bias: tuple) -> tuple:
    """(rhs, rhs_stderr, details) at one theta: R(theta, n) of version A from
    E, E' and I_phi, or S(theta, n) of version B from s and the unweighted
    information; ``bias`` is the (value, stderr) of b' (A) or c' (B)."""
    bp, bp_se = bias
    if version == "B":
        s, info = at["s"], at["I1"]
        return (s ** n + bp) ** 2 / (n * info), bp_se, {"s": s, "I": info, "c_prime": bp}
    e, ep, info = at["E"], float(at["E'"][0]), at["I"]
    denom = n * info * e ** (n - 1) + n * (n - 1) * ep * ep * e ** (n - 2)
    return ((e ** n + bp) ** 2 / denom, 2.0 * abs(e ** n + bp) * bp_se / denom,
            {"E": e, "E_prime": ep, "I_w": info, "bias_prime": bp})


def _cramer_rao(version, model, wf, theta, n, est, cfg, trials, seed) -> CramerRaoResult:
    """lhs = E[phi^{(n)} |theta* - theta|^2] against ``_rhs`` of ``version``, whose
    integrals are read in the regularity check's call.  Without the analytic
    b', version A estimates it by Monte Carlo and propagates its stderr."""
    _check_mc_inputs(model, wf, est, n, trials)
    attr, what = _BIAS[version]
    derivative = getattr(est, attr)
    if derivative is None and version == "B":
        raise IllegalParameterError(f"version B needs the analytic {what}")
    at = _at_theta(model, wf, theta, cfg, _REGULARITY + _READS[version])
    _regular(at)
    bias = (derivative(theta, n), 0.0) if derivative is not None else _bias_prime_mc(
        model, wf, theta, n, est, cfg, max(trials // 4, 50_000), seed + 1)
    rhs, rhs_se, details = _rhs(version, at, n, bias)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    ((lhs, lhs_se, _),) = _mc_weighted(model, wf, (theta,), n, est, trials, rng)
    return CramerRaoResult(version=version, theta=theta, n=n, lhs=lhs, lhs_stderr=lhs_se,
                           rhs=rhs, rhs_stderr=rhs_se, details=details,
                           lhs_exact=_exact_lhs(model, wf, est, n, (theta,), (1.0,)))


def cramer_rao_A(model: ParametricModel, wf: WeightFunction, theta: float, n: int,
                 est: EstimatorSpec, cfg: IntegrationConfig,
                 trials: int = 1_000_000, seed: int = 0) -> CramerRaoResult:
    """Version A: lhs = E[phi^{(n)} |theta*-theta|^2] against R(theta, n)."""
    return _cramer_rao("A", model, wf, theta, n, est, cfg, trials, seed)


def cramer_rao_B(model: ParametricModel, wf: WeightFunction, theta: float, n: int,
                 est: EstimatorSpec, cfg: IntegrationConfig,
                 trials: int = 1_000_000, seed: int = 0) -> CramerRaoResult:
    """Version B: same lhs against S(theta, n) built from s(theta) and the
    unweighted Fisher information."""
    return _cramer_rao("B", model, wf, theta, n, est, cfg, trials, seed)


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
    lhs_exact: Optional[float] = None   # the closed form of lhs (``_exact_lhs``)
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
    common random numbers across prior nodes; versions A and B average the
    pointwise rhs of ``cramer_rao_A`` and ``cramer_rao_B`` over the prior, and
    version C uses the weighted Fisher information density of the prior.
    Each node reads the integrals of every version asked for in one call,
    the middle node with the regularity check's as well.
    """
    versions = tuple(versions)
    if not versions or any(v not in ("A", "B", "C") for v in versions):
        raise IllegalParameterError("version must be A, B, or C")
    for version in versions:
        if version != "C" and getattr(est, _BIAS[version][0]) is None:
            raise IllegalParameterError(
                f"van Trees version {version} needs the analytic {_BIAS[version][1]}")
    _check_mc_inputs(model, wf, est, n, trials)
    nodes, weights = prior.quadrature(level)
    mid = len(nodes) // 2
    reads = [name for version in versions for name in _READS[version]]
    mid_at = _at_theta(model, wf, float(nodes[mid]), cfg, _REGULARITY + reads)
    _regular(mid_at)
    # lhs = sum_k w_k E_{theta_k}[phi^{(n)} (theta* - theta_k)^2] on one draw; the
    # sum of the node stderrs (ddof = 1) bounds its stderr, and is it exactly on the
    # shift family, where node k's values are c^n e^{gamma n theta_k} times one array
    sums = _mc_sums(model, wf, nodes.tolist(), n, est, trials,
                    np.random.default_rng(np.random.SeedSequence(seed)))
    var = np.maximum(sums[:, 1] - sums[:, 0] ** 2 / trials, 0.0) / (trials - 1)
    lhs, lhs_se = float(weights @ sums[:, 0]) / trials, float(weights @ np.sqrt(var / trials))
    lhs_exact = _exact_lhs(model, wf, est, n, nodes, weights)
    ats = [mid_at if k == mid else _at_theta(model, wf, float(t), cfg, reads)
           for k, t in enumerate(nodes)]
    results = []
    for version in versions:
        details: dict = {}
        if version == "C":
            e_pow = np.array([at["E"] ** n for at in ats])
            numer = float(np.sum(weights * e_pow)) ** 2
            j_term = float(np.sum(weights * e_pow * prior.grad_log_pdf(nodes) ** 2))
            tr_iw = np.array([at["I"] for at in ats])
            grad_e = np.array([float(at["E'"][0]) for at in ats])
            t_val = j_term + n * float(np.sum(weights * tr_iw)) \
                + n * (n - 1) * float(np.sum(weights * grad_e ** 2))
            rhs = numer / t_val
            details = {"T": t_val, "prior_information": j_term}
        else:
            derivative = getattr(est, _BIAS[version][0])
            rhs = 0.0
            for th, w, at in zip(nodes, weights, ats):
                rhs += w * _rhs(version, at, n, (derivative(float(th), n), 0.0))[0]
        results.append(VanTreesResult(version=version, n=n, lhs=lhs, lhs_stderr=lhs_se,
                                      rhs=rhs, lhs_exact=lhs_exact, details=details))
    return tuple(results)
