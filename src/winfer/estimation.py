"""Weighted Fisher information, weighted Cramer-Rao bounds (versions A and B),
and weighted van Trees bounds (versions A, B, C).

A smooth parametric model is a map theta -> Distribution, built by the
``Distribution`` catalog constructors, plus the theta-gradient of its density;
n i.i.d. observations carry the product weight prod_i phi(x_i).  Monte Carlo
estimates of the weighted quadratic deviation report their standard error, and
every bound assertion in the test-suites is made at 3 standard errors.

The bounds' closed forms and Monte Carlo read one description of the model,
its location-scale form x = mu + s z with mu and s affine in theta
(``ParametricModel.location_scale``): the Gaussian shift and scale families.
They run with the weight c e^{gamma x}, which tilts z to N(gamma s, 1), and
refuse any other model or weight before any work.  The Monte Carlo has one
path (``_mc_sums``): it draws z under that tilt, scaled by the closed-form E^n,
in blocks addressed by (seed, block index) that run on every core and are
summed in block order, so a seed gives the same rows on any number of cores.

The bounds have one path (``_bounds``).  Versions A and B of van Trees average
the pointwise weighted Cramer-Rao bound over a prior, so ``cramer_rao`` is that
path at the one node theta with weight 1.  The nodes share one draw, and every
row reports its lhs in closed form (``lhs_exact``).  The nodes read E, V, I_phi,
s and I1 in closed form (``_closed_at``), and the estimator's weighted bias
derivatives b' and c' (``_bias``), from the same tilt (``_tilt``); so every
rhs is deterministic.

Regularity is not assumed silently: ``check_regularity`` verifies the two
interchange identities (grad E = int phi grad p and int grad p = 0), with a
finite-difference grad E.  Every bound checks them at its middle node before
any draw, with the closed-form grad E, in the one integration call that also
checks its closed forms; it aborts with a diagnostic rather than reporting an
unsound bound.

Version-A bounds follow the single-entry derivation, which carries a
Kronecker delta between the parameter component and the differentiation
direction (for d = 1 the distinction is invisible).
"""

from __future__ import annotations

import concurrent.futures
import itertools
import math
import os
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
    "cramer_rao",
    "van_trees",
]

_MC_BLOCK = 1 << 17   # standard normals per seed-addressed block
_MC_WINDOW = 64       # blocks submitted at once; a pending future holds ~2 kB


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

    ``location_scale`` = ((mu', mu(0)), (s', s(0))) describes a Gaussian
    location-scale family x = mu(theta) + s(theta) z, z ~ N(0, 1), with mu and
    s > 0 affine in theta; the bounds' closed forms and Monte Carlo read
    nothing else of the model.  It is None for any other family.
    """

    name: str
    d: int
    grad_density: Callable                 # (x, theta, p(x)) -> gradient
    make_distribution: Callable            # theta -> Distribution
    theta_domain: Callable = lambda th: True
    location_scale: Optional[tuple] = None

    def check(self, theta) -> float:
        if not self.theta_domain(theta):
            raise ParameterOutOfDomainError(f"{self.name}: theta = {theta:.6g} outside the domain")
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
        make_distribution=lambda th: Distribution.gaussian(th, s2),
        location_scale=((1.0, 0.0), (0.0, float(sigma))))


def gaussian_scale_model() -> ParametricModel:
    """p_theta(x) = (1/theta) g(x/theta) with standard normal g (theta > 0)."""

    def grad_density(x, th, p):
        x = np.asarray(x, dtype=float)
        return p * (x * x / th ** 3 - 1.0 / th)

    return ParametricModel(
        name="gaussian-scale", d=1, grad_density=grad_density,
        make_distribution=lambda th: Distribution.gaussian(0.0, th * th),
        theta_domain=lambda th: th > 0, location_scale=((0.0, 0.0), (1.0, 0.0)))


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
    T it reads (``statistic``): S = sum_i x_i or A = sum_i |x_i|.

    The bounds read nothing else of it.  Its weighted biases, b in the
    plain-weight decomposition W = E(theta)^n theta + b(theta) and c in the
    square-root-weight decomposition Z = s(theta)^n theta + c(theta), and their
    derivatives b' and c' follow in closed form (``_bias``).
    """

    name: str
    statistic: str = "S"                    # "S" = sum_i x_i, "A" = sum_i |x_i|
    coef: float = 1.0
    offset: float = 0.0


def mean_estimator(model: ParametricModel, wf: WeightFunction) -> EstimatorSpec:
    """Sample mean; under the Gaussian shift family with an exponential weight
    it is the equality case of version A, with a constant one it is unbiased."""
    return EstimatorSpec(name="mean")


def shifted_mean_estimator(model: ParametricModel, wf: WeightFunction) -> EstimatorSpec:
    """Sample mean minus sigma^2 gamma: zero weighted bias under the Gaussian
    shift family N(theta, sigma^2) with the exponential weight."""
    ls = model.location_scale
    if ls is None or ls[0] != (1.0, 0.0) or ls[1][0] != 0.0 or not _is_scalar_exponential(wf):
        raise IllegalParameterError(
            "shifted mean is specific to the Gaussian shift family with e^{gamma x}")
    sigma = ls[1][1]
    return EstimatorSpec(name="shifted-mean", offset=-sigma * sigma * float(wf.gamma))


def scale_abs_mean_estimator() -> EstimatorSpec:
    """sqrt(pi/2) mean |X_i|: unbiased for the Gaussian scale parameter when
    phi == 1."""
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
# the location-scale tilt: closed forms and Monte Carlo
# ---------------------------------------------------------------------------

# The weight phi(x) = c e^{r x} (e^{gamma x}, or a constant c as r = 0) tilts
# the model's x = mu + s z (``ParametricModel.location_scale``); the closed forms
# and the Monte Carlo read that one tilt (``_tilt``).


def _weight_rate(model, wf, est) -> tuple:
    """(gamma, c) with phi(x) = c e^{gamma x}.  IllegalParameterError for any
    other weight, for a model with no location-scale description, and for an
    estimator of A = sum_i |x_i| on a model with a location (|x| is then no
    multiple of |z|)."""
    ls = model.location_scale
    if ls is None or (est.statistic == "A" and ls[0] != (0.0, 0.0)):
        raise IllegalParameterError(
            f"no Monte Carlo path for the {est.name} estimator on {model.name}")
    if _is_scalar_exponential(wf):
        return float(wf.gamma), 1.0
    if wf.kind == "constant":
        return 0.0, float(wf.c)
    raise IllegalParameterError(f"no Monte Carlo path for the {wf.kind} weight")


def _tilt(model, wf, est, th, root: bool = False) -> dict:
    """The tilt at theta (a number or an array), ' the theta-derivative.  The
    weight (with ``root``, phi^{1/2} = c^{1/2} e^{r x / 2}) moves each z of
    x = mu + s z to N(g, 1), g = r s, and theta* - theta = B + coef s t, with t
    the mean of z (statistic S) or of |z| (A, where mu = 0).

    "c", "s", "g"; "B" = (coef mu' - 1) theta + coef mu(0) + offset,
    exactly the offset on the shift family at coef 1; "L" = log E_theta e^{r x}
    = r mu + g^2 / 2 and "L'" = r (mu' + g s'); "m" = B + coef s rho, the tilted
    mean of theta* - theta, with rho = g e + k e^{-g^2/2} the tilted mean of z
    ((e, k) = (1, 0)) or of |z| ((erf(g / sqrt 2), sqrt(2 / pi))), and "m'" =
    coef mu' - 1 + coef s' (rho + g e), as d rho / dg = e; "var" = (coef s)^2
    (1 + g^2 - rho^2), n times the tilted variance of theta* - theta."""
    r, c = _weight_rate(model, wf, est)
    if root:
        r, c = r / 2.0, math.sqrt(c)
    (mu1, mu0), (s1, s0) = model.location_scale
    mu, s = mu1 * th + mu0, s1 * th + s0
    g, cs = r * s, est.coef * s
    e, k = (1.0, 0.0) if est.statistic == "S" else \
        (erf(g / math.sqrt(2.0)), math.sqrt(2.0 / math.pi))
    rho = g * e + k * np.exp(-g * g / 2.0)
    b = (est.coef * mu1 - 1.0) * th + est.coef * mu0 + est.offset
    return {"c": c, "s": s, "g": g, "B": b, "m": b + cs * rho,
            "L": r * mu + g * g / 2.0, "L'": r * (mu1 + g * s1),
            "m'": est.coef * mu1 - 1.0 + est.coef * s1 * (rho + g * e),
            "var": cs * cs * (1.0 + g * g - rho * rho)}


def _bias(model, wf, est, n, theta, root: bool = False) -> tuple:
    """(E^n, b, b') at theta in closed form: E = E_theta phi, b = W - E^n theta
    with W = E_theta[phi^{(n)} theta*], and b' = db/dtheta.  With ``root`` the
    weight is phi^{1/2}, and they are version B's (s^n, c, c').  From ``_tilt``:
    E^n = c^n e^{n L}, b = E^n m and b' = E^n (n L' m + m')."""
    t = _tilt(model, wf, est, theta, root)
    p_n = t["c"] ** n * np.exp(n * t["L"])
    return p_n, p_n * t["m"], p_n * (n * t["L'"] * t["m"] + t["m'"])


def _closed_at(model, wf, est, th) -> dict:
    """E, V, I, s and I1 of ``_at_theta`` at theta (a number or an array) in
    closed form from ``_tilt``: E = c e^L, V = L' E and s = sqrt(c) e^{L(r/2)}.
    The score is (mu' w + s' (w^2 - 1)) / s at x = mu + s w, so with w ~ N(g, 1)
    under the tilt I = E (mu'^2 (1 + g^2) + 2 mu' s' g (g^2 + 2) + s'^2 (g^4 +
    4 g^2 + 2)) / s^2, and I1 is the same at g = 0 without E."""
    (mu1, _), (s1, _) = model.location_scale
    t = _tilt(model, wf, est, th)
    info = lambda g: (mu1 * mu1 * (1.0 + g * g) + 2.0 * mu1 * s1 * g * (g * g + 2.0)
                      + s1 * s1 * (g * g * g * g + 4.0 * g * g + 2.0)) / (t["s"] * t["s"])
    e = t["c"] * np.exp(t["L"])
    root = _tilt(model, wf, est, th, root=True)
    return {"E": e, "V": t["L'"] * e, "I": e * info(t["g"]), "I1": info(0.0 * t["g"]),
            "s": root["c"] * np.exp(root["L"])}


def _exact_lhs(model, wf, est, n, thetas, weights) -> float:
    """sum_k w_k E_{theta_k}[phi^{(n)} (theta* - theta_k)^2] in closed form: under
    the tilt theta* - theta has mean m and variance var / n (``_tilt``), so each
    node reads E^n (m^2 + var / n)."""
    t = _tilt(model, wf, est, np.asarray(thetas, dtype=float))
    return float(np.dot(weights, t["c"] ** n * np.exp(n * t["L"]) * (t["m"] ** 2 + t["var"] / n)))


def _block_sums(est, n, rows, keys, seed, k) -> np.ndarray:
    """(len(keys), 2): the sums of F and F^2 over the ``rows`` draws of block k
    (the generator of spawn key (k,)) for each (g, s, B) of ``keys``, with
    F = (B + coef s T / n)^2 and T = sum z (statistic S) or sum |z| (A) over n
    tilted z ~ N(g, 1).  S draws T / n = g + Z / sqrt(n); A draws one (rows, n)
    standard-normal block w and sums |w + g| per row for each distinct g (in
    place for one).  Only numpy runs here, so blocks run in threads."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(k,)))
    z = rng.standard_normal(rows if est.statistic == "S" else (rows, n))
    reads = {g: (z, est.coef / math.sqrt(n), est.coef * g) for g, _, _ in keys}
    if est.statistic == "A":
        y = z if len(reads) == 1 else np.empty_like(z)
        for g in reads:  # einsum: ~3x faster than y.sum(axis=1) for short rows
            reads[g] = np.einsum("ij->i", np.abs(np.add(z, g, out=y), out=y)), est.coef / n, 0.0
    out = np.empty((len(keys), 2))
    for j, (g, s, b) in enumerate(keys):
        t, scale, shift = reads[g]
        f = np.multiply(scale * s, t)
        f += b + shift * s
        f *= f
        out[j] = float(f.sum()), float(np.multiply(f, f, out=f).sum())
    return out


def _mc_sums(model, wf, thetas, n, est, trials, seed) -> np.ndarray:
    """(len(thetas), 2): the sums over ``trials`` draws of v and v^2, with v =
    phi^{(n)}(X) |theta*(X) - theta|^2 at each theta of ``thetas``, read under the
    tilt as E^n F (``_tilt``: E^n = c^n e^{n L}; F of ``_block_sums``); thetas that
    share (g, s, B) share one F (all of the shift family's, at coef 1).  Blocks of
    ``_MC_BLOCK`` normals run on a thread per core, ``_MC_WINDOW`` at a time, and
    are summed in block order, so the sums do not depend on the core count."""
    t = _tilt(model, wf, est, np.asarray(thetas, dtype=float))
    keys = {}
    group = [keys.setdefault(key, len(keys))
             for key in zip(t["g"].tolist(), t["s"].tolist(), t["B"].tolist())]
    rows = _MC_BLOCK if est.statistic == "S" else max(1, _MC_BLOCK // n)
    blocks = -(-trials // rows)
    block = lambda k: _block_sums(est, n, min(rows, trials - k * rows), keys, seed, k)
    with concurrent.futures.ThreadPoolExecutor(min(len(os.sched_getaffinity(0)), blocks)) as pool:
        sums = sum(part for lo in range(0, blocks, _MC_WINDOW)
                   for part in pool.map(block, range(lo, min(lo + _MC_WINDOW, blocks))))
    u = t["c"] ** n * np.exp(n * t["L"])
    return sums[group] * np.column_stack([u, u * u])


# ---------------------------------------------------------------------------
# Cramer-Rao and van Trees bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CramerRaoResult:
    version: str
    theta: Optional[float]              # None for a van Trees row
    n: int
    lhs: float
    lhs_stderr: float
    rhs: float
    lhs_exact: Optional[float] = None   # the closed form of lhs (``_exact_lhs``)
    details: dict = field(default_factory=dict)

    @property
    def holds_3sigma(self) -> bool:
        return self.lhs >= self.rhs - 3.0 * self.lhs_stderr


# what each version reads (see ``_at_theta``): R of version A and the T of
# version C share theirs, and read V for grad E
_READS = {"A": ["E", "V", "I"], "B": ["s", "I1"], "C": ["E", "V", "I"]}


def _rhs(version: str, at: dict, n: int, bp) -> tuple:
    """(rhs, details) elementwise over the nodes: R(theta, n) of version A from
    E, grad E = V and I_phi, or S(theta, n) of version B from s and the
    unweighted information; ``bp`` is b' (A) or c' (B) (``_bias``)."""
    if version == "B":
        s, info = at["s"], at["I1"]
        return (s ** n + bp) ** 2 / (n * info), {"s": s, "I": info, "c_prime": bp}
    e, ep, info = at["E"], at["V"], at["I"]
    denom = n * info * e ** (n - 1) + n * (n - 1) * ep * ep * e ** (n - 2)
    return (e ** n + bp) ** 2 / denom, {"E": e, "E_prime": ep, "I_w": info, "bias_prime": bp}


def _bounds(model, wf, n, est, nodes, weights, prior, versions, cfg, trials, seed) -> tuple:
    """One ``CramerRaoResult`` per entry of ``versions``, all sharing one lhs,
    sum_k w_k E_{theta_k}[phi^{(n)} (theta* - theta_k)^2] over the nodes theta_k
    and weights w_k: versions A and B average the pointwise rhs over them, and
    version C needs the ``prior``.  Rows A and B report the node averages of
    their rhs terms (``details``); with no prior the one node is theta.

    The nodes read E, V, I_phi, s and I1 in closed form (``_closed_at``).  One
    integration call at the middle node checks them: the interchange identities
    with grad E the closed-form V (``_regular``), then each closed form to 1e-9
    max(1, |value|), with E as the scale for V (exactly 0 under a constant
    weight).  Any failure is a RegularityError before the draw, and a node
    outside the model's domain is refused before any integral.  The lhs comes
    from one ``_mc_sums`` draw at ``seed``; the sum of the node stderrs
    (ddof = 1) bounds its stderr, and is it exactly when the nodes share one
    array of values up to a factor (all of the shift family's, at coef 1)."""
    if model.d != 1:
        raise IllegalParameterError("deviation bounds implemented for scalar theta")
    if n < 1:
        raise IllegalParameterError("n must be >= 1")
    if trials < 2:
        raise IllegalParameterError("trials must be >= 2")
    _weight_rate(model, wf, est)  # refuses what the Monte Carlo cannot draw
    for t in nodes:
        model.check(float(t))
    mid = len(nodes) // 2
    quad = _at_theta(model, wf, float(nodes[mid]), cfg,
                     ["E", "V", "U"] + [k for v in versions for k in _READS[v]])
    at = _closed_at(model, wf, est, nodes)
    _regular({**quad, "E'": at["V"][mid]})
    for kind in (k for k in at if k in quad):
        gap = float(np.max(np.abs(at[kind][mid] - quad[kind])))
        if gap > 1e-9 * max(1.0, abs(quad["E" if kind == "V" else kind])):
            raise RegularityError(f"closed-form {kind} misses quadrature by {gap:.2e}")
    sums = _mc_sums(model, wf, nodes.tolist(), n, est, trials, seed)
    var = np.maximum(sums[:, 1] - sums[:, 0] ** 2 / trials, 0.0) / (trials - 1)
    lhs, lhs_se = float(weights @ sums[:, 0]) / trials, float(weights @ np.sqrt(var / trials))
    lhs_exact = _exact_lhs(model, wf, est, n, nodes, weights)
    theta = float(nodes[0]) if prior is None else None
    results = []
    for version in versions:
        if version == "C":
            e_pow = at["E"] ** n
            j_term = float(weights @ (e_pow * prior.grad_log_pdf(nodes) ** 2))
            t_val = j_term + n * float(weights @ (at["I"] + (n - 1) * at["V"] ** 2))
            rhs = float(weights @ e_pow) ** 2 / t_val
            details = {"T": t_val, "prior_information": j_term}
        else:
            rhs, details = _rhs(version, at, n, _bias(model, wf, est, n, nodes, version == "B")[2])
            rhs = float(weights @ rhs)
            details = {k: float(weights @ x) for k, x in details.items()}
        results.append(CramerRaoResult(version, theta, n, lhs, lhs_se, rhs, lhs_exact, details))
    return tuple(results)


def cramer_rao(model: ParametricModel, wf: WeightFunction, theta: float, n: int,
               est: EstimatorSpec, versions: Sequence[str], cfg: IntegrationConfig,
               trials: int = 1_000_000, seed: int = 0) -> tuple:
    """lhs = E[phi^{(n)} |theta* - theta|^2] against R(theta, n) (version A) and
    S(theta, n) (B): one ``CramerRaoResult`` per entry of ``versions``.  It is
    the van Trees path (``_bounds``) at the one node theta, with weight 1 and no
    prior: the versions share one Monte Carlo draw at ``seed``, and read their
    integrals in closed form, checked against one integration call at theta."""
    if not versions or not set(versions) <= {"A", "B"}:
        raise IllegalParameterError("version must be A or B")
    return _bounds(model, wf, n, est, np.array([theta], dtype=float), np.ones(1), None,
                   tuple(versions), cfg, trials, seed)


# ---------------------------------------------------------------------------
# van Trees priors
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


def van_trees(model: ParametricModel, wf: WeightFunction, n: int,
              est: EstimatorSpec, prior: PriorSpec, versions: Sequence[str],
              cfg: IntegrationConfig, trials: int = 200_000, seed: int = 0) -> tuple:
    """Prior-averaged weighted quadratic deviation against versions A/B/C:
    one ``CramerRaoResult`` per entry of ``versions`` (``theta`` None), all
    sharing one lhs.

    lhs integrates the per-theta Monte Carlo deviation over the prior's
    quadrature nodes with common random numbers across them; versions A and B
    average the pointwise rhs of ``cramer_rao`` over the prior, and version C
    uses the weighted Fisher information density of the prior (``_bounds``).
    """
    versions = tuple(versions)
    if not versions or any(v not in ("A", "B", "C") for v in versions):
        raise IllegalParameterError("version must be A, B, or C")
    return _bounds(model, wf, n, est, *prior.quadrature(), prior, versions, cfg, trials, seed)
