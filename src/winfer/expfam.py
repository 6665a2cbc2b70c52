"""Exponential-family machinery: log-normalizers, the weight-adjoint family,
Bregman / Burbea-Rao identities, and the built-in family catalog.

A family member is ``p_theta(x) = exp(theta . t(x) - F(theta) + k(x))`` with
natural parameter ``theta`` stored as a flat vector (the multivariate Gaussian
flattens its precision block).  Public constructors take conventional
parameters (lam, beta, mu, sigma2, Sigma); the natural coordinates stay
internal.

Weighting by phi produces the adjoint family with carrier ``k + ln phi`` and
log-normalizer ``F*(theta) = F(theta) + ln E_phi(theta)``.  As ``grad E_phi =
E_theta[phi (t - grad F)]``, ``grad F* = M / E_phi`` with ``M(theta) =
E_theta[phi t]``, the phi-weighted mean of the sufficient statistic.  Every
weighted divergence/entropy closed form below is assembled from F and the pair
(E_phi, M), computed in one place:

* a constant or exponential weight phi(x) = e^{g.x} shifts the natural
  parameter (the family's moment-generating function): ``phi p_theta =
  E_phi(theta) p_theta'`` with ``theta' = theta + g`` on x's statistics, so
  ``E_phi = e^{F(theta') - F(theta)}`` and ``M = E_phi grad F(theta')``; a
  theta' outside the domain (gamma's g >= beta, the exponential's g >= lam) is
  refused;
* a polynomial weight sum_k c_k x^k, or |x| = x sign x, gives ``(E_phi, M) =
  c @ moments``, the family's raw moments E[x^k (1, t(x))];
* a vector weight that does not tilt (a product weight) has no closed form:
  E_phi and M are summed on one Gauss-Hermite mesh.

Closed forms for the weighted total variation between unit-variance Gaussians
N(0,1), N(a,1) are provided for the quadratic / absolute / exponential weight
specs.  The corrected expressions (verified against adaptive quadrature) are
the primary values; the ``as_printed`` flag reproduces instead the widely
circulated variants, which actually evaluate the one-sided supremum
``sup_A [int_A phi dQ - int_A phi dP] = tau + (E_phi(q) - E_phi(p))/2`` for
the quadratic and absolute weights and are inconsistent even at gamma = 0 for
the exponential weight.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import digamma, erf, gammaln

from .core import (
    Distribution,
    IntegrationConfig,
    WeightFunction,
    gauss_hermite_nodes,
    integrate,
    mesh_coords,
    mesh_density,
    mesh_weight,
)
from .divergence import _mass
from .errors import (
    IllegalParameterError,
    NonConvergentIntegralError,
    ParameterOutOfDomainError,
    overflow_refused,
)

__all__ = [
    "CATALOG",
    "ExponentialFamily",
    "ExpFamilyMember",
    "AdjointFamily",
    "catalog_family",
    "bregman",
    "weighted_bregman",
    "expfam_kl",
    "expfam_shannon",
    "expfam_renyi",
    "burbea_rao",
    "expfam_chernoff",
    "expfam_bhattacharyya",
    "CLOSED_FORMS",
    "adjoint_coefficients",
    "gaussian_tv_closed_form",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ExponentialFamily:
    """Sufficient statistic, carrier, log-normalizer, and parameter maps.

    Members are built by ``constructor``, the family's ``Distribution``
    catalog constructor, which owns the density, sampler, support, envelope
    and parameter checks.  ``contains`` also checks the size of theta.
    ``moments(theta, K, signed)`` are the rows E_theta[x^k (1, t(x))], k <= K,
    with x^k sign x when ``signed``; the vector Gaussian has none.
    """

    name: str
    constructor: Callable             # conventional params -> Distribution
    t: Callable                       # x -> (N, dim) sufficient statistics
    k: Callable                       # x -> (N,) carrier values
    F: Callable                       # theta -> float log-normalizer
    grad_F: Callable                  # theta -> (dim,) gradient
    contains: Callable                # theta -> bool natural-domain test
    to_natural: Callable              # conventional params dict -> theta
    from_natural: Callable            # theta -> conventional params dict
    zero_carrier: bool = True
    x_sign: float = 1.0               # x = x_sign * t(x)[:x.size]
    x_shape: Callable = lambda th: ()  # theta -> the shape of one outcome x
    moments: Optional[Callable] = None  # (theta, K, signed) -> (K + 1, 1 + dim) raw moments

    def check(self, theta) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        if not self.contains(theta):
            raise ParameterOutOfDomainError(
                f"{self.name}: natural parameter outside the domain")
        return theta

    def distribution(self, theta) -> Distribution:
        return self.constructor(**self.from_natural(theta))


@dataclass(frozen=True)
class ExpFamilyMember:
    family: ExponentialFamily
    theta: np.ndarray
    params: dict

    @functools.cached_property
    def dist(self) -> Distribution:
        """The member's Distribution, built once; integrals are memoized per
        ``HypothesisProblem``, not here."""
        return self.family.distribution(self.theta)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _zero_carrier(x):
    return np.zeros(np.atleast_1d(x).shape[0])


def _exponential_family() -> ExponentialFamily:
    # p_lam(x) = lam e^{-lam x}: theta = lam, t(x) = -x, k = 0, F = -ln lam
    def t(x):
        return -np.atleast_1d(np.asarray(x, dtype=float))[:, None]

    return ExponentialFamily(
        name="exponential", constructor=Distribution.exponential,
        t=t, k=_zero_carrier,
        F=lambda th: -math.log(th[0]),
        grad_F=lambda th: np.array([-1.0 / th[0]]),
        contains=lambda th: th.size == 1 and th[0] > 0,
        to_natural=lambda p: np.array([float(p["lam"])]),
        from_natural=lambda th: {"lam": float(th[0])}, x_sign=-1.0,
        # exponential(lam) is gamma(1, lam), and t = -x
        moments=lambda th, kmax, signed: _gamma_moments(1.0, float(th[0]), kmax)[:, :2] * (1, -1))


def _poisson_family() -> ExponentialFamily:
    # p_lam(l) = e^{-lam} lam^l / l!: theta = ln lam, t = l, k = -ln l!, F = e^theta
    def t(x):
        return np.atleast_1d(np.asarray(x, dtype=float))[:, None]

    def k(x):
        return -gammaln(np.atleast_1d(np.asarray(x, dtype=float)) + 1.0)

    def moments(th, kmax, signed):
        # Touchard: E[L^{k+1}] = lam sum_j C(k, j) E[L^j]; |l| = l
        lam, m = math.exp(th[0]), [1.0]
        for k in range(kmax + 1):
            m.append(lam * sum(math.comb(k, j) * m[j] for j in range(k + 1)))
        _positive(m, range(len(m)))
        return np.array([m[:-1], m[1:]]).T

    return ExponentialFamily(
        name="poisson", constructor=Distribution.poisson,
        t=t, k=k,
        F=lambda th: math.exp(th[0]),
        grad_F=lambda th: np.array([math.exp(th[0])]),
        contains=lambda th: th.size == 1 and np.isfinite(th[0]),
        to_natural=lambda p: np.array([math.log(float(p["lam"]))]),
        from_natural=lambda th: {"lam": math.exp(float(th[0]))},
        zero_carrier=False, moments=moments)


def _gaussian_scalar_family() -> ExponentialFamily:
    # theta = (mu/sigma2, -1/(2 sigma2)), t = (x, x^2), k = 0
    def t(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.stack([x, x * x], axis=-1)

    def F(th):  # a Python float's ** raises OverflowError past the float range
        return -float(th[0]) ** 2 / (4.0 * th[1]) + 0.5 * math.log(math.pi / (-th[1]))

    def grad_F(th):
        mu = -th[0] / (2.0 * th[1])
        s2 = -1.0 / (2.0 * th[1])
        return np.array([mu, s2 + mu * mu])

    def from_nat(th):
        s2 = -1.0 / (2.0 * th[1])
        return {"mu": float(-th[0] / (2.0 * th[1])), "sigma2": float(s2)}

    def moments(th, kmax, signed):
        # m_k = mu m_{k-1} + (k-1) s2 m_{k-2} (Stein's identity); with sign x it
        # starts from E[sign x] = erf(mu / sqrt(2 s2)) and E|x| = mu m_0 + 2 s2 p(0)
        p = from_nat(th)
        mu, s2 = p["mu"], p["sigma2"]
        m = [1.0, mu]
        if signed:
            m[0] = erf(mu / math.sqrt(2.0 * s2))
            m[1] = mu * m[0] + math.sqrt(2.0 * s2 / math.pi) * math.exp(-mu * mu / (2.0 * s2))
        for k in range(2, kmax + 3):
            m.append(mu * m[k - 1] + (k - 1) * s2 * m[k - 2])
        _positive(m, range(1 if signed else 0, len(m), 2))  # E[x^2j], or E|x|^(2j+1)
        return np.array([m[:-2], m[1:-1], m[2:]]).T

    return ExponentialFamily(
        name="gaussian-scalar", constructor=Distribution.gaussian,
        t=t, k=_zero_carrier,
        F=F, grad_F=grad_F,
        contains=lambda th: th.size == 2 and th[1] < 0,
        to_natural=lambda p: np.array([float(p["mu"]) / float(p["sigma2"]),
                                       -0.5 / float(p["sigma2"])]),
        from_natural=from_nat, moments=moments)


def _pack_mv(eta: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return np.concatenate([eta, lam.reshape(-1)])


def _unpack_mv(theta: np.ndarray):
    """(eta, symmetrized precision block) of a flat theta of size d + d^2 (the
    reshape raises ValueError when no d fits)."""
    d = (math.isqrt(4 * theta.size + 1) - 1) // 2
    lam = theta[d:].reshape(d, d)
    return theta[:d], 0.5 * (lam + lam.T)


def _gaussian_mv_family() -> ExponentialFamily:
    # theta = (Sigma^{-1} mu, vec(-Sigma^{-1}/2)), t = (x, vec(x x^T)), k = 0;
    # d is read off the size of x or theta
    def t(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        n, d = x.shape
        outer = np.einsum("ni,nj->nij", x, x).reshape(n, d * d)
        return np.concatenate([x, outer], axis=1)

    def contains(th):
        try:
            np.linalg.cholesky(-2.0 * _unpack_mv(th)[1])
        except (ValueError, np.linalg.LinAlgError):
            return False
        return True

    def F(th):
        eta, lam = _unpack_mv(th)
        lam_inv = np.linalg.inv(lam)
        sign, logdet = np.linalg.slogdet(-lam)
        if sign <= 0:
            raise ParameterOutOfDomainError("precision block not negative-definite")
        return float(-0.25 * eta @ lam_inv @ eta + 0.5 * eta.size * math.log(math.pi)
                     - 0.5 * logdet)

    def from_nat(th):
        eta, lam = _unpack_mv(th)
        sigma = -0.5 * np.linalg.inv(lam)
        return {"mean": sigma @ eta, "cov": sigma}

    def grad_F(th):
        p = from_nat(th)
        return _pack_mv(p["mean"], p["cov"] + np.outer(p["mean"], p["mean"]))

    def to_nat(p):
        mean = np.asarray(p["mean"], dtype=float)
        cov = np.asarray(p["cov"], dtype=float)
        prec = np.linalg.inv(cov)
        return _pack_mv(prec @ mean, -0.5 * prec)

    return ExponentialFamily(
        name="gaussian-multivariate", constructor=Distribution.gaussian_mv,
        t=t, k=lambda x: np.zeros(np.atleast_2d(x).shape[0]),
        F=F, grad_F=grad_F, contains=contains,
        to_natural=to_nat, from_natural=from_nat,
        x_shape=lambda th: _unpack_mv(th)[0].shape)


def _gamma_family() -> ExponentialFamily:
    # theta = (-beta, lam - 1), t = (x, ln x), k = 0, F = ln Gamma(lam) - lam ln beta
    def t(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore"):
            return np.stack([x, np.log(x)], axis=-1)

    def F(th):
        lam, beta = th[1] + 1.0, -th[0]
        return float(gammaln(lam) - lam * math.log(beta))

    def grad_F(th):
        lam, beta = th[1] + 1.0, -th[0]
        return np.array([lam / beta, digamma(lam) - math.log(beta)])

    return ExponentialFamily(
        name="gamma", constructor=Distribution.gamma,
        t=t, k=_zero_carrier,
        F=F, grad_F=grad_F,
        contains=lambda th: th.size == 2 and th[0] < 0 and th[1] > -1,
        to_natural=lambda p: np.array([-float(p["beta"]), float(p["lam"]) - 1.0]),
        from_natural=lambda th: {"lam": float(th[1] + 1.0), "beta": float(-th[0])},
        moments=lambda th, kmax, signed: _gamma_moments(float(th[1]) + 1.0, -float(th[0]), kmax))


def _gamma_moments(lam: float, beta: float, kmax: int) -> np.ndarray:
    """Rows E[x^k (1, x, ln x)], k <= kmax, of gamma(lam, beta), whose |x| is x:
    E[x^k] = Gamma(lam + k) / (Gamma(lam) beta^k), and x^k p / E[x^k] is
    gamma(lam + k, beta), so E[x^k ln x] = E[x^k] (psi(lam + k) - ln beta)."""
    m = [1.0]
    for k in range(kmax + 1):
        m.append(m[k] * (lam + k) / beta)
    _positive(m, range(len(m)))
    return np.array([m[:-1], m[1:], [v * (digamma(lam + k) - math.log(beta))
                                     for k, v in enumerate(m[:-1])]]).T


def _positive(m: list, ks) -> None:
    """Refuse raw moments ``m`` whose m[k], k in ``ks``, > 0 in exact arithmetic,
    underflowed to 0 or a subnormal (2 / lam^2 at lam = 1e200)."""
    if any(abs(m[k]) < np.finfo(float).tiny for k in ks):
        raise NonConvergentIntegralError("closed form underflows: a raw moment is 0 or subnormal")


# The exponential-family catalog: every name a spec may use, and its family.
CATALOG = {fam.name: fam for fam in (
    _exponential_family(), _poisson_family(), _gaussian_scalar_family(),
    _gaussian_mv_family(), _gamma_family())}


def catalog_family(name: str, **params) -> ExpFamilyMember:
    """Instantiate a catalog family member from conventional parameters.

    Names: exponential(lam), poisson(lam), gaussian-scalar(mu, sigma2),
    gaussian-multivariate(mean, cov), gamma(lam, beta).  The family's
    ``Distribution`` constructor checks the parameters; a missing or unknown
    parameter name is an ``IllegalParameterError`` too.
    """
    fam = CATALOG.get(name) if isinstance(name, str) else None
    if fam is None:
        raise IllegalParameterError(f"unknown family {name!r}; catalog: {tuple(CATALOG)}")
    try:
        checked = fam.constructor(**params)
    except TypeError as exc:  # a missing or unknown parameter name
        raise IllegalParameterError(f"{name}: {exc}") from None
    theta = fam.check(fam.to_natural(checked.params))
    return ExpFamilyMember(family=fam, theta=theta, params=dict(params))


# ---------------------------------------------------------------------------
# adjoint family (weight absorbed into the carrier)
# ---------------------------------------------------------------------------

def _tilt(fam: ExponentialFamily, wf: WeightFunction, theta: np.ndarray):
    """(c, theta') with ``phi p_theta = c e^{F(theta') - F(theta)} p_theta'``:
    (c, theta) for a constant weight c, (1, theta + x_sign g on x's
    statistics) for phi(x) = e^{g.x}; None for any other weight or a rate not
    shaped like one outcome x."""
    if wf.kind == "constant":
        return wf.c, theta
    if wf.kind != "exponential" or np.shape(wf.gamma) != fam.x_shape(theta):
        return None
    g = np.ravel(wf.gamma)
    shifted = theta.copy()
    shifted[:g.size] += fam.x_sign * g
    if not fam.contains(shifted):
        raise ParameterOutOfDomainError(f"{fam.name}: the weight's rate leaves the natural domain")
    return 1.0, shifted


@overflow_refused
def _weighted_stat(fam: ExponentialFamily, wf: WeightFunction,
                   theta: np.ndarray) -> Optional[tuple]:
    """(E_phi(theta), M(theta) = E_theta[phi t]) in closed form, or None.

    A constant or exponential weight tilts theta (``_tilt``): E_phi = c
    e^{F(theta') - F(theta)} and M = E_phi grad F(theta').  A polynomial sum_k
    c_k x^k, or |x| = x sign x, reads the family's raw moments: (E_phi, M) =
    c @ ``fam.moments``.  Any other weight, or a family without moments, has
    no closed form.  A moment past the float range is refused.
    """
    tilt = _tilt(fam, wf, theta)
    with np.errstate(over="ignore", invalid="ignore"):
        if tilt is not None:
            c, shifted = tilt
            e = c if shifted is theta else c * math.exp(fam.F(shifted) - fam.F(theta))
            m = e * fam.grad_F(shifted)
        elif wf.kind in ("polynomial", "absolute") and fam.moments is not None:
            c = np.asarray(wf.coeffs if wf.kind == "polynomial" else (0.0, 1.0), dtype=float)
            em = c @ fam.moments(theta, c.size - 1, wf.kind == "absolute")
            e, m = em[0], em[1:]
        else:
            return None
    if not (math.isfinite(e) and np.isfinite(m).all()):
        raise NonConvergentIntegralError("closed form overflows: a weighted moment is not finite")
    return float(e), m


def _mesh_stat(fam: ExponentialFamily, wf: WeightFunction, theta: np.ndarray) -> tuple:
    """(E_phi, M) of a Gaussian vector, t = (x, vec(x x^T)), summed on one
    level-48 Gauss-Hermite rule: a vector weight that does not tilt (a
    product weight) has no closed form."""
    dist = fam.distribution(theta)
    wf.check_fits(dist.support)
    rule = gauss_hermite_nodes(dist.center, 2.0 * dist.scale, 48)
    xs = mesh_coords(rule)
    v = (mesh_weight(rule, wf) * mesh_density(rule, dist)).reshape((48,) * len(xs))
    return float(np.sum(v)), _pack_mv(np.array([np.sum(v * x) for x in xs]),
                                      np.array([[np.sum(v * x * y) for y in xs] for x in xs]))


@dataclass(frozen=True)
class AdjointFamily:
    """Exponential family with the weight folded into the carrier.

    ``F_star(theta) = F(theta) + ln E_phi(theta)``, ``grad F* = M / E_phi`` (the
    pair of ``weight_stat``) and ``k_star(x) = k(x) + ln phi(x)`` wherever phi > 0.
    """

    base: ExponentialFamily
    wf: WeightFunction
    cfg: IntegrationConfig = field(default_factory=IntegrationConfig)
    # (E_phi, M) by the bytes of theta: a report's closed forms share their thetas
    _stats: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def weight_mass(self, theta) -> float:
        return self.weight_stat(theta)[0]

    def weight_stat(self, theta) -> tuple:
        """(E_phi(theta), M(theta)), refused with ``ZeroWeightMassError`` when
        E_phi <= 0; M is read-only."""
        theta = self.base.check(theta)
        key = theta.tobytes()
        if key not in self._stats:
            e, m = _weighted_stat(self.base, self.wf, theta) or _mesh_stat(self.base, self.wf, theta)
            m.flags.writeable = False
            self._stats[key] = _mass(e), m
        return self._stats[key]

    def log_weight_mass(self, theta) -> float:
        return math.log(self.weight_mass(theta))

    def grad_log_weight_mass(self, theta) -> np.ndarray:
        return self.grad_F_star(theta) - self.base.grad_F(self.base.check(theta))

    def F_star(self, theta) -> float:
        return self.base.F(theta) + self.log_weight_mass(theta)

    def grad_F_star(self, theta) -> np.ndarray:
        e, m = self.weight_stat(theta)
        return m / e

    def k_star(self, x) -> np.ndarray:
        return self.base.k(x) + self.wf.log_value(x)


# ---------------------------------------------------------------------------
# divergence/entropy closed forms
# ---------------------------------------------------------------------------

def bregman(F: Callable, grad_F: Callable, theta_p, theta) -> float:
    """B_F(theta', theta) = F(theta') - F(theta) - <theta' - theta, grad F(theta)>."""
    theta_p = np.atleast_1d(np.asarray(theta_p, dtype=float))
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    return float(F(theta_p) - F(theta) - (theta_p - theta) @ grad_F(theta))


def weighted_bregman(adj: AdjointFamily, theta_p, theta) -> float:
    """E_phi(theta) [F(theta') - F(theta) - <theta' - theta, grad F*(theta)>],
    that is E_phi (F(theta') - F(theta)) - <theta' - theta, M(theta)>.

    Coincides with the weighted KL divergence K_phi(p_theta || p_theta').
    """
    fam = adj.base
    theta_p = fam.check(theta_p)
    theta = fam.check(theta)
    e, m = adj.weight_stat(theta)
    return float(e * (fam.F(theta_p) - fam.F(theta)) - (theta_p - theta) @ m)


def expfam_kl(adj: AdjointFamily, theta, theta_p) -> float:
    """Closed-form weighted KL of p_theta from p_theta' (note the orientation)."""
    return weighted_bregman(adj, theta_p, theta)


def expfam_shannon(adj: AdjointFamily, theta) -> float:
    """Weighted Shannon entropy E_phi(theta)[F - theta . grad F*] = E_phi F -
    theta . M, plus the carrier correction -int phi p_theta k (zero for
    zero-carrier families)."""
    fam = adj.base
    theta = fam.check(theta)
    e, m = adj.weight_stat(theta)
    val = e * fam.F(theta) - theta @ m
    if not fam.zero_carrier:
        dist = fam.distribution(theta)
        corr, _ = integrate(
            lambda x: adj.wf(x) * dist.density(x) * (-fam.k(x)),
            dist.support, adj.cfg, dists=(dist,), wf=adj.wf)
        val += corr
    return float(val)


def expfam_renyi(adj: AdjointFamily, theta, alpha: float) -> float:
    """Weighted Renyi alpha-entropy via the log-normalizer route.

    Zero-carrier families use
        E/(1-a) [ln E_phi(a theta) + F(a theta) - a F(theta) - ln E_phi(theta)];
    otherwise the generic transform with the exp((a-1) k) correction factor.
    """
    fam = adj.base
    theta = fam.check(theta)
    if not 0 < alpha < 1:
        raise IllegalParameterError("alpha must lie in (0, 1)")
    a_theta = alpha * theta
    if not fam.contains(a_theta):
        raise ParameterOutOfDomainError("alpha * theta left the natural domain")
    ep = adj.weight_mass(theta)
    if fam.zero_carrier:
        e_alpha = adj.weight_mass(a_theta)
        val = math.log(e_alpha) + fam.F(a_theta) - alpha * fam.F(theta) - math.log(ep)
        return ep / (1.0 - alpha) * val
    tilted = fam.distribution(a_theta)

    def corr_term(x):
        # assembled in log space: the (alpha-1) k factor can overflow on its
        # own long after the tilted density has underflowed
        log_t = adj.wf.log_value(x) + tilted.log_density(x) + (alpha - 1.0) * fam.k(x)
        return np.exp(log_t)

    corr, _ = integrate(corr_term, tilted.support, adj.cfg, dists=(tilted,), wf=adj.wf)
    log_j = fam.F(a_theta) - alpha * fam.F(theta) + math.log(corr)
    return ep / (1.0 - alpha) * (log_j - math.log(ep))


def burbea_rao(F: Callable, theta, theta_p, alpha: float) -> float:
    """Jensen gap a F(theta) + (1-a) F(theta') - F(a theta + (1-a) theta')."""
    if not 0 < alpha < 1:
        raise IllegalParameterError("alpha must lie in (0, 1)")
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    theta_p = np.atleast_1d(np.asarray(theta_p, dtype=float))
    mix = alpha * theta + (1.0 - alpha) * theta_p
    return float(alpha * F(theta) + (1.0 - alpha) * F(theta_p) - F(mix))


def expfam_chernoff(adj: AdjointFamily, theta, theta_p, alpha: float) -> float:
    """Weighted Chernoff divergence U_{F,a} - ln E_phi(mix) + ln E_phi(theta)."""
    fam = adj.base
    theta = fam.check(theta)
    theta_p = fam.check(theta_p)
    mix = alpha * theta + (1.0 - alpha) * theta_p
    if not fam.contains(mix):
        raise ParameterOutOfDomainError("parameter mixture left the natural domain")
    u = burbea_rao(fam.F, theta, theta_p, alpha)
    return u - math.log(adj.weight_mass(mix)) + math.log(adj.weight_mass(theta))


def expfam_bhattacharyya(adj: AdjointFamily, theta, theta_p) -> float:
    """Weighted Bhattacharyya divergence = Chernoff divergence at alpha = 1/2."""
    return expfam_chernoff(adj, theta, theta_p, 0.5)


# quantity (a name of divergence.QUANTITIES) -> its closed form at
# (adjoint, theta_p, theta_q, alpha)
CLOSED_FORMS = {
    "kl": lambda adj, th, th2, a: expfam_kl(adj, th, th2),
    "shannon-entropy": lambda adj, th, th2, a: expfam_shannon(adj, th),
    "renyi-entropy": lambda adj, th, th2, a: expfam_renyi(adj, th, a),
    "chernoff-div": lambda adj, th, th2, a: expfam_chernoff(adj, th, th2, a),
    "bhattacharyya-div": lambda adj, th, th2, a: expfam_bhattacharyya(adj, th, th2),
}


def adjoint_coefficients(adj: AdjointFamily, theta) -> dict:
    """Family-specific weighted moment coefficients, read off (E_phi, M).

    Always contains ``E0`` (= E_phi(theta)); Gaussians add the first and
    second weighted moments E1, E2 (= M); the gamma family adds the
    linear-log moment ``L`` = -theta . M; the exponential family adds the
    Laplace transform pair of phi at lam, ``phi_hat`` = E0 / lam and
    ``phi_hat_prime`` = M / lam.
    """
    fam = adj.base
    theta = fam.check(theta)
    e, m = adj.weight_stat(theta)
    out = {"E0": e}
    if fam.name == "exponential":
        out["phi_hat"], out["phi_hat_prime"] = e / theta[0], float(m[0] / theta[0])
    elif fam.name == "gaussian-scalar":
        out["E1"], out["E2"] = m
    elif fam.name == "gaussian-multivariate":
        d = fam.x_shape(theta)[0]
        out["E1"], out["E2"] = m[:d], m[d:].reshape(d, d)
    elif fam.name == "gamma":
        out["L"] = float(-theta @ m)
    return out


# ---------------------------------------------------------------------------
# Gaussian weighted-TV closed forms (unit variance, shift a >= 0)
# ---------------------------------------------------------------------------

@overflow_refused
def gaussian_tv_closed_form(a: float, wf: WeightFunction,
                            as_printed: bool = False) -> float:
    """Weighted TV between N(0,1) and N(a,1) for the three weight specs.

    The default returns the quadrature-verified value of (1/2) E_phi(|p-q|).
    ``as_printed=True`` instead evaluates the widely circulated expressions,
    which differ for a > 0: the quadratic and absolute variants equal the
    one-sided supremum tau + (E_phi(q) - E_phi(p))/2, and the exponential
    variant is inconsistent even at gamma = 0 (it goes negative).
    """
    if a < 0:
        raise IllegalParameterError("mean shift a must be >= 0")
    e_half = erf(a / (2.0 * _SQRT2))

    if wf.kind == "polynomial" and len(wf.coeffs) == 3 and wf.coeffs[2] == 1.0:
        c, b = float(wf.coeffs[0]), float(wf.coeffs[1])
        corrected = 0.5 * (math.sqrt(2.0 / math.pi) * a * math.exp(-a * a / 8.0)
                           + (2.0 + a * a + a * b + 2.0 * c) * e_half)
        if as_printed:
            return corrected + 0.5 * a * (a + b)
        return corrected

    if wf.kind == "absolute":
        if as_printed:
            return (a / 2.0) * (1.0 + e_half)
        return (a * 0.5 * (1.0 + e_half) - (a / 2.0) * erf(a / _SQRT2)
                + (1.0 - math.exp(-a * a / 2.0)) / math.sqrt(2.0 * math.pi))

    if wf.kind == "exponential" and np.ndim(wf.gamma) == 0:
        g = float(wf.gamma)
        if as_printed:
            return math.exp((g * g + 2.0 * g * a) / 2.0) * (
                erf((a + 2.0 * g) / (2.0 * _SQRT2))
                + math.exp(-g * a) * erf((a - 2.0 * g) / (2.0 * _SQRT2)) - 2.0)
        return 0.5 * math.exp(g * g / 2.0) * (
            math.exp(g * a) * erf((a + 2.0 * g) / (2.0 * _SQRT2))
            + erf((a - 2.0 * g) / (2.0 * _SQRT2)))

    raise IllegalParameterError(
        "closed forms cover the quadratic, absolute, and exponential weights")
