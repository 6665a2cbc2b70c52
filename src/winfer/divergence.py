"""Weighted distances, divergences, and entropies between a pair of densities.

All quantities act on a ``HypothesisProblem`` (p, q, phi) sharing one support.
Finite alphabets use exact summation; countable supports use adaptive series;
continuous supports use adaptive quadrature with envelope-derived truncation.

Conventions
-----------
* 0*ln(0) := 0 and the indicator 1(p>0) guard the Kullback-Leibler integrand.
* +inf is a first-class divergence value (``math.inf``), produced by the
  support-violation test on discrete spaces or by a diverging quadrature.
* The Renyi/Tsallis alpha-divergences are normalized so that both converge to
  the weighted KL divergence as alpha -> 1 (this fixes a sign slip in one
  common way of writing the 1/(1-alpha) prefactor); alpha = 1 simply returns
  the KL value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    Distribution,
    Integrand,
    IntegrationConfig,
    Support,
    WeightFunction,
    gauss_hermite_nodes,
    integrate,
)
from .errors import (
    AlphabetTooLargeError,
    DomainMismatchError,
    IllegalParameterError,
    NonConvergentIntegralError,
    ZeroWeightMassError,
)

__all__ = [
    "HypothesisProblem",
    "DivergenceValue",
    "plan_integrals",
    "weight_mass",
    "weighted_tv",
    "weighted_tv_sup_oracle",
    "delta",
    "hellinger",
    "bhattacharyya_coeff",
    "kl",
    "chernoff_coeff",
    "chernoff_div",
    "renyi_div",
    "tsallis_div",
    "bhattacharyya_div",
    "shannon_entropy",
    "renyi_entropy",
    "renyi_entropy_ext",
]

_ORACLE_MAX_M = 20
_MV_LEVEL = 60  # tensor Gauss-Hermite level; the error comes from the gap to level 48


@dataclass(frozen=True)
class HypothesisProblem:
    """Simple hypothesis p versus simple alternative q under weight phi.

    On infinite supports ``memo`` holds the pair integrals of this problem
    that ``plan_integrals`` computed, keyed by ``(name, cfg)`` (see there),
    and on vector supports the Gauss-Hermite mesh of each level, keyed by
    ``("gauss-hermite", level)``: the arrays (p, q, phi * wr) at its nodes,
    with the rule's Lebesgue weights wr folded into phi.  It lives exactly as
    long as this instance: equal problems built separately do not share it,
    and nothing carries over from one report to the next.  Finite supports
    store nothing (the exact sums are cheaper than a lookup).
    """

    p: Distribution
    q: Distribution
    wf: WeightFunction
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.p.support.same_space(self.q.support):
            raise DomainMismatchError("p and q must share one outcome space")

    @property
    def support(self) -> Support:
        return self.p.support

    def swapped(self) -> "HypothesisProblem":
        return HypothesisProblem(p=self.q, q=self.p, wf=self.wf)

    # exact vectors for the finite-alphabet fast paths
    def tables(self):
        sup = self.support
        return (self.p.finite.pmf, self.q.finite.pmf, self.wf.table_on(sup))


@dataclass(frozen=True)
class DivergenceValue:
    value: float
    error: float = 0.0
    method: str = "exact-sum"

    def __post_init__(self):
        if self.error < 0:
            raise IllegalParameterError("error estimate must be >= 0")


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _method_for(support: Support) -> str:
    if support.kind == "finite":
        return "exact-sum"
    if support.kind == "counting":
        return "series"
    return "quadrature"


# ---------------------------------------------------------------------------
# the per-problem evaluation plan
# ---------------------------------------------------------------------------
# A pair integral of (p, q, phi) is named "tv", "hellinger", "rho", "kl" or
# ("chernoff", alpha); a single-distribution one ("mass", role),
# ("shannon", role) or ("renyi-mass", role, exponent), the role "p" or "q".

def _kl_terms(p, q, w):
    """phi p 1(p>0) ln(p/q), with a floor on q where p > 0 = q."""
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where((p > 0) & (w > 0), np.log(np.where(p > 0, p, 1.0))
                     - np.log(np.where(q > 0, q, np.finfo(float).tiny)), 0.0)
    return np.where((p > 0) & (w > 0), w * p * r, 0.0)


def _entropy_terms(d, w):
    """-phi d ln d with 0 ln 0 := 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -w * np.where(d > 0, d * np.log(np.where(d > 0, d, 1.0)), 0.0)


_PAIR_TERMS = {"tv": lambda p, q, w: w * np.abs(p - q),
               "hellinger": lambda p, q, w: w * (np.sqrt(p) - np.sqrt(q)) ** 2,
               "rho": lambda p, q, w: w * np.sqrt(p * q),
               "kl": _kl_terms,
               "chernoff": lambda p, q, w, a: w * p ** a * q ** (1 - a)}
_SINGLE_TERMS = {"mass": lambda d, w: w * d, "shannon": _entropy_terms,
                 "renyi-mass": lambda d, w, e: w * d ** e}


def _terms(name) -> tuple:
    """(g(p, q, w), role) of one named integral; the role is None for a pair."""
    kind, *args = (name,) if isinstance(name, str) else name
    if kind in _PAIR_TERMS:
        return (lambda p, q, w: _PAIR_TERMS[kind](p, q, w, *args)), None
    h, role, args = _SINGLE_TERMS[kind], args[0], args[1:]
    return (lambda p, q, w: h(p if role == "p" else q, w, *args)), role


def _slot(prob: "HypothesisProblem", name, cfg: IntegrationConfig) -> tuple:
    """(memo, key) of one named integral: ``prob.memo[(name, cfg)]`` for a pair
    integral, else its distribution's ``weight_masses[(kind, *args, wf, cfg)]``."""
    if isinstance(name, str) or name[0] in _PAIR_TERMS:
        return prob.memo, (name, cfg)
    kind, role, *args = name
    return (prob.p if role == "p" else prob.q).weight_masses, (kind, *args, prob.wf, cfg)


def plan_integrals(prob: "HypothesisProblem", cfg: IntegrationConfig, names) -> None:
    """Compute each named integral that no memo holds yet, all in one pass.

    On a scalar support the missing integrals are the components of one
    lockstep ``integrate`` call, each with its own window (from p and q, or
    from its distribution alone), breakpoints and stopping rule; on a vector
    support each is a sum over a Gauss-Hermite mesh (``_mv_value``).  Each
    result, ``(value, error)`` or the ``NonConvergentIntegralError`` it met,
    goes to the memo of that integral (``_slot``), where every quantity
    reads it.  Finite supports use exact sums and store nothing.
    """
    p, q, wf, sup = prob.p, prob.q, prob.wf, prob.support
    if sup.kind == "finite":
        return
    todo = {}
    for name in names:
        memo, key = _slot(prob, name, cfg)
        if key not in memo:
            todo[id(memo), key] = (name, memo, key)
    comps, slots = [], []
    for name, memo, key in todo.values():
        g, role = _terms(name)
        if sup.kind == "real-vector":
            memo[key] = _mv_value(prob, name, g, role)
            continue
        try:
            points = tuple(_crossing_points(prob, cfg)) \
                if name == "tv" and sup.kind != "counting" else ()
        except NonConvergentIntegralError as exc:
            memo[key] = exc
            continue
        dists = (p, q) if role is None else (p if role == "p" else q,)
        comps.append(Integrand(g, dists, wf, points))
        slots.append((memo, key))

    def evaluate(x):
        dp = p.density(x)
        return dp, dp if q is p else q.density(x), wf(x)

    if comps:
        for (memo, key), res in zip(slots, integrate(evaluate, sup, cfg, components=comps)):
            memo[key] = res


def _integrals(prob: "HypothesisProblem", cfg: IntegrationConfig, *names) -> list:
    """(value, error) of each named integral, after planning the missing ones
    together; the stored failure of the first one that failed is raised."""
    plan_integrals(prob, cfg, names)
    out = []
    for name in names:
        memo, key = _slot(prob, name, cfg)
        if isinstance(memo[key], NonConvergentIntegralError):
            raise memo[key].with_traceback(None)
        out.append(memo[key])
    return out


def _mv_reference(p: Distribution, q: Distribution, wf: WeightFunction):
    """Covering Gaussian (mean, cov) for vector-support quadrature."""
    cov = np.asarray(p.scale, dtype=float) + np.asarray(q.scale, dtype=float)
    mean = 0.5 * (np.asarray(p.center, dtype=float) + np.asarray(q.center, dtype=float))
    g = wf.exp_rate_vector
    if g is not None:
        mean = mean + cov @ g  # follow the exponential tilt of the mass
    return mean, cov


def _mv_mesh(store: dict, key, p: Distribution, q: Distribution, wf: WeightFunction,
             level: int) -> tuple:
    """(p, q, phi * wr) at the Gauss-Hermite nodes of one level, kept in
    ``store[key]``.  ``wr`` are the rule's Lebesgue weights, so the integral of
    g(p, q, phi) is ``sum(g(p, q, phi * wr))`` for every g linear in phi; as
    ``wr > 0``, masks on ``phi > 0`` still hold.  The nodes are dropped, and
    nothing in the mesh refers back to p or q."""
    mesh = store.get(key)
    if mesh is None:
        mean, cov = _mv_reference(p, q, wf)
        nodes, wr = gauss_hermite_nodes(mean, cov, level, lebesgue=True)
        dp = p.density(nodes)
        dq = dp if q is p else q.density(nodes)
        mesh = store[key] = (dp, dq, wf.vector_values(nodes) * wr)
    return mesh


def _mv_value(prob: HypothesisProblem, name, g, role) -> tuple:
    """(value, error) of one named integral on a vector support: a pair
    integral on the problem's level-60 mesh (tv and kl take the gap to level
    48 as their error), a single-distribution one on its (p, p) mesh."""
    if role is not None:
        d = prob.p if role == "p" else prob.q
        mesh = _mv_mesh(d.weight_masses, (prob.wf, _MV_LEVEL), d, d, prob.wf, _MV_LEVEL)
        return float(np.sum(g(*mesh))), 0.0
    def at(level):
        mesh = _mv_mesh(prob.memo, ("gauss-hermite", level), prob.p, prob.q, prob.wf, level)
        return float(np.sum(g(*mesh)))
    hi = at(_MV_LEVEL)
    return hi, (abs(hi - at(_MV_LEVEL - 12)) if name in ("tv", "kl") else 0.0)


def _crossing_points(prob: HypothesisProblem, cfg: IntegrationConfig, n_grid: int = 1024):
    """Sign changes of p - q bracketed on a grid, then polished by root solves.

    Inexact kink hints degrade the adaptive error estimate, so each bracket is
    refined to machine precision before being handed to the quadrature.
    """
    from scipy.optimize import brentq

    from .core import _window_for
    lo, hi = _window_for(prob.support, cfg, (prob.p, prob.q), prob.wf)
    xs = np.linspace(lo, hi, n_grid)
    # inf - inf (both densities infinite at a half-line endpoint when the
    # shape is below 1) is NaN, whose sign is never counted as a crossing
    with np.errstate(invalid="ignore"):
        diff = prob.p.density(xs) - prob.q.density(xs)
    sign = np.sign(diff)
    idx = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    g = lambda x: float(prob.p.density(x) - prob.q.density(x))
    out = []
    for i in idx:
        try:
            out.append(brentq(g, xs[i], xs[i + 1], xtol=1e-14, rtol=1e-15))
        except ValueError:
            out.append(0.5 * (xs[i] + xs[i + 1]))
    return out


def weight_mass(dist: Distribution, wf: WeightFunction, cfg: IntegrationConfig) -> float:
    """E_phi(p), the mean weight under the density.

    On infinite supports it is memoized on ``dist`` (its ``weight_masses``
    field, keyed by ``("mass", wf, cfg)``; see ``plan_integrals``), so it lives
    exactly as long as that Distribution instance: equal distributions built
    separately do not share it, and nothing carries over from one report to
    the next.  The same field keeps the Shannon entropy and Renyi-entropy
    masses, and on vector supports, keyed by ``(wf, level)``, the one (p, p)
    Gauss-Hermite mesh they all sum over.  A ``NonConvergentIntegralError`` is
    stored too and raised again on every later call, without integrating
    again.  Finite supports are not memoized (the exact sum is cheaper than
    hashing a long weight table).
    """
    sup = dist.support
    if sup.kind == "finite":
        return float(np.sum(wf.table_on(sup) * dist.finite.pmf))
    hit = dist.weight_masses.get(("mass", wf, cfg))
    if isinstance(hit, tuple):
        return hit[0]
    return _integrals(HypothesisProblem(dist, dist, wf), cfg, ("mass", "p"))[0][0]


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------

def weighted_tv(prob: HypothesisProblem, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted total variation (1/2) E_phi(|p - q|)."""
    sup = prob.support
    if sup.kind == "finite":
        p, q, w = prob.tables()
        return DivergenceValue(0.5 * float(np.sum(w * np.abs(p - q))), 0.0, "exact-sum")
    val, err = _integrals(prob, cfg, "tv")[0]
    return DivergenceValue(0.5 * val, 0.5 * err, _method_for(sup))


def weighted_tv_sup_oracle(prob: HypothesisProblem) -> float:
    """Brute-force sup-over-subsets definition, finite alphabets only.

    Evaluates (1/2)(sup_A [int_A phi dP - int_A phi dQ]
                    + sup_A [int_A phi dQ - int_A phi dP])
    by enumerating all 2^m subsets.
    """
    if prob.support.kind != "finite":
        raise AlphabetTooLargeError("sup oracle requires a finite alphabet")
    m = prob.support.m
    if m > _ORACLE_MAX_M:
        raise AlphabetTooLargeError(f"sup oracle capped at m <= {_ORACLE_MAX_M}")
    p, q, w = prob.tables()
    v = w * (p - q)
    masks = np.arange(2 ** m, dtype=np.uint32)
    bits = (masks[:, None] >> np.arange(m)) & 1
    sums = bits @ v
    return 0.5 * (float(np.max(sums)) + float(np.max(-sums)))


def delta(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """Delta_phi(p, q) = (E_phi(p) + E_phi(q)) / 2; equals 1 when phi == 1."""
    plan_integrals(prob, cfg, (("mass", "p"), ("mass", "q")))
    return 0.5 * (weight_mass(prob.p, prob.wf, cfg) + weight_mass(prob.q, prob.wf, cfg))


def hellinger(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """Weighted Hellinger distance ((1/2) E_phi((sqrt p - sqrt q)^2))^{1/2}."""
    if prob.support.kind == "finite":
        sq = float(np.sum(_PAIR_TERMS["hellinger"](*prob.tables())))
    else:
        sq = _integrals(prob, cfg, "hellinger")[0][0]
    return math.sqrt(max(0.5 * sq, 0.0))


def bhattacharyya_coeff(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """Weighted affinity rho = E_phi(sqrt(p q)); satisfies rho = Delta - eta^2."""
    if prob.support.kind == "finite":
        return float(np.sum(_PAIR_TERMS["rho"](*prob.tables())))
    return _integrals(prob, cfg, "rho")[0][0]


# ---------------------------------------------------------------------------
# divergences
# ---------------------------------------------------------------------------

def _kl_exact_terms(p, q, w):
    """Summands of the discrete weighted KL with the 0 ln 0 convention."""
    active = (p > 0) & (w > 0)
    if np.any(active & (q <= 0)):
        return None  # phi p positive on a q-null set
    out = np.zeros_like(p)
    out[active] = w[active] * p[active] * np.log(p[active] / q[active])
    return out


def kl(prob: HypothesisProblem, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted Kullback-Leibler divergence E(phi p 1(p>0) ln(p/q))."""
    sup = prob.support
    if sup.kind == "finite":
        terms = _kl_exact_terms(*prob.tables())
        if terms is None:
            return DivergenceValue(math.inf, 0.0, "exact-sum")
        return DivergenceValue(float(np.sum(terms)), 0.0, "exact-sum")
    val, err = _integrals(prob, cfg, "kl")[0]
    return DivergenceValue(val, err, _method_for(sup))


def chernoff_coeff(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> float:
    """Weighted Chernoff coefficient E_phi(p^a q^(1-a)) / E_phi(p), 0 < a < 1."""
    if not 0 < alpha < 1:
        raise IllegalParameterError("alpha must lie in (0, 1)")
    if prob.support.kind == "finite":
        p, q, w = prob.tables()
        ep = weight_mass(prob.p, prob.wf, cfg)
        num = float(np.sum(w * p ** alpha * q ** (1 - alpha)))
    else:
        (ep, _), (num, _) = _integrals(prob, cfg, ("mass", "p"), ("chernoff", alpha))
    if ep <= 0:
        raise ZeroWeightMassError("E_phi(p) = 0")
    return num / ep


def chernoff_div(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> DivergenceValue:
    """-ln of the weighted Chernoff coefficient."""
    coeff = chernoff_coeff(prob, alpha, cfg)
    if coeff <= 0:
        return DivergenceValue(math.inf, 0.0, _method_for(prob.support))
    return DivergenceValue(-math.log(coeff), 0.0, _method_for(prob.support))


def renyi_div(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted Renyi alpha-divergence; converges to kl as alpha -> 1."""
    if alpha == 1.0:
        return kl(prob, cfg)
    if not 0 < alpha < 1:
        raise IllegalParameterError("alpha must lie in (0, 1]")
    coeff = chernoff_coeff(prob, alpha, cfg)
    ep = weight_mass(prob.p, prob.wf, cfg)
    if coeff <= 0:
        return DivergenceValue(math.inf, 0.0, _method_for(prob.support))
    return DivergenceValue(ep / (alpha - 1.0) * math.log(coeff), 0.0,
                           _method_for(prob.support))


def tsallis_div(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted Tsallis alpha-divergence; converges to kl as alpha -> 1."""
    if alpha == 1.0:
        return kl(prob, cfg)
    if not 0 < alpha < 1:
        raise IllegalParameterError("alpha must lie in (0, 1]")
    coeff = chernoff_coeff(prob, alpha, cfg)
    ep = weight_mass(prob.p, prob.wf, cfg)
    return DivergenceValue(ep / (alpha - 1.0) * (coeff - 1.0), 0.0,
                           _method_for(prob.support))


def bhattacharyya_div(prob: HypothesisProblem, cfg: IntegrationConfig) -> DivergenceValue:
    """-ln rho + ln E_phi(p); the Chernoff divergence at alpha = 1/2."""
    rho = bhattacharyya_coeff(prob, cfg)
    ep = weight_mass(prob.p, prob.wf, cfg)
    if ep <= 0:
        raise ZeroWeightMassError("E_phi(p) = 0")
    if rho <= 0:
        return DivergenceValue(math.inf, 0.0, _method_for(prob.support))
    return DivergenceValue(-math.log(rho) + math.log(ep), 0.0, _method_for(prob.support))


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def shannon_entropy(p: Distribution, wf: WeightFunction, cfg: IntegrationConfig) -> float:
    """Weighted Shannon entropy -E_phi(p ln p) (0 ln 0 := 0)."""
    sup = p.support
    if sup.kind == "finite":
        pm = p.finite.pmf
        w = wf.table_on(sup)
        active = pm > 0
        return float(-np.sum(w[active] * pm[active] * np.log(pm[active])))

    return _integrals(HypothesisProblem(p, p, wf), cfg, ("shannon", "p"))[0][0]


def renyi_entropy(p: Distribution, wf: WeightFunction, alpha: float,
                  cfg: IntegrationConfig) -> float:
    """Weighted Renyi alpha-entropy E_phi(p)/(1-a) ln(E_phi(p^a)/E_phi(p))."""
    if not 0 < alpha < 1:
        raise IllegalParameterError("alpha must lie in (0, 1)")
    return renyi_entropy_ext(p, wf, alpha, 1.0, cfg)


def renyi_entropy_ext(p: Distribution, wf: WeightFunction, alpha: float, beta: float,
                      cfg: IntegrationConfig) -> float:
    """Extended weighted Renyi entropy with exponents (alpha+beta-1, beta).

    Requires alpha > 0, alpha != 1, beta > 0, alpha + beta > 1; beta = 1
    recovers the plain weighted Renyi alpha-entropy.
    """
    if alpha <= 0 or alpha == 1.0 or beta <= 0 or alpha + beta <= 1:
        raise IllegalParameterError("need alpha>0, alpha!=1, beta>0, alpha+beta>1")
    # at beta = 1 the exponent is alpha itself: alpha + 1.0 - 1.0 can miss it by 1 ulp
    expos = (alpha,) if beta == 1.0 else (alpha + beta - 1.0, beta)
    if p.support.kind == "finite":
        w = wf.table_on(p.support)
        ep = weight_mass(p, wf, cfg)
        masses = [float(np.sum(w * p.finite.pmf ** e)) for e in expos]
    else:
        names = [("mass", "p")] + [("renyi-mass", "p", e) for e in expos]
        ep, *masses = (v for v, _ in _integrals(HypothesisProblem(p, p, wf), cfg, *names))
    num, den = masses if beta != 1.0 else (masses[0], ep)
    if num <= 0 or den <= 0:
        raise ZeroWeightMassError("degenerate weighted masses in Renyi entropy")
    return ep / (1.0 - alpha) * math.log(num / den)
