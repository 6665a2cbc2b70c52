"""Weighted distances, divergences, and entropies between a pair of densities.

All quantities act on a ``HypothesisProblem`` (p, q, phi) sharing one support.
Each is a closed formula over a few named weighted integrals (``QUANTITIES``;
E(.) integrates phi times its argument, C_a = E(p^a q^(1-a)), rho = C_0.5):

    tv                   E|p - q| / 2
    delta                Delta = (E(p) + E(q)) / 2
    hellinger            (E((sqrt p - sqrt q)^2) / 2)^(1/2)
    bhattacharyya-coeff  rho
    bhattacharyya-div    ln E(p) - ln rho
    kl                   E(p 1(p>0) ln(p/q)), with 0 ln 0 := 0
    chernoff-coeff@a     C_a / E(p)
    chernoff-div@a       -ln(C_a / E(p))
    renyi-div@a          E(p) / (a - 1) ln(C_a / E(p)); kl at a = 1
    tsallis-div@a        E(p) / (a - 1) (C_a / E(p) - 1); kl at a = 1
    shannon-entropy      -E(p ln p)
    renyi-entropy@a      E(p) / (1 - a) ln(E(p^a) / E(p))
    min-total-error      Delta - tv
    stein-sanov-limit    ln E(p) - kl / E(p)
    error-bounds         Delta - tv, reading every integral of the bound chain

``quantity`` plans the integrals (exact sums on finite alphabets, adaptive
series on countable supports, adaptive quadrature on the line, Gauss-Hermite
on vectors), applies the formula and carries each integral's error to first
order.  +inf is a first-class divergence value (``math.inf``): the support
violation on a finite alphabet, a coefficient <= 0, or a diverging integral.
The Renyi/Tsallis normalization makes both converge to kl as a -> 1 (this
fixes a sign slip in one common way of writing the 1/(1-a) prefactor).
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.special import wrightomega

from .core import (
    Distribution,
    Integrand,
    IntegrationConfig,
    Support,
    WeightFunction,
    _accepted,
    gauss_hermite_nodes,
    integrate,
    mesh_density,
    mesh_weight,
)
from .errors import (
    AlphabetTooLargeError,
    DomainMismatchError,
    IllegalParameterError,
    InfiniteKLError,
    NonConvergentIntegralError,
    ZeroWeightMassError,
    overflow_refused,
)

__all__ = [
    "HypothesisProblem",
    "DivergenceValue",
    "Quantity",
    "QUANTITIES",
    "quantity",
    "plan_quantities",
    "integrals",
    "finite_sums",
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
_MV_LADDER = (32, 40, 48, 60)  # tensor Gauss-Hermite levels a vector integral climbs
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class HypothesisProblem:
    """Simple hypothesis p versus simple alternative q under weight phi.

    On infinite supports ``memo`` holds every named integral that
    ``integrals`` computed, pair or single-distribution, under ``(name,
    cfg)``: its ``(value, error)`` or the failure it met.  On vector supports
    it also holds the Gauss-Hermite meshes (``_mv_mesh``), the pair's under
    ``("gauss-hermite", level)`` and each distribution's (p, p) mesh under
    ``("gauss-hermite", role, level)``, one role when q is p.  It lives exactly as
    long as this instance; no other problem shares it, not even one built
    equal or from the same distributions.  Finite supports store nothing
    (the exact sums are cheaper than a lookup).
    """

    p: Distribution
    q: Distribution
    wf: WeightFunction
    memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.p.support.same_space(self.q.support):
            raise DomainMismatchError("p and q must share one outcome space")
        self.wf.check_fits(self.p.support)

    @property
    def support(self) -> Support:
        return self.p.support

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


# how a support's integrals are computed; Gauss-Hermite on vectors is quadrature too
_METHODS = {"finite": "exact-sum", "counting": "series"}


# ---------------------------------------------------------------------------
# the per-problem evaluation plan
# ---------------------------------------------------------------------------
# A pair integral of (p, q, phi) is named "tv", "hellinger", "kl" or
# ("chernoff", alpha); a single-distribution one ("mass", role),
# ("shannon", role) or ("renyi-mass", role, exponent), the role "p" or "q".

def _kl_terms(p, q, w):
    """phi p 1(p>0) ln(p/q), with a floor on q where p > 0 = q; NaN (0 phi)
    where phi is +inf and p is 0, so that the integral is refused as non-finite."""
    live = (p > 0) & (w > 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = np.where(live, np.log(np.where(p > 0, p, 1.0))
                     - np.log(np.where(q > 0, q, np.finfo(float).tiny)), 0.0)
        return np.where(live, w * p * r, 0.0 * w)


def _kl_exact_terms(p, q, w):
    """The KL terms of a finite alphabet, phi p ln(p/q) with 0 ln 0 := 0: +inf
    where phi p > 0 = q (the support violation), so their sum is +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((p > 0) & (w > 0), w * p * np.log(p / q), 0.0)


def _entropy_terms(d, w):
    """-phi d ln d with 0 ln 0 := 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return -w * np.where(d > 0, d * np.log(np.where(d > 0, d, 1.0)), 0.0)


_PAIR_TERMS = {"tv": lambda p, q, w: w * np.abs(p - q),
               "hellinger": lambda p, q, w: w * (np.sqrt(p) - np.sqrt(q)) ** 2,
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


def _plan_integrals(prob: "HypothesisProblem", cfg: IntegrationConfig, names) -> None:
    """Compute each named integral that ``prob.memo`` lacks, all in one pass.

    On a scalar support the missing integrals are the components of one
    lockstep ``integrate`` call, each with its own window (from p and q, or
    from its distribution alone), breakpoints and stopping rule; on a vector
    support each is a sum over a Gauss-Hermite mesh (``_mv_value``).  Each
    result, ``(value, error)`` or the ``NonConvergentIntegralError`` it met,
    goes to ``prob.memo[(name, cfg)]``.  Finite supports store nothing.
    """
    p, q, wf, sup, memo = prob.p, prob.q, prob.wf, prob.support, prob.memo
    if sup.kind == "finite":
        return
    comps, keys = [], []
    for name in dict.fromkeys(names):
        key = (name, cfg)
        if key in memo:
            continue
        g, role = _terms(name)
        if sup.kind == "real-vector":
            memo[key] = _mv_value(prob, name, g, role, cfg)
            continue
        try:
            points = tuple(_crossing_points(prob, cfg)) \
                if name == "tv" and sup.kind != "counting" else ()
        except NonConvergentIntegralError as exc:
            memo[key] = exc
            continue
        dists = (p, q) if role is None else (p if role == "p" else q,)
        comps.append(Integrand(g, dists, wf, points))
        keys.append(key)

    def evaluate(x):
        dp = p.density(x)
        return dp, dp if q is p else q.density(x), wf(x)

    if comps:
        memo.update(zip(keys, integrate(evaluate, sup, cfg, components=comps)))


def finite_sums(p, q, w, names) -> list:
    """The exact sums of the named integrals of unchecked finite tables p, q, w
    of one shape (..., m), per row, each bit for bit that row's own sum."""
    return [(_kl_exact_terms(p, q, w) if name == "kl" else _terms(name)[0](p, q, w)).sum(axis=-1)
            for name in names]


def integrals(prob: "HypothesisProblem", cfg: IntegrationConfig, names) -> list:
    """(value, error) of each named integral of ``prob``.  On a finite
    alphabet it is the exact sum of its terms, with error 0, and nothing is
    stored; else the missing ones are planned together and the stored failure
    of the first one that failed is raised."""
    if prob.support.kind == "finite":
        return [(float(v), 0.0) for v in finite_sums(*prob.tables(), names)]
    _plan_integrals(prob, cfg, names)
    out = [prob.memo[(name, cfg)] for name in names]
    for got in out:
        if isinstance(got, NonConvergentIntegralError):
            raise got.with_traceback(None)
    return out


def _mv_mesh(store: dict, key, p: Distribution, q: Distribution, wf: WeightFunction,
             level: int) -> tuple:
    """(p, q, phi * wr, miss) on the Gauss-Hermite mesh of one level of the
    covering Gaussian N(mean of p and q, cov p + cov q), shifted by cov g under
    a weight exp(g . x), kept in ``store[key]``.  ``wr`` are the rule's
    Lebesgue weights, so the integral of g(p, q, phi) is ``sum(g(p, q, phi *
    wr))`` for every g linear in phi; as ``wr > 0``, masks on ``phi > 0``
    still hold.  ``miss`` is the larger distance of sum(wr p) and sum(wr q)
    from 1.  No node matrix is built, and nothing in the mesh refers back to
    p or q."""
    mesh = store.get(key)
    if mesh is None:
        cov = np.asarray(p.scale, dtype=float) + np.asarray(q.scale, dtype=float)
        mean = 0.5 * (np.asarray(p.center, dtype=float) + np.asarray(q.center, dtype=float))
        g = wf.exp_rate_vector
        rule = gauss_hermite_nodes(mean if g is None else mean + cov @ g, cov, level)
        dp = mesh_density(rule, p)
        dq = dp if q is p else mesh_density(rule, q)
        # einsum, not a threaded BLAS dot: its bits do not depend on the thread count
        miss = max(abs(float(np.einsum("i,i->", rule[0], d)) - 1.0) for d in (dp, dq))
        mesh = store[key] = (dp, dq, mesh_weight(rule, wf), miss)
    return mesh


def _mv_value(prob: HypothesisProblem, name, g, role, cfg: IntegrationConfig):
    """(value, error) of one named integral on a vector support.  It sums g
    over the pair mesh of each level of ``_MV_LADDER`` in turn (a
    single-distribution integral over its distribution's (p, p) mesh) and
    stops at the first level within max(abs_tol, rel_tol |value|) of the one
    below; tv, whose integrand has a kink, starts at level 48.  The error is
    the last gap, floored at the roundoff bound of the pairwise sum,
    ceil(log2 N) eps sum |terms| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sec. 4.2).  A value is refused if its mesh misses 1
    by more than ``_accepted`` allows a value of 1, or if it is not finite."""
    if role is None:
        p, q, tag = prob.p, prob.q, ()
    else:
        p = q = prob.p if role == "p" else prob.q
        tag = ("p" if prob.q is prob.p else role,)
    prev = None
    # a weight that overflows gives a non-finite value, refused below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for level in _MV_LADDER[2 if name == "tv" else 0:]:
            *mesh, miss = _mv_mesh(prob.memo, ("gauss-hermite", *tag, level), p, q, prob.wf, level)
            terms = g(*mesh)
            value = float(np.sum(terms))
            if prev is not None and (gap := abs(value - prev)) <= max(
                    cfg.abs_tol, cfg.rel_tol * abs(value)):
                break
            prev = value
    if isinstance(_accepted(1.0, miss, cfg), NonConvergentIntegralError):
        return NonConvergentIntegralError(
            f"the level-{level} Gauss-Hermite mesh misses {miss:.3e} of a unit mass")
    if not math.isfinite(value):
        return NonConvergentIntegralError("integrand produced a non-finite value")
    roundoff = math.ceil(math.log2(terms.size)) * _EPS * float(np.sum(np.abs(terms)))
    return value, max(gap, roundoff)


@overflow_refused
def _crossing_points(prob: HypothesisProblem, cfg: IntegrationConfig) -> list:
    """The sign changes of p - q, the kinks of the tv integrand.

    For two catalog members of one scalar support ln p - ln q = u t_1(x) +
    v t_2(x) + c, with (u, v) = theta_p - theta_q and c = F(theta_q) -
    F(theta_p) from ``expfam.CATALOG``: two Gaussians, t = (x, x^2), give a
    quadratic (``_quadratic_roots``); two gammas, t = (x, ln x) and
    exponential(lam) being gamma(1, lam), give v ln x + u x + c
    (``_log_linear_roots``).  The pair is solved in a fixed order, so that
    (q, p) gets the roots of (p, q) bit for bit.  The engine drops a root
    outside the tv window or below its finest lower-edge panel.  Any other
    pair (a density given only as a ``pdf``) is scanned: the G7/K15 error
    estimate of a panel with an unlisted kink is optimistic.
    """
    from .expfam import CATALOG  # expfam imports this module
    p, q = sorted((prob.p, prob.q), key=lambda d: (d.family, *d.params.values()))
    if p.family == q.family == "gaussian-scalar":
        fam, solve = CATALOG["gaussian-scalar"], _quadratic_roots
    elif {p.family, q.family} <= {"exponential", "gamma"}:
        fam, solve = CATALOG["gamma"], _log_linear_roots
    else:
        return _scanned_crossings(prob, cfg)
    tp, tq = (fam.to_natural({"lam": 1.0, "beta": d.params["lam"]} if d.family == "exponential"
                             else d.params).tolist() for d in (p, q))  # floats: ~1 us faster
    return sorted(solve(tp[1] - tq[1], tp[0] - tq[0], fam.F(tq) - fam.F(tp)))


def _scanned_crossings(prob: HypothesisProblem, cfg: IntegrationConfig) -> list:
    """Sign changes of p - q bracketed on 1,024 points of the tv window (on a
    half-line also at lo + step 2^-k, k <= 60) and bisected to adjacent
    doubles.  NaN, inf - inf where both densities are infinite at a half-line
    endpoint, is never a crossing."""
    from .core import _window_for
    lo, hi = _window_for(prob.support, cfg, (prob.p, prob.q), prob.wf)
    xs = np.linspace(lo, hi, 1024)
    if prob.support.kind == "half-line":
        xs = np.concatenate([xs[:1], lo + (xs[1] - lo) * 2.0 ** -np.arange(60, 0, -1), xs[1:]])
    sign = lambda x: np.sign(prob.p.density(x) - prob.q.density(x))
    with np.errstate(invalid="ignore"):
        s = sign(xs)
        at = np.flatnonzero(s[:-1] * s[1:] < 0)
        a, b, s = xs[at], xs[at + 1], s[at]
        for _ in range(200):  # each step halves every bracket
            mid = 0.5 * (a + b)
            if not ((a < mid) & (mid < b)).any():
                break
            right = sign(mid) == s  # the root lies right of mid
            a, b = np.where(right, mid, a), np.where(right, b, mid)
    return (0.5 * (a + b)).tolist()


def _quadratic_roots(a: float, b: float, c: float) -> list:
    """The simple real roots of a x^2 + b x + c, h / a and c / h with h = -(b +
    sign(b) sqrt(disc)) / 2, which cancels nothing; none at disc <= 0 (a tangent)."""
    if a == 0:
        return [-c / b] if b else []
    disc = b * b - 4.0 * a * c
    if disc <= 0:
        return []
    h = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [h / a, c / h]


def _log_linear_roots(a: float, b: float, c: float) -> list:
    """The simple roots x > 0 of a ln x + b x + c: with r = -b / a and
    t = ln|r| - c / a, x = omega(t) / |r| at r < 0, and -omega(t +- i pi) / r at
    r > 0 and t < -1, omega being the Wright omega function, W(e^t) (Corless
    et al., "On the Lambert W function", 1996), so e^(-c/a) is never formed."""
    if a == 0 or b == 0:  # linear in x, or in ln x
        roots = ([-c / b] if b else []) if a == 0 else [math.exp(min(-c / a, 709.0))]
    elif (r := -b / a) < 0:
        roots = [wrightomega(math.log(-r) - c / a) / -r]
    else:  # a tangent root at t = -1, none above
        t = math.log(r) - c / a
        roots = [-wrightomega(complex(t, s)).real / r for s in (math.pi, -math.pi) if t < -1.0]
    return [x for x in roots if x > 0]  # an e^t below the least double is 0


def weight_mass(dist: Distribution, wf: WeightFunction, cfg: IntegrationConfig) -> float:
    """E_phi(p), the mean weight under the density, integrated afresh on each
    call; within a problem read ``integrals(prob, cfg, [("mass", "p")])``."""
    return integrals(HypothesisProblem(dist, dist, wf), cfg, [_MP])[0][0]


# ---------------------------------------------------------------------------
# the quantity table
# ---------------------------------------------------------------------------

# A weighted quantity as a formula over named integrals: ``reads(alpha)`` names
# them (see integrals) and ``formula(alpha, *values)`` is the quantity at
# their values; ``alpha`` is its alpha domain, "(0, 1)" or "(0, 1]" (kl at 1),
# or "" for none; ``of_p`` says it reads integrals of p alone.
Quantity = namedtuple("Quantity", "reads formula alpha of_p", defaults=("", False))
_MP, _MQ, _RHO = ("mass", "p"), ("mass", "q"), ("chernoff", 0.5)


def _mass(ep: float) -> float:
    """E_phi(p), refused when it is not positive."""
    if ep <= 0:
        raise ZeroWeightMassError("E_phi(p) = 0")
    return ep


def _log(c: float) -> float:
    """ln c, and -inf for a coefficient c <= 0 (so its divergence is +inf)."""
    return math.log(c) if c > 0 else -math.inf


def _min_total(alpha, ep, eq, tv, *rest) -> float:
    return 0.5 * (ep + eq) - 0.5 * tv


def _stein_sanov(alpha, kv, ep) -> float:
    if not math.isfinite(kv):
        raise InfiniteKLError("the rate requires a finite weighted KL divergence")
    return math.log(_mass(ep)) - kv / ep


def _renyi_entropy(alpha, ep, num, den) -> float:
    if num <= 0 or den <= 0:
        raise ZeroWeightMassError("degenerate weighted masses in Renyi entropy")
    return ep / (1.0 - alpha) * math.log(num / den)


def _tilted(formula, domain="(0, 1)") -> Quantity:
    """A quantity of E_phi(p) and the Chernoff numerator C_a."""
    return Quantity(lambda a: (_MP, ("chernoff", a)),
                    lambda a, ep, c: formula(a, ep, c / _mass(ep)), domain)


QUANTITIES = {
    "tv": Quantity(lambda a: ("tv",), lambda a, tv: 0.5 * tv),
    "delta": Quantity(lambda a: (_MP, _MQ), lambda a, ep, eq: 0.5 * (ep + eq)),
    "hellinger": Quantity(lambda a: ("hellinger",), lambda a, sq: math.sqrt(max(0.5 * sq, 0.0))),
    "bhattacharyya-coeff": Quantity(lambda a: (_RHO,), lambda a, rho: rho),
    "bhattacharyya-div": Quantity(lambda a: (_RHO, _MP),
                                  lambda a, rho, ep: math.log(_mass(ep)) - _log(rho)),
    "kl": Quantity(lambda a: ("kl",), lambda a, kv: kv),
    "chernoff-coeff": _tilted(lambda a, ep, coeff: coeff),
    "chernoff-div": _tilted(lambda a, ep, coeff: -_log(coeff)),
    "renyi-div": _tilted(lambda a, ep, coeff: ep / (a - 1.0) * _log(coeff), "(0, 1]"),
    "tsallis-div": _tilted(lambda a, ep, coeff: ep / (a - 1.0) * (coeff - 1.0), "(0, 1]"),
    "shannon-entropy": Quantity(lambda a: (("shannon", "p"),), lambda a, h: h, of_p=True),
    "renyi-entropy": Quantity(lambda a: (_MP, ("renyi-mass", "p", a)),
                              lambda a, ep, m: _renyi_entropy(a, ep, m, ep), "(0, 1)", True),
    "min-total-error": Quantity(lambda a: (_MP, _MQ, "tv"), _min_total),
    "stein-sanov-limit": Quantity(lambda a: ("kl", _MP), _stein_sanov),
    # the min-total-error, reading every integral of testing.error_bound_report
    "error-bounds": Quantity(lambda a: (_MP, _MQ, "tv", _RHO, "hellinger", "kl"), _min_total),
}

# the least relative step of a slope estimate, about sqrt(machine epsilon)
_SLOPE_STEP = 2.0 ** -26


def _resolve(name: str, alpha) -> Quantity:
    """The entry that evaluates ``name`` at ``alpha``: kl for an alpha-divergence
    at alpha = 1; an alpha outside the domain raises IllegalParameterError."""
    entry = QUANTITIES[name]
    if entry.alpha == "(0, 1]" and alpha == 1.0:
        return QUANTITIES["kl"]
    if entry.alpha and not 0 < alpha < 1:
        raise IllegalParameterError(f"alpha must lie in {entry.alpha}")
    return entry


def plan_quantities(prob: HypothesisProblem, cfg: IntegrationConfig, requests) -> None:
    """Plan every integral that the (name, alpha) requests read in one pass; a
    request outside its alpha domain reads none (evaluating it raises)."""
    if prob.support.kind == "finite":  # exact sums are taken where they are read
        return
    names = []
    for name, alpha in requests:
        try:
            names += _resolve(name, alpha).reads(alpha)
        except IllegalParameterError:
            pass
    _plan_integrals(prob, cfg, names)


def _evaluate(got: list, formula, alpha, method: str) -> DivergenceValue:
    """``formula`` at the integrals' (value, error) pairs ``got``, with the
    first-order error sum_k |d formula / dI_k| err_k.  Each slope is the
    secant over the step h_k = max(err_k, 2^-26 |I_k|) as stored, so the
    error is the plain bump |f(I + err_k e_k) - f(I)| when err_k is not far
    below I_k.  Integrals with err_k = 0 (all of them on a finite alphabet)
    cost no extra call, and an infinite value carries error 0."""
    xs = [v for v, _ in got]
    value = formula(alpha, *xs)
    error = 0.0
    for k, (v, e) in enumerate(got):
        if e and math.isfinite(value):
            bumped = list(xs)
            bumped[k] = v + max(e, _SLOPE_STEP * abs(v))
            error += abs(formula(alpha, *bumped) - value) / (bumped[k] - v) * e
    return DivergenceValue(value, error, method)


def quantity(prob: HypothesisProblem, name: str, cfg: IntegrationConfig,
             alpha=None) -> DivergenceValue:
    """The quantity ``QUANTITIES[name]`` (at ``alpha`` when it is alpha-indexed)."""
    entry = _resolve(name, alpha)
    return _evaluate(integrals(prob, cfg, entry.reads(alpha)), entry.formula, alpha,
                     _METHODS.get(prob.support.kind, "quadrature"))


# ---------------------------------------------------------------------------
# the public quantities
# ---------------------------------------------------------------------------

def weighted_tv(prob: HypothesisProblem, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted total variation (1/2) E_phi(|p - q|)."""
    return quantity(prob, "tv", cfg)


def delta(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """Delta_phi(p, q) = (E_phi(p) + E_phi(q)) / 2; equals 1 when phi == 1."""
    return quantity(prob, "delta", cfg).value


def hellinger(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """Weighted Hellinger distance ((1/2) E_phi((sqrt p - sqrt q)^2))^{1/2}."""
    return quantity(prob, "hellinger", cfg).value


def bhattacharyya_coeff(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """Weighted affinity rho = E_phi(sqrt(p q)); satisfies rho = Delta - eta^2."""
    return quantity(prob, "bhattacharyya-coeff", cfg).value


def kl(prob: HypothesisProblem, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted Kullback-Leibler divergence E(phi p 1(p>0) ln(p/q))."""
    return quantity(prob, "kl", cfg)


def chernoff_coeff(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> float:
    """Weighted Chernoff coefficient E_phi(p^a q^(1-a)) / E_phi(p), 0 < a < 1."""
    return quantity(prob, "chernoff-coeff", cfg, alpha).value


def chernoff_div(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> DivergenceValue:
    """-ln of the weighted Chernoff coefficient."""
    return quantity(prob, "chernoff-div", cfg, alpha)


def renyi_div(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted Renyi alpha-divergence; converges to kl as alpha -> 1."""
    return quantity(prob, "renyi-div", cfg, alpha)


def tsallis_div(prob: HypothesisProblem, alpha: float, cfg: IntegrationConfig) -> DivergenceValue:
    """Weighted Tsallis alpha-divergence; converges to kl as alpha -> 1."""
    return quantity(prob, "tsallis-div", cfg, alpha)


def bhattacharyya_div(prob: HypothesisProblem, cfg: IntegrationConfig) -> DivergenceValue:
    """-ln rho + ln E_phi(p); the Chernoff divergence at alpha = 1/2."""
    return quantity(prob, "bhattacharyya-div", cfg)


def shannon_entropy(p: Distribution, wf: WeightFunction, cfg: IntegrationConfig) -> float:
    """Weighted Shannon entropy -E_phi(p ln p) (0 ln 0 := 0)."""
    return quantity(HypothesisProblem(p, p, wf), "shannon-entropy", cfg).value


def renyi_entropy(p: Distribution, wf: WeightFunction, alpha: float,
                  cfg: IntegrationConfig) -> float:
    """Weighted Renyi alpha-entropy E_phi(p)/(1-a) ln(E_phi(p^a)/E_phi(p))."""
    return quantity(HypothesisProblem(p, p, wf), "renyi-entropy", cfg, alpha).value


def renyi_entropy_ext(p: Distribution, wf: WeightFunction, alpha: float, beta: float,
                      cfg: IntegrationConfig) -> float:
    """Extended weighted Renyi entropy with exponents (alpha+beta-1, beta).

    Requires alpha > 0, alpha != 1, beta > 0, alpha + beta > 1; beta = 1
    recovers the plain weighted Renyi alpha-entropy.
    """
    if alpha <= 0 or alpha == 1.0 or beta <= 0 or alpha + beta <= 1:
        raise IllegalParameterError("need alpha>0, alpha!=1, beta>0, alpha+beta>1")
    # at beta = 1 the exponent is alpha itself: alpha + 1.0 - 1.0 can miss it by 1 ulp
    num = ("renyi-mass", "p", alpha if beta == 1.0 else alpha + beta - 1.0)
    den = _MP if beta == 1.0 else ("renyi-mass", "p", beta)
    got = integrals(HypothesisProblem(p, p, wf), cfg, (_MP, num, den))
    return _renyi_entropy(alpha, *(v for v, _ in got))


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
    sums = np.einsum("ij,j->i", bits, v)  # a threaded BLAS product rounds by thread count
    return 0.5 * (float(np.max(sums)) + float(np.max(-sums)))
