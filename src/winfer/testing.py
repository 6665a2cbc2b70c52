"""Context-sensitive hypothesis testing: optimal weighted error-losses, the
finite-n bound chains, and the weighted type-II error exponent.

The central exact identity is

    inf_D [ alpha_phi(D) + beta_phi(D) ] = Delta_phi(p,q) - tau_phi(p,q),

attained by the indicator of {q > p} (ties resolved to D = 0, which is
value-neutral).  n-fold problems use the product weight prod_i phi(x_i); their
exact values come from exact enumeration over types (method of types).

A caution on the large-KL refinement of the Pinsker bound: the inequality
tau^2 + exp(-K) <= Delta^2 as commonly printed silently assumes unit weight
mass.  The corrected, hypothesis-free form is

    tau^2 + E_phi(p)^2 exp(-K / E_phi(p)) <= Delta^2,

which this module reports alongside the printed form; the printed form is
only asserted under the weight-mass condition making its proof sound
(2 ln W + K (W-1)/W >= 0 with W = E_phi(p)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.special import gammaln

from .core import IntegrationConfig, check_finite_tables, integrate
from .divergence import QUANTITIES, HypothesisProblem, finite_sums, integrals, quantity
from .errors import (
    DomainMismatchError,
    EnumerationTooLargeError,
    IllegalParameterError,
    InfiniteKLError,
    overflow_refused,
)

__all__ = [
    "DecisionRule",
    "ProductProblem",
    "TiltedPair",
    "error_losses",
    "optimal_rule",
    "min_total_error",
    "BoundReport",
    "error_bound_report",
    "finite_bound_reports",
    "NfoldBounds",
    "nfold_error_bounds",
    "stein_sanov_limit",
    "stein_sanov_empirical",
]

_COMPOSITION_CAP = 1_000_000
_TYPE_CELL_CAP = 10_000_000
_EXACT_M_CAP = 6
_EXACT_N_CAP = 200


@dataclass(frozen=True)
class DecisionRule:
    """Randomized decision rule D: outcome -> [0, 1].

    Finite problems use ``values`` (a vector over the alphabet); continuous or
    n-fold problems use ``fn``.
    """

    values: Optional[np.ndarray] = None
    fn: Optional[Callable] = None
    name: str = ""

    def __post_init__(self):
        if self.values is not None:
            v = np.asarray(self.values, dtype=float)
            object.__setattr__(self, "values", v)
            if np.any(v < 0) or np.any(v > 1):
                raise IllegalParameterError("decision rule range must be within [0, 1]")
        elif self.fn is None:
            raise IllegalParameterError("rule needs either values or fn")

    def __call__(self, x):
        if self.values is not None:
            return self.values[np.asarray(x, dtype=int)]
        return np.clip(np.asarray(self.fn(x), dtype=float), 0.0, 1.0)


@dataclass(frozen=True)
class ProductProblem:
    """n i.i.d. observations of a base problem with the factorized weight."""

    base: HypothesisProblem
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise IllegalParameterError("n must be >= 1")


def error_losses(prob: HypothesisProblem, rule: DecisionRule,
                 cfg: IntegrationConfig) -> tuple:
    """Type I and II weighted error-losses (E_phi(p D), E_phi(q (1-D)))."""
    sup = prob.support
    if sup.kind == "finite":
        p, q, w = prob.tables()
        d = rule(np.arange(sup.m))
        return float(np.sum(w * p * d)), float(np.sum(w * q * (1.0 - d)))
    a, _ = integrate(lambda x: prob.wf(x) * prob.p.density(x) * rule(x),
                     sup, cfg, dists=(prob.p, prob.q), wf=prob.wf)
    b, _ = integrate(lambda x: prob.wf(x) * prob.q.density(x) * (1.0 - rule(x)),
                     sup, cfg, dists=(prob.p, prob.q), wf=prob.wf)
    return a, b


def optimal_rule(prob: HypothesisProblem) -> DecisionRule:
    """Indicator of {q > p}; minimizes the combined weighted error-loss."""
    if prob.support.kind == "finite":
        p, q, _ = prob.tables()
        return DecisionRule(values=(q > p).astype(float), name="indicator(q>p)")
    return DecisionRule(
        fn=lambda x: (prob.q.density(x) > prob.p.density(x)).astype(float),
        name="indicator(q>p)")


def min_total_error(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """inf_D [alpha + beta] = Delta_phi - tau_phi."""
    return quantity(prob, "min-total-error", cfg).value


# ---------------------------------------------------------------------------
# bound chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    ep: float                      # E_phi(p)
    eq: float                      # E_phi(q)
    delta: float
    rho: float
    tau: float
    eta: float
    kl: float
    lower_affinity: float          # rho^2 / (2 Delta)
    lower_sqrt: float              # Delta - sqrt(Delta^2 - rho^2)
    min_total: float               # Delta - tau
    upper_affinity: float          # rho
    pinsker_bound: float           # sqrt(K E_phi(p) / 2), bound on tau
    pinsker_applicable: bool       # E_phi(p) >= E_phi(q)
    bh_corrected_bound: float      # sqrt(Delta^2 - W^2 e^{-K/W}), bound on tau
    bh_printed_bound: float        # sqrt(Delta^2 - e^{-K}) (nan if negative radicand)
    bh_printed_applicable: bool    # 2 ln W + K (W-1)/W >= 0
    violations: tuple = ()


_BOUND_NAMES = ("bhattacharyya-coeff", "tv", "hellinger", "kl")
# E_phi(p), E_phi(q), then one integral per _BOUND_NAMES entry; integrals()
# reads them in this order, so the first failure met is raised
_BOUND_READS = (("mass", "p"), ("mass", "q"),
                *(QUANTITIES[name].reads(None)[0] for name in _BOUND_NAMES))


def _bound_values(values) -> tuple:
    """(E_phi(p), E_phi(q), Delta, rho, tau, eta, K) from the values of
    ``_BOUND_READS``, each quantity its table formula, as ``quantity(...).value`` is."""
    ep, eq, *got = values
    return (ep, eq, QUANTITIES["delta"].formula(None, ep, eq),
            *(QUANTITIES[name].formula(None, v) for name, v in zip(_BOUND_NAMES, got)))


def error_bound_report(prob: HypothesisProblem, cfg: IntegrationConfig,
                       atol: float = 1e-9) -> BoundReport:
    """Evaluate every finite-n bound on inf[alpha+beta] / tau and check order."""
    return _bound_report(*_bound_values(v for v, _ in integrals(prob, cfg, _BOUND_READS)),
                         atol=atol)


def finite_bound_reports(p: np.ndarray, q: np.ndarray, w: np.ndarray):
    """An iterator of the ``error_bound_report`` of each finite problem (p[i],
    q[i], w[i]) of stacked (N, m) tables, checked as the constructors check
    them, summed in one ``finite_sums`` pass up front."""
    check_finite_tables((p, q), w)
    sums = np.stack(finite_sums(p, q, w, _BOUND_READS), axis=-1)
    return (_bound_report(*_bound_values(row.tolist())) for row in sums)


@overflow_refused
def _bound_report(ep: float, eq: float, dl: float, rho: float, tau: float, eta: float,
                 kv: float, atol: float = 1e-9) -> BoundReport:
    """The finite-n bounds on inf[alpha+beta] / tau from (E_phi(p), E_phi(q),
    Delta, rho, tau, eta, K), and the checks of their order."""
    lower_aff = rho ** 2 / (2.0 * dl) if dl > 0 else 0.0
    lower_sqrt = dl - math.sqrt(max(dl * dl - rho * rho, 0.0))
    inf_total = dl - tau

    pinsker = math.sqrt(max(kv, 0.0) * ep / 2.0) if math.isfinite(kv) else math.inf
    pinsker_ok = ep >= eq - atol

    if math.isfinite(kv) and ep > 0:
        rad_corr = dl * dl - ep * ep * math.exp(-kv / ep)
        bh_corr = math.sqrt(max(rad_corr, 0.0))
        rad_printed = dl * dl - math.exp(-kv)
        bh_printed = math.sqrt(rad_printed) if rad_printed >= 0 else math.nan
        printed_ok = 2.0 * math.log(ep) + kv * (ep - 1.0) / ep >= -atol
    else:
        bh_corr = dl
        bh_printed = dl
        printed_ok = math.isfinite(kv)

    tol = atol * max(1.0, dl)
    violations = []
    if not (-tol <= lower_aff):
        violations.append("lower_affinity < 0")
    if lower_aff > lower_sqrt + tol:
        violations.append("rho^2/(2 Delta) > Delta - sqrt(Delta^2 - rho^2)")
    if lower_sqrt > inf_total + tol:
        violations.append("sqrt lower bound exceeds the exact minimum")
    if inf_total > rho + tol:
        violations.append("exact minimum exceeds rho")
    if dl - rho > tau + tol:
        violations.append("Delta - rho > tau")
    if tau > math.sqrt(max(dl * dl - rho * rho, 0.0)) + tol:
        violations.append("tau > sqrt(Delta^2 - rho^2)")
    if pinsker_ok and math.isfinite(kv) and tau > pinsker + tol:
        violations.append("tau > pinsker bound")
    if math.isfinite(kv) and tau > bh_corr + tol:
        violations.append("tau > corrected bretagnolle-huber bound")
    if printed_ok and math.isfinite(kv) and not math.isnan(bh_printed) \
            and tau > bh_printed + tol:
        violations.append("tau > printed bretagnolle-huber bound")

    return BoundReport(
        ep=ep, eq=eq, delta=dl, rho=rho, tau=tau, eta=eta, kl=kv,
        lower_affinity=lower_aff, lower_sqrt=lower_sqrt, min_total=inf_total,
        upper_affinity=rho, pinsker_bound=pinsker, pinsker_applicable=pinsker_ok,
        bh_corrected_bound=bh_corr, bh_printed_bound=bh_printed,
        bh_printed_applicable=printed_ok, violations=tuple(violations))


# ---------------------------------------------------------------------------
# n-fold products
# ---------------------------------------------------------------------------

def _types(n: int, m: int) -> tuple:
    """The (C, m) float table of the types (counts k >= 0, sum k = n) in
    lexicographic order, C = comb(n+m-1, m-1), and ln n! - sum ln k_i! per type.
    Step j repeats each row once per count of letter j; column j+1 keeps the rest."""
    size = math.comb(n + m - 1, m - 1)
    if size > _COMPOSITION_CAP or size * m > _TYPE_CELL_CAP:
        raise EnumerationTooLargeError("too many symbol-count compositions")
    counts = np.zeros((1, m))
    counts[0, 0] = n
    for j in range(m - 1):
        reps = counts[:, j].astype(np.intp) + 1
        k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        counts = np.repeat(counts, reps, axis=0)
        counts[:, j + 1] = counts[:, j] - k
        counts[:, j] = k
    return counts, gammaln(n + 1) - gammaln(counts + 1.0).sum(axis=1)


def _count_loglik(counts: np.ndarray, log_coef: np.ndarray, masses) -> np.ndarray:
    """ln(multinom(k) prod masses^k) per row k; a count on a zero-mass letter
    gives -inf, and 0 * ln 0 is masked to 0."""
    with np.errstate(divide="ignore"):
        lm = np.log(masses)
    dead = ~np.isfinite(lm)
    ll = log_coef + counts @ np.where(dead, 0.0, lm)
    if np.any(dead):
        ll = np.where(counts[:, dead].sum(axis=1) > 0, -np.inf, ll)
    return ll


@dataclass(frozen=True)
class NfoldBounds:
    n: int
    ep: float
    eq: float
    rho: float
    kl: float
    lower: float                 # rho^{2n} / (E_p^n + E_q^n)
    upper: float                 # rho^n
    upper_sq: float              # (Delta^2 - tau^2)^{n/2}
    upper_eta: Optional[float]   # exp(-n eta^2), only when Delta <= 1
    asymptotic_lower: float      # (1-eps)/(2 Delta) exp(-n E_p^{n-1} K)
    asymptotic_eps: float
    exact_inf: Optional[float]   # Delta_n - tau_n, summed over the types
    exact_error: str = ""        # "too-many-types" when exact_inf is None


def nfold_error_bounds(pp: ProductProblem, cfg: IntegrationConfig,
                       eps: float = 0.5) -> NfoldBounds:
    """Finite-n sandwich bounds on the minimal combined n-fold error-loss."""
    base = pp.base
    n = pp.n
    if base.support.kind != "finite":
        raise DomainMismatchError("n-fold bounds need a finite base alphabet")
    ep, eq, dl, rho, tau, eta, kv = _bound_values(
        v for v, _ in integrals(base, cfg, _BOUND_READS))

    lower = rho ** (2 * n) / (ep ** n + eq ** n)
    upper = rho ** n
    upper_sq = max(dl * dl - tau * tau, 0.0) ** (n / 2.0)
    upper_eta = math.exp(-n * eta * eta) if dl <= 1.0 + 1e-12 else None
    if math.isfinite(kv):
        expo = -n * ep ** (n - 1) * kv
        asym = (1.0 - eps) / (2.0 * dl) * (math.exp(expo) if expo < 700 else math.inf)
    else:
        asym = 0.0

    # Delta_n - tau_n = sum over types k of min(A_k, B_k), A_k = multinom(k)
    # prod (phi p / sum p)^k (as the product pmf is normalised); summing the
    # minimum avoids the cancellation in Delta_n - tau_n
    p, q, w = base.tables()
    try:
        counts, log_coef = _types(n, base.support.m)
    except EnumerationTooLargeError:
        exact, err = None, "too-many-types"
    else:
        ll_p = _count_loglik(counts, log_coef, w * p / p.sum())
        ll_q = _count_loglik(counts, log_coef, w * q / q.sum())
        exact, err = float(np.exp(np.minimum(ll_p, ll_q)).sum()), ""

    return NfoldBounds(n=n, ep=ep, eq=eq, rho=rho, kl=kv, lower=lower,
                       upper=upper, upper_sq=upper_sq, upper_eta=upper_eta,
                       asymptotic_lower=asym, asymptotic_eps=eps,
                       exact_inf=exact, exact_error=err)


# ---------------------------------------------------------------------------
# tilted pair and the type-II exponent
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TiltedPair:
    """Normalized weighted densities phi p / E_phi(p), phi q / E_phi(q).

    ``z(x) = ln(p(x)/q(x))`` is the per-observation log-likelihood statistic;
    its tilted means are K(p||q)/E_phi(p) and -K(q||p)/E_phi(q).
    """

    pi: np.ndarray
    vartheta: np.ndarray
    z: np.ndarray
    ep: float
    eq: float
    mean_pi: float         # E_pi[z]
    mean_vartheta: float   # E_vartheta[z]

    @staticmethod
    def from_problem(prob: HypothesisProblem, cfg: IntegrationConfig) -> "TiltedPair":
        if prob.support.kind != "finite":
            raise DomainMismatchError("tilted pair implemented for finite alphabets")
        p, q, w = prob.tables()
        if np.any((p <= 0) | (q <= 0)):
            raise InfiniteKLError("tilting needs strictly interior pmfs")
        ep = float(np.sum(w * p))
        eq = float(np.sum(w * q))
        if ep <= 0 or eq <= 0:
            raise IllegalParameterError("zero weight mass")
        z = np.log(p / q)
        pi = w * p / ep
        vth = w * q / eq
        return TiltedPair(pi=pi, vartheta=vth, z=z, ep=ep, eq=eq,
                          mean_pi=float(np.sum(pi * z)),
                          mean_vartheta=float(np.sum(vth * z)))


def stein_sanov_limit(prob: HypothesisProblem, cfg: IntegrationConfig) -> float:
    """Exponential decay rate ln E_phi(p) - K(p||q)/E_phi(p) of the minimal
    weighted type-II loss at any fixed relative type-I level."""
    return quantity(prob, "stein-sanov-limit", cfg).value


@dataclass(frozen=True)
class SteinSanovEstimate:
    n: int
    eta: float
    rate_estimate: float     # (1/n) ln of the weighted type-II loss
    alpha_attained: float    # weighted type-I level relative to E_phi(p)^n
    limit: float
    method: str


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a), a non-empty 1-D float array, in scipy 1.17's logsumexp
    arithmetic and (1,) shapes: ln(1 + s/m) + ln m + t, t the max, m the count of
    terms equal to t, s = sum exp(a - t) over the rest (Blanchard, Higham & Higham,
    IMA J. Numer. Anal. 41(4), 2021); ln sum exp(a) where that is not finite."""
    top = a.max(keepdims=True)
    at_top = a == top
    m = np.array([np.count_nonzero(at_top)], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_top, -np.inf, a) - top).sum(keepdims=True)
        out = np.log1p(s / m) + np.log(m) + top
        if not np.isfinite(out[0]):
            out = np.log(np.exp(a).sum(keepdims=True))
    return float(out[0])


def stein_sanov_empirical(pp: ProductProblem, etas, method: str,
                          cfg: IntegrationConfig, mc_samples: int = 200_000,
                          mc_seed: int = 0) -> tuple:
    """Achieved exponent of the window rule D_n = 1 - 1{ |z_bar - K/E| <= eta }
    for each eta in ``etas``; one estimate per eta, in order.

    The weighted type-II loss of the rule equals
    E_phi(p)^n E_{pi^n}[ 1_window exp(-sum z_i) ]; the exact branch sums it by
    multinomial enumeration over symbol counts, the Monte Carlo branch samples
    from the tilted pmf and reads the draw through its distinct sums s of z and
    their counts c (a sum depends only on the type), as ln sum c e^-s.  One
    enumeration or one draw per n serves every eta, and each estimate equals
    the one a call with that eta alone returns.  The attained type-I level is
    reported relative to E_phi(p)^n.  ``_logsumexp`` repeats scipy's, so the
    bits no longer depend on the scipy version.
    """
    base = pp.base
    n = pp.n
    if any(not eta > 0 for eta in etas):
        raise IllegalParameterError("eta must be > 0")
    if base.support.kind != "finite":
        raise DomainMismatchError("empirical rate implemented for finite alphabets")
    tp = TiltedPair.from_problem(base, cfg)
    limit = stein_sanov_limit(base, cfg)
    target = tp.mean_pi  # = K(p||q)/E_phi(p)
    z = tp.z
    m = base.support.m
    _, q, w = base.tables()

    if method == "exact":
        if m > _EXACT_M_CAP or n > _EXACT_N_CAP:
            raise EnumerationTooLargeError(
                f"exact enumeration capped at m <= {_EXACT_M_CAP}, n <= {_EXACT_N_CAP}")
        counts, log_coef = _types(n, m)
        dev = np.abs(counts @ z / n - target)
        ll_q = _count_loglik(counts, log_coef, w * q)
        ll_pi = _count_loglik(counts, log_coef, tp.pi)
        empty, label = "empty LLN window; increase eta or n", "exact-enumeration"

        def rate_alpha(inside):
            return (_logsumexp(ll_q[inside]) / n,
                    1.0 - float(np.exp(_logsumexp(ll_pi[inside]))))
    elif method == "mc":
        rng = np.random.default_rng(np.random.SeedSequence(mc_seed))
        sums, hits = np.unique(rng.multinomial(n, tp.pi, size=mc_samples).astype(float) @ z,
                               return_counts=True)
        dev, log_terms = np.abs(sums / n - target), np.log(hits) - sums
        empty, label = "no Monte Carlo mass in the LLN window", "monte-carlo"

        def rate_alpha(inside):
            # E_{pi^n}[1_window e^{-sum z}] in log space, each distinct sum once
            log_mean = _logsumexp(log_terms[inside]) - math.log(mc_samples)
            return math.log(tp.ep) + log_mean / n, 1.0 - int(hits[inside].sum()) / mc_samples
    else:
        raise IllegalParameterError(f"unknown method {method!r}")

    estimates = []
    for eta in etas:
        inside = dev <= eta
        if not inside.any():
            raise IllegalParameterError(empty)
        rate, alpha_att = rate_alpha(inside)
        estimates.append(SteinSanovEstimate(n=n, eta=eta, rate_estimate=rate,
                                            alpha_attained=alpha_att, limit=limit,
                                            method=label))
    return tuple(estimates)
