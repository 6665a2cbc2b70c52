"""Seeded random-instance generators for the verification sweeps.

Discrete instances: pmfs from a symmetric Dirichlet(1) (optionally floored
away from the simplex boundary), weight tables log-uniform on [e^-2, e^2].
``random_finite_tables`` draws them as raw (p, q, w) arrays, which the
bound-chain suites stack; ``random_finite_problem`` builds the problem of them.
Continuous instances: catalog pairs (gaussian / exponential / gamma) with
parameters log-uniform in ranges keeping every weighted integral convergent,
weights drawn from the constant / exponential / quadratic / absolute specs.
Both regimes E_phi(p) >= E_phi(q) and E_phi(p) < E_phi(q) occur.
"""

from __future__ import annotations

import numpy as np

from .core import Distribution, WeightFunction
from .divergence import HypothesisProblem

__all__ = [
    "random_finite_tables",
    "random_finite_problem",
    "random_interior_finite_problem",
    "random_continuous_problem",
]


def random_finite_tables(rng: np.random.Generator, m: int,
                         weight_span: float = 2.0) -> tuple:
    """(p, q, w) in draw order: Dirichlet(1) pmfs, weights log-uniform on [e^-span, e^span]."""
    p = rng.dirichlet(np.ones(m))
    q = rng.dirichlet(np.ones(m))
    return p, q, np.exp(rng.uniform(-weight_span, weight_span, size=m))


def random_finite_problem(rng: np.random.Generator, m: int,
                          weight_span: float = 2.0) -> HypothesisProblem:
    """The problem of ``random_finite_tables``, from the same draws."""
    p, q, w = random_finite_tables(rng, m, weight_span)
    return HypothesisProblem(Distribution.from_pmf(p), Distribution.from_pmf(q),
                             WeightFunction.table(w))


def random_interior_finite_problem(rng: np.random.Generator, m: int,
                                   floor: float = 0.15,
                                   weight_span: float = 0.5) -> HypothesisProblem:
    """Interior pmfs (entries bounded away from 0) with mild weights; keeps
    the tilted log-likelihood statistic well conditioned."""
    p, q, w = random_finite_tables(rng, m, weight_span)
    return HypothesisProblem(Distribution.from_pmf((1.0 - floor) * p + floor / m),
                             Distribution.from_pmf((1.0 - floor) * q + floor / m),
                             WeightFunction.table(w))


def _random_weight(rng: np.random.Generator, kind: str,
                   max_rate: float) -> WeightFunction:
    if kind == "constant":
        return WeightFunction.constant(float(np.exp(rng.uniform(-1.0, 1.0))))
    if kind == "exponential":
        g = float(rng.uniform(-max_rate, max_rate))
        return WeightFunction.exponential(g)
    if kind == "quadratic":
        b = float(rng.uniform(-1.0, 1.0))
        c = float(b * b / 4.0 + np.exp(rng.uniform(-1.0, 0.5)))
        return WeightFunction.quadratic(b, c)
    return WeightFunction.absolute()


def random_continuous_problem(rng: np.random.Generator) -> HypothesisProblem:
    """A catalog pair with a compatible random weight."""
    fam = rng.choice(["gaussian", "exponential", "gamma"])
    if fam == "gaussian":
        mu1, mu2 = rng.uniform(-1.5, 1.5, size=2)
        s1, s2 = np.exp(rng.uniform(-0.6, 0.6, size=2))
        p = Distribution.gaussian(float(mu1), float(s1))
        q = Distribution.gaussian(float(mu2), float(s2))
        kind = rng.choice(["constant", "exponential", "quadratic", "absolute"])
        wf = _random_weight(rng, str(kind), max_rate=0.6)
    elif fam == "exponential":
        l1, l2 = np.exp(rng.uniform(0.0, 1.2, size=2))
        p = Distribution.exponential(float(l1))
        q = Distribution.exponential(float(l2))
        kind = rng.choice(["constant", "exponential", "quadratic", "absolute"])
        wf = _random_weight(rng, str(kind), max_rate=0.4 * min(l1, l2))
    else:
        sh1, sh2 = np.exp(rng.uniform(0.2, 1.1, size=2))
        b1, b2 = np.exp(rng.uniform(0.0, 0.9, size=2))
        p = Distribution.gamma(float(sh1), float(b1))
        q = Distribution.gamma(float(sh2), float(b2))
        kind = rng.choice(["constant", "exponential", "quadratic", "absolute"])
        wf = _random_weight(rng, str(kind), max_rate=0.4 * min(b1, b2))
    return HypothesisProblem(p, q, wf)
