"""Outcome spaces, weight functions, densities, and the shared numerical engines.

Conventions
-----------
* Finite alphabets are indexed 0..m-1; pmfs, weight tables, and decision rules
  are plain float vectors over those indices.  The reference measure is
  counting measure.
* Countable supports are the nonnegative integers with counting measure
  (needed for the Poisson catalog family); series are summed adaptively in
  blocks until the running tail drops below ``tail_mass_bound``.
* Continuous supports (real line, half line, d-vectors) carry Lebesgue
  measure.  Unbounded integrals are truncated to a window on which the
  integrand's tail mass is provably below ``tail_mass_bound``; windows come
  from distribution envelope hints (center/scale/tail kind) widened by the
  weight function's exponential growth rate.
* Everything is immutable after construction and pure, so callers may use any
  parallelism they like.  Each Monte Carlo run draws from one generator seeded
  with ``SeedSequence(seed)``, so a fixed seed reproduces its draws.
* The ``Distribution`` catalog constructors are the one place where a family's
  density, sampler, envelope, support and parameter checks are written;
  ``expfam`` and ``estimation`` build their members from them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from scipy.special import gammaln, xlogy

from .errors import (
    DomainMismatchError,
    IllegalParameterError,
    NonConvergentIntegralError,
    NoSamplerError,
)

__all__ = [
    "Support",
    "WeightFunction",
    "check_finite_tables",
    "Distribution",
    "FiniteDistribution",
    "IntegrationConfig",
    "Integrand",
    "integrate",
    "sample",
    "finite_difference_gradient",
    "gauss_hermite_nodes",
]

_GAUSSIAN_TAIL_SIGMAS = 14.0  # one-sided Gaussian tail beyond 14 sigma < 1e-43
_EXP_TAIL_SLACK = 80.0  # covers polynomial prefactors on exponential tails
_MAX_SERIES_TERMS = 200_000
_SERIES_BLOCK = 64  # series terms summed per lockstep round
_MAX_ROUNDS = 64  # rounds per adaptive integral, and halvings of a starting panel
_GH_MAX_D = 3  # L^d nodes: at the ladder's top level, 60, 216k at d = 3 and 13M at d = 4


def _finite(name: str, value, ndim: int = 0):
    """``value`` as a float (``ndim`` 0) or a float array with ``ndim`` axes;
    ``IllegalParameterError`` unless every entry is a finite int or float."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind not in "iuf" \
            or not np.isfinite(arr).all():
        what = "a finite number" if ndim == 0 else f"a {ndim}-d array of finite numbers"
        raise IllegalParameterError(f"{name} must be {what}, got {value!r}")
    return float(arr) if ndim == 0 else arr.astype(float)


def check_finite_tables(pmfs, weights=None) -> None:
    """``IllegalParameterError`` unless finite tables of one shape (..., m >= 1)
    are valid per row: pmf entries >= -1e-15 summing to 1 within 1e-12 (a row
    holding an inf or a NaN does not), weights finite and >= 0."""
    tables = (*pmfs, *(() if weights is None else (weights,)))
    if tables[0].shape[-1] < 1 or any(t.shape != tables[0].shape for t in tables):
        raise IllegalParameterError("finite tables must be nonempty and of one length")
    for p in pmfs:
        if (p < -1e-15).any():
            raise IllegalParameterError("pmf entries must be nonnegative")
        if not (np.abs(p.sum(axis=-1) - 1.0) <= 1e-12).all():
            raise IllegalParameterError("pmf must sum to 1 within 1e-12")
    if weights is not None and not ((weights >= 0.0) & (weights < math.inf)).all():
        raise IllegalParameterError("table weights must be finite and nonnegative")


# ---------------------------------------------------------------------------
# outcome spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Support:
    """An outcome space together with its (implied) reference measure."""

    kind: str  # "finite" | "real-line" | "half-line" | "real-vector" | "counting"
    m: int = 0                      # alphabet size (finite)
    labels: tuple = ()              # optional outcome labels (finite)
    lower: float = 0.0              # left endpoint (half-line)
    d: int = 1                      # dimension (real-vector)

    def __post_init__(self):
        if self.kind == "finite":
            if self.m < 1:
                raise IllegalParameterError("finite alphabet needs m >= 1")
            try:
                distinct = len(set(self.labels)) if self.labels else self.m
            except TypeError:  # an unhashable label, e.g. a list
                distinct = -1
            if distinct != self.m:
                raise IllegalParameterError("labels must be distinct, hashable and match m")
        elif self.kind == "real-vector":
            if not 1 <= self.d <= 8:
                raise IllegalParameterError("vector support limited to 1 <= d <= 8")
        elif self.kind not in ("real-line", "half-line", "counting"):
            raise IllegalParameterError(f"unknown support kind {self.kind!r}")

    def same_space(self, other: "Support") -> bool:
        if self.kind != other.kind:
            return False
        if self.kind == "finite":
            return self.m == other.m
        if self.kind == "real-vector":
            return self.d == other.d
        if self.kind == "half-line":
            return self.lower == other.lower
        return True

    @staticmethod
    def finite(m: int, labels: Sequence = ()) -> "Support":
        return Support(kind="finite", m=m, labels=tuple(labels))

    @staticmethod
    def real_line() -> "Support":
        return Support(kind="real-line")

    @staticmethod
    def half_line(lower: float = 0.0) -> "Support":
        return Support(kind="half-line", lower=lower)

    @staticmethod
    def real_vector(d: int) -> "Support":
        return Support(kind="real-vector", d=d)

    @staticmethod
    def counting() -> "Support":
        return Support(kind="counting")


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightFunction:
    """Nonnegative value/importance function phi on an outcome space.

    ``gamma`` of the exponential spec may be a scalar (phi(x)=e^{gamma x}) or a
    length-d vector (phi(x)=e^{x.gamma}).  ``coeffs`` are ascending polynomial
    coefficients.  ``values`` is the table over a finite alphabet.  Closed
    forms of the weighted moments live with the families, in ``expfam``.
    """

    kind: str  # "constant" | "exponential" | "polynomial" | "absolute" | "table" | "product"
    c: float = 1.0
    gamma: float | tuple = 0.0
    coeffs: tuple = ()
    values: tuple = ()
    factors: tuple = ()  # inner WeightFunctions for the product spec
    # ``values`` as a read-only array, built once
    _table: Optional[np.ndarray] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "constant" and self.c < 0:
            raise IllegalParameterError("constant weight must be >= 0")
        if self.kind == "table":
            v = np.asarray(self.values, dtype=float)
            check_finite_tables((), v)
            v.flags.writeable = False
            object.__setattr__(self, "_table", v)
        if self.kind == "polynomial":
            if len(self.coeffs) == 0:
                raise IllegalParameterError("polynomial weight needs coefficients")
            self._check_poly_nonnegative()
        if self.kind not in ("constant", "exponential", "polynomial", "absolute",
                             "table", "product"):
            raise IllegalParameterError(f"unknown weight kind {self.kind!r}")

    def _check_poly_nonnegative(self):
        c = np.asarray(self.coeffs, dtype=float)
        if len(c) == 3 and c[2] == 1.0:
            # monic quadratic x^2 + bx + c admitted iff c >= b^2/4
            if c[0] < c[1] ** 2 / 4.0 - 1e-12:
                raise IllegalParameterError("x^2+bx+c requires c >= b^2/4")
            return
        # generic certificate: minimum over stationary points and +-inf behavior
        if len(c) > 1:
            if len(c) % 2 == 0 or c[-1] < 0:
                raise IllegalParameterError("polynomial weight unbounded below")
            der = np.polynomial.polynomial.polyder(c)
            roots = np.roots(der[::-1])
            real = roots[np.abs(roots.imag) < 1e-9].real
            vals = np.polynomial.polynomial.polyval(real, c) if real.size else np.array([c[0]])
            if np.min(vals) < -1e-12:
                raise IllegalParameterError("polynomial weight takes negative values")
        elif c[0] < 0:
            raise IllegalParameterError("constant term must be >= 0")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.full(x.shape if x.ndim else (), self.c, dtype=float)
        if self.kind == "exponential":
            g = self.gamma
            if np.ndim(g) == 0:
                return np.exp(float(g) * x)
            return np.exp(x @ np.asarray(g, dtype=float))
        if self.kind == "polynomial":
            return np.polynomial.polynomial.polyval(x, np.asarray(self.coeffs, dtype=float))
        if self.kind == "absolute":
            return np.abs(x)
        if self.kind == "table":
            idx = np.asarray(x, dtype=int)
            return self._table[idx]
        if self.kind == "product":
            out = np.ones(x.shape[:-1] if x.ndim > 1 else (), dtype=float)
            for i, f in enumerate(self.factors):
                out = out * f(x[..., i])
            return out
        raise AssertionError(self.kind)

    def log_value(self, x):
        """log phi(x); -inf where phi vanishes."""
        with np.errstate(divide="ignore"):
            if self.kind == "exponential":
                g = self.gamma
                x = np.asarray(x, dtype=float)
                if np.ndim(g) == 0:
                    return float(g) * x
                return x @ np.asarray(g, dtype=float)
            return np.log(self(x))

    # -- hints used by the integration engine -------------------------------

    @property
    def kink_points(self) -> tuple:
        """Locations where the weight is non-smooth (quadrature hints)."""
        if self.kind == "absolute":
            return (0.0,)
        return ()

    @property
    def exp_rate(self) -> float:
        """Scalar exponential growth rate (0 for subexponential weights)."""
        if self.kind == "exponential" and np.ndim(self.gamma) == 0:
            return float(self.gamma)
        return 0.0

    @property
    def exp_rate_vector(self):
        if self.kind == "exponential" and np.ndim(self.gamma) > 0:
            return np.asarray(self.gamma, dtype=float)
        return None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def constant(c: float = 1.0) -> "WeightFunction":
        return WeightFunction(kind="constant", c=_finite("c", c))

    @staticmethod
    def exponential(gamma) -> "WeightFunction":
        if not isinstance(gamma, (list, tuple)) and np.ndim(gamma) == 0:
            return WeightFunction(kind="exponential", gamma=_finite("gamma", gamma))
        return WeightFunction(kind="exponential",
                              gamma=tuple(_finite("gamma", gamma, 1).tolist()))

    @staticmethod
    def polynomial(coeffs: Sequence[float]) -> "WeightFunction":
        return WeightFunction(kind="polynomial",
                              coeffs=tuple(_finite("coeffs", coeffs, 1).tolist()))

    @staticmethod
    def quadratic(b: float, c: float) -> "WeightFunction":
        """x^2 + bx + c with the nonnegativity certificate c >= b^2/4."""
        return WeightFunction.polynomial((c, b, 1.0))

    @staticmethod
    def absolute() -> "WeightFunction":
        return WeightFunction(kind="absolute")

    @staticmethod
    def table(values: Sequence[float]) -> "WeightFunction":
        return WeightFunction(kind="table", values=tuple(_finite("values", values, 1).tolist()))

    @staticmethod
    def product(factors: Sequence["WeightFunction"]) -> "WeightFunction":
        return WeightFunction(kind="product", factors=tuple(factors))

    def check_fits(self, support: Support) -> None:
        """``DomainMismatchError`` for a table off a finite support or of another
        length than its alphabet, and for a rate vector of another length than
        the vectors of the support."""
        if self.kind == "table":
            n, need, size = len(self.values), "finite", support.m
        elif (g := self.exp_rate_vector) is not None:
            n, need, size = g.size, "real-vector", support.d
        else:
            return
        if support.kind != need or n != size:
            raise DomainMismatchError(f"a length-{n} {self.kind} weight needs a {need} support "
                                      f"of size {n}, not {support.kind} of size {size}")

    def table_on(self, support: Support) -> np.ndarray:
        """Evaluate as a vector over a finite alphabet."""
        if support.kind != "finite":
            raise DomainMismatchError("table_on needs a finite support")
        self.check_fits(support)
        return self._table if self.kind == "table" else \
            np.asarray(self(np.arange(support.m)), dtype=float)


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiniteDistribution:
    """A pmf over a finite alphabet: entries >= 0, summing to 1 within 1e-12."""

    pmf: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.pmf, dtype=float)
        object.__setattr__(self, "pmf", p)
        if p.ndim != 1 or p.size < 1:
            raise IllegalParameterError("pmf must be a 1-d vector")
        check_finite_tables((p,))

    @property
    def m(self) -> int:
        return int(self.pmf.size)


@dataclass(frozen=True)
class Distribution:
    """Density w.r.t. the support's reference measure, plus envelope metadata.

    ``center``/``scale``/``tail`` describe a decay envelope used to truncate
    unbounded integrals; ``family``/``params`` tag catalog members so closed
    forms can be recognized.  ``sampler(rng, size)`` is the optional seeded
    sampler contract.
    """

    support: Support
    pdf: Optional[Callable] = None
    finite: Optional[FiniteDistribution] = None
    sampler: Optional[Callable] = None
    family: str = ""
    params: dict = field(default_factory=dict)
    center: object = 0.0          # float, or vector for real-vector supports
    scale: object = 1.0           # float, or covariance for real-vector supports
    tail: str = "gaussian"        # "gaussian" | "exponential" | "bounded"
    window: Optional[tuple] = None  # explicit (lo, hi) truncation override
    logpdf: Optional[Callable] = None  # analytic log-density (underflow-safe)

    def density(self, x):
        if self.finite is not None:
            return self.finite.pmf[np.asarray(x, dtype=int)]
        return np.asarray(self.pdf(x), dtype=float)

    def log_density(self, x):
        if self.logpdf is not None:
            return np.asarray(self.logpdf(x), dtype=float)
        with np.errstate(divide="ignore"):
            return np.log(self.density(x))

    def draw(self, rng: np.random.Generator, size: int):
        if self.sampler is None:
            raise NoSamplerError(f"distribution {self.family or '<anonymous>'} has no sampler")
        return self.sampler(rng, size)

    # -- catalog constructors ------------------------------------------------

    @staticmethod
    def from_pmf(pmf, labels: Sequence = ()) -> "Distribution":
        fin = FiniteDistribution(_finite("pmf", pmf, 1))
        sup = Support.finite(fin.m, labels)

        def _sampler(rng, size, _p=fin.pmf):
            return rng.choice(fin.m, size=size, p=_p / _p.sum())

        return Distribution(support=sup, finite=fin, sampler=_sampler,
                            family="pmf", tail="bounded")

    @staticmethod
    def gaussian(mu: float, sigma2: float) -> "Distribution":
        mu, sigma2 = _finite("mu", mu), _finite("sigma2", sigma2)
        if sigma2 <= 0:
            raise IllegalParameterError("sigma2 must be > 0")
        sd = math.sqrt(sigma2)

        def _pdf(x, _mu=mu, _sd=sd):
            x = np.asarray(x, dtype=float)
            return np.exp(-((x - _mu) ** 2) / (2 * _sd * _sd)) / (math.sqrt(2 * math.pi) * _sd)

        return Distribution(
            support=Support.real_line(), pdf=_pdf,
            sampler=lambda rng, size: rng.normal(mu, sd, size=size),
            family="gaussian-scalar", params={"mu": mu, "sigma2": sigma2},
            center=mu, scale=sd, tail="gaussian")

    @staticmethod
    def gaussian_mv(mean, cov) -> "Distribution":
        mean, cov = _finite("mean", mean, 1), _finite("cov", cov, 2)
        d = mean.size
        if cov.shape != (d, d):
            raise IllegalParameterError(f"cov must be {d} x {d} to match the mean")
        # the Cholesky factor below reads the lower triangle only
        if np.max(np.abs(cov - cov.T)) > 1e-12 * np.max(np.abs(cov)):
            raise IllegalParameterError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError as exc:
            raise IllegalParameterError("covariance must be positive-definite") from exc
        # whitening map: cov^-1 = W W^T, so the Mahalanobis form is |(x - m) W|^2
        white = np.linalg.inv(chol).T
        log_norm = -0.5 * (d * math.log(2 * math.pi)) - float(np.sum(np.log(np.diag(chol))))

        def _pdf(x, _m=mean, _w=white, _c=log_norm):
            x = np.atleast_2d(np.asarray(x, dtype=float))
            y = (x - _m) @ _w
            out = np.exp(_c - 0.5 * np.einsum("ni,ni->n", y, y))
            return out if x.shape[0] > 1 else out[0]

        def _sampler(rng, size, _m=mean, _chol=chol, _d=d):
            z = rng.standard_normal(size=(size, _d))
            return _m + z @ _chol.T

        return Distribution(
            support=Support.real_vector(d), pdf=_pdf, sampler=_sampler,
            family="gaussian-multivariate", params={"mean": mean, "cov": cov},
            center=mean, scale=cov, tail="gaussian")

    @staticmethod
    def exponential(lam: float) -> "Distribution":
        lam = _finite("lam", lam)
        if lam <= 0:
            raise IllegalParameterError("lam must be > 0")

        def _pdf(x, _l=lam):
            x = np.asarray(x, dtype=float)
            return np.where(x >= 0, _l * np.exp(-_l * np.where(x >= 0, x, 0.0)), 0.0)

        return Distribution(
            support=Support.half_line(0.0), pdf=_pdf,
            sampler=lambda rng, size: rng.exponential(1.0 / lam, size=size),
            family="exponential", params={"lam": lam},
            center=0.0, scale=1.0 / lam, tail="exponential")

    @staticmethod
    def gamma(lam: float, beta: float) -> "Distribution":
        """Gamma with shape lam > 0 and rate beta > 0."""
        lam, beta = _finite("lam", lam), _finite("beta", beta)
        if lam <= 0 or beta <= 0:
            raise IllegalParameterError("shape and rate must be > 0")
        s = 1.0 / beta
        shape_m1, log_norm = lam - 1.0, gammaln(lam)

        def on_support(y):
            # scipy.stats.gamma(lam, scale=s).pdf, operation for operation
            return np.exp(xlogy(shape_m1, y) - y - log_norm) / s

        def _pdf(x):
            y = np.asarray(x, dtype=float) / s
            on = y >= 0
            if np.all(on):
                return on_support(y)
            out = np.where(np.isnan(y), np.nan, 0.0)
            out[on] = on_support(y[on])
            return out

        return Distribution(
            support=Support.half_line(0.0), pdf=_pdf,
            sampler=lambda rng, size: rng.gamma(lam, s, size=size),
            family="gamma", params={"lam": lam, "beta": beta},
            center=0.0, scale=s, tail="exponential")

    @staticmethod
    def poisson(lam: float) -> "Distribution":
        lam = _finite("lam", lam)
        if lam <= 0:
            raise IllegalParameterError("lam must be > 0")

        return Distribution(
            support=Support.counting(), pdf=lambda x: poisson_pmf(x, lam),
            logpdf=lambda x: poisson_logpmf(x, lam),
            sampler=lambda rng, size: rng.poisson(lam, size=size),
            family="poisson", params={"lam": lam},
            center=lam, scale=math.sqrt(lam), tail="exponential")


def poisson_logpmf(k, mu: float):
    """log Poisson(mu) pmf at k; -inf off the nonnegative integers, NaN at NaN.

    Follows scipy.stats.poisson's arithmetic operation for operation, so the
    values agree bit for bit, without its per-call argument handling.
    """
    def on_support(k):
        return xlogy(k, mu) - gammaln(k + 1) - mu

    k = np.asarray(k)
    with np.errstate(invalid="ignore"):
        on = (k >= 0) & (np.floor(k) == k)
    if np.all(on):
        return on_support(k)
    out = np.where(np.isnan(k), np.nan, -np.inf)
    out[on] = on_support(k[on])
    return out


def poisson_pmf(k, mu: float):
    """Poisson(mu) pmf at k, clipped to [0, 1] as scipy.stats.poisson does."""
    return np.clip(np.exp(poisson_logpmf(k, mu)), 0, 1)


# ---------------------------------------------------------------------------
# integration / summation engines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntegrationConfig:
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 2000
    tail_mass_bound: float = 1e-14

    def __post_init__(self):
        if min(self.rel_tol, self.abs_tol, self.tail_mass_bound) <= 0:
            raise IllegalParameterError("tolerances must be strictly positive")


def _window_for(support: Support, cfg: IntegrationConfig, dists: Sequence[Distribution],
                wf: Optional[WeightFunction]) -> tuple:
    """Truncation window covering every envelope, shifted for weight growth."""
    for d in dists:
        if d.window is not None:
            return d.window
    rate = wf.exp_rate if wf is not None else 0.0
    los, his = [], []
    for d in dists:
        c = float(np.asarray(d.center).reshape(-1)[0])
        s = float(d.scale) if np.ndim(d.scale) == 0 else 1.0
        if d.tail == "gaussian":
            c_eff = c + rate * s * s  # exponential tilt recenters a gaussian
            los.append(c_eff - _GAUSSIAN_TAIL_SIGMAS * s)
            his.append(c_eff + _GAUSSIAN_TAIL_SIGMAS * s)
        elif d.tail == "exponential":
            decay = 1.0 / s  # reference decay rate of the envelope
            if rate >= decay - 1e-12 and support.kind == "half-line":
                raise NonConvergentIntegralError(
                    "weight growth rate meets or exceeds the density decay rate")
            eff = decay - max(rate, 0.0)
            los.append(support.lower if support.kind == "half-line" else c - _EXP_TAIL_SLACK * s)
            his.append(c + (-math.log(cfg.tail_mass_bound) + _EXP_TAIL_SLACK) / eff)
        else:
            raise NonConvergentIntegralError(
                "unbounded support without an envelope hint; supply explicit window")
    lo, hi = min(los), max(his)
    if support.kind == "half-line":
        lo = max(lo, support.lower)
    return lo, hi


class Integrand(NamedTuple):
    """One component of a lockstep ``integrate`` call: ``g`` maps the shared
    evaluator's arrays to the integrand, elementwise; ``dists``, ``wf`` and
    ``points`` set its own window (or series length) and breakpoints."""

    g: Callable
    dists: tuple = ()
    wf: Optional[WeightFunction] = None
    points: tuple = ()


def integrate(f: Callable, support: Support, cfg: IntegrationConfig,
              dists: Sequence[Distribution] = (), wf: Optional[WeightFunction] = None,
              points: Sequence[float] = (), components: Optional[Sequence[Integrand]] = None):
    """Integrate f against the support's reference measure.

    Returns ``(value, error_estimate)``.  ``dists`` supply envelope hints for
    truncating unbounded domains, ``wf`` contributes its growth rate, and
    ``points`` marks known kinks (e.g. density crossing points) passed to the
    adaptive subdivision; one outside the window, or closer to its lower edge
    than the finest panel there, is dropped.  A kink it does not list is
    refined unaided, and its error estimate there is optimistic.

    With ``components``, f returns a tuple of shared arrays and each
    ``Integrand`` integrates ``g(*f(x))`` as a lone call would, in lockstep:
    each round calls f once, on the new panels (or the next block of terms) of
    every active component.  The result is a list of
    ``(value, error_estimate)`` or the ``NonConvergentIntegralError`` met.
    """
    single = components is None
    if single:
        lone = f
        f = lambda x: (lone(x),)
        components = (Integrand(lambda v: v, tuple(dists), wf, tuple(points)),)
    if support.kind == "real-vector":
        raise DomainMismatchError(
            "integrate handles scalar supports; vector integrands use gauss_hermite_nodes")
    if support.kind == "finite":
        shared = f(np.arange(support.m))
        out = [(float(np.sum(np.asarray(c.g(*shared), dtype=float))), 0.0)
               for c in components]
    elif support.kind == "counting":
        out = _lockstep_series(f, components, cfg)
    else:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = _lockstep_gk(f, support, components, cfg)
    if single and isinstance(out[0], NonConvergentIntegralError):
        raise out[0]
    return out[0] if single else out


# Gauss-Kronrod 7/15 pair on [-1, 1]: Kronrod nodes, Kronrod weights, and the
# embedded Gauss weights (zero at the Kronrod-only nodes).
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813])
_GK_WK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529])
_GK_WG = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0, 0.381830050505119,
    0.0, 0.279705391489277, 0.0, 0.129484966168870, 0.0])
_BASE_EDGES = np.arange(17.0)  # 16 equal starting panels per window


def _gk_panels(f, gs: list, counts: np.ndarray, los: np.ndarray, his: np.ndarray,
               rows: Optional[np.ndarray] = None):
    """G7/K15 on a batch of panels, ``counts[i]`` of ``gs[i]`` in a row: f runs
    once, on the nodes of every panel, then each g on its own slice of rows.
    With ``rows``, row k of the batch is panel ``rows[k]``, so f runs once on
    a panel that several components share."""
    mid = 0.5 * (los + his)
    half = 0.5 * (his - los)
    xs = mid[:, None] + half[:, None] * _GK_NODES
    shared = [np.asarray(a, dtype=float).reshape(xs.shape) for a in f(xs.reshape(-1))]
    if rows is not None:
        half, shared = half[rows], [a[rows] for a in shared]
    if len(gs) == 1:
        vals = np.asarray(gs[0](*shared), dtype=float)
    else:
        vals, start = np.empty(shared[0].shape), 0
        for g, n in zip(gs, counts.tolist()):
            vals[start:start + n] = g(*(a[start:start + n] for a in shared))
            start += n
    # einsum, not matmul: BLAS rounds a row differently by its place in the batch
    ik = half * np.einsum("ij,j->i", vals, _GK_WK)
    diff = np.abs(ik - half * np.einsum("ij,j->i", vals, _GK_WG))
    # QUADPACK-style error heuristic for the embedded pair
    err = np.where(diff > 0, (200.0 * diff) ** 1.5, 0.0)
    return ik, np.minimum(err, np.maximum(diff * 200.0, np.finfo(float).tiny))


def _accepted(val: float, err: float, cfg: IntegrationConfig):
    """``(val, err)``, or the error that refuses them."""
    if not math.isfinite(val):
        return NonConvergentIntegralError("integrand produced a non-finite value")
    if err > max(cfg.abs_tol * 100.0, cfg.rel_tol * 100.0 * abs(val), 1e-9 * max(1.0, abs(val))):
        return NonConvergentIntegralError(
            f"quadrature error estimate {err:.3e} too large for value {val:.6e}")
    return val, err


def _lockstep_gk(f, support: Support, comps: Sequence[Integrand],
                 cfg: IntegrationConfig) -> list:
    """Adaptive subdivision with the embedded G7/K15 pair, per component: from
    16 equal panels of its window, cut at its breakpoints, each round splits
    every panel whose error exceeds a quarter of its share of the budget,
    until the summed error meets max(abs_tol, rel_tol * |integral|), or it has
    ``max_subdivisions`` panels or none it may split.  Panels bisect, but on a
    half-line the one at the lower edge splits at h/16, h/8, h/4 and h/2
    (Schwab, Computing 53, 1994), no finer than ``_MAX_ROUNDS`` halvings of
    its starting panel, a floor below which breakpoints are dropped.  Panels
    sit in flat arrays by component, each in a lone run's order (kept, left
    halves, right halves, graded pieces), so sums match it."""
    out: list = [None] * len(comps)
    ids, edges, windows = [], [], {}  # by the ids of (dists, wf): a Distribution is unhashable
    for i, c in enumerate(comps):
        key = (*map(id, c.dists), id(c.wf))
        try:
            if key not in windows:
                windows[key] = _window_for(support, cfg, c.dists, c.wf)
            lo, hi = windows[key]
            if not lo < hi:  # it would integrate a unit mass to 0
                raise NonConvergentIntegralError(f"the truncation window [{lo!r}, {hi!r}] "
                                                 "has no width in floats")
        except NonConvergentIntegralError as exc:
            out[i] = exc
            continue
        step = (hi - lo) / (_BASE_EDGES.size - 1)
        floor = lo + step * 2.0 ** -_MAX_ROUNDS
        inner = [p for p in tuple(c.points) + (c.wf.kink_points if c.wf else ()) if floor < p < hi]
        e = _BASE_EDGES * step + lo  # np.linspace(lo, hi, 17), bit for bit
        e[-1] = hi
        # a step above 4 ulps keeps the rounded edges distinct and increasing
        if inner or not step > 4.0 * math.ulp(max(abs(lo), abs(hi))):
            e = np.unique(np.concatenate([e, inner]))
        ids.append(i)
        edges.append(e)
    if not ids:
        return out
    gs = [comps[i].g for i in ids]
    # components with equal edges share their starting panels: f runs once on each
    distinct = {e.tobytes(): e for e in edges}
    firsts = dict(zip(distinct, np.cumsum([0] + [e.size - 1 for e in distinct.values()])))
    rows = np.concatenate([firsts[e.tobytes()] + np.arange(e.size - 1) for e in edges])
    los = np.concatenate([e[:-1] for e in distinct.values()])
    his = np.concatenate([e[1:] for e in distinct.values()])
    counts = np.array([e.size - 1 for e in edges])
    starts = counts.cumsum() - counts
    graded, first = support.kind == "half-line", np.array([e[:2] for e in edges])  # first panels
    vals, errs = _gk_panels(f, gs, counts, los, his, rows)
    los, his = los[rows], his[rows]
    for rnd in range(_MAX_ROUNDS + 1):
        total, tot_err = np.add.reduceat(vals, starts), np.add.reduceat(errs, starts)
        tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        spread = (lambda a: np.repeat(a, counts)) if len(ids) > 1 else (lambda a: a)  # onto panels
        # n panels at or below tol / (4 n) sum below tol: one is due unless at the floor
        split = errs > spread(0.25 * tol / counts)
        if graded:  # halvings a panel takes: 4 at the lower edge, else 1, none past the floor
            room = np.where(his <= spread(first[:, 1]), _MAX_ROUNDS + np.rint(np.log2(
                (his - los) / spread(first[:, 1] - first[:, 0]))), 1)
            levels = split * np.minimum(room, 1 + 3 * (los == support.lower)).astype(np.intp)
            split = levels > 0
        nsplit = np.add.reduceat(split, starts, dtype=np.intp)
        # a non-finite total has tol NaN or inf, so it stops here
        go = (tot_err > tol) & (counts < cfg.max_subdivisions) & (nsplit > 0) & (rnd < _MAX_ROUNDS)
        if not go.all():
            for j in np.flatnonzero(~go).tolist():
                out[ids[j]] = _accepted(float(total[j]), float(tot_err[j]), cfg)
            if not go.any():
                break
            live = np.repeat(go, counts)
            los, his, vals, errs, split = los[live], his[live], vals[live], errs[live], split[live]
            levels = levels[live] if graded else None
            ids = [i for i, a in zip(ids, go.tolist()) if a]
            gs = [g for g, a in zip(gs, go.tolist()) if a]
            counts, nsplit, first = counts[go], nsplit[go], first[go]
            starts = counts.cumsum() - counts
        many = len(ids) > 1
        keep = ~split
        lo, hi = los[split], his[split]
        mid = 0.5 * (lo + hi)
        new_lo, new_hi = np.concatenate([lo, mid]), np.concatenate([mid, hi])
        nnew, extra = 2 * nsplit, []  # extra: the split panel of each graded piece
        if graded:  # halve each lower-edge left half again, levels - 1 times
            lv, nnew = levels[split], nsplit + np.add.reduceat(levels, starts, dtype=np.intp)
            for n in range(1, lv.max(initial=1)):
                extra.append(j := np.flatnonzero(lv > n))
                cut = 0.5 * (new_lo[j] + new_hi[j])
                new_lo, new_hi = np.append(new_lo, cut), np.append(new_hi, new_hi[j])
                new_hi[j] = cut
        if many:  # regroup the new panels, then all panels, by component
            group = np.repeat(np.arange(len(ids)), counts)
            gsplit = group[split]
            order = np.argsort(np.concatenate([gsplit, gsplit] + [gsplit[j] for j in extra]),
                               kind="stable")
            new_lo, new_hi = new_lo[order], new_hi[order]
        new_v, new_e = _gk_panels(f, gs, nnew, new_lo, new_hi)
        los, his = np.concatenate([los[keep], new_lo]), np.concatenate([his[keep], new_hi])
        vals, errs = np.concatenate([vals[keep], new_v]), np.concatenate([errs[keep], new_e])
        counts = counts - nsplit + nnew
        if many:
            order = np.argsort(np.concatenate([group[keep], np.repeat(
                np.arange(len(ids)), nnew)]), kind="stable")
            los, his, vals, errs = los[order], his[order], vals[order], errs[order]
            starts = counts.cumsum() - counts
    return out


def _lockstep_series(f, comps: Sequence[Integrand], cfg: IntegrationConfig) -> list:
    """Block summation over l = 0, 1, 2, ..., one block for all components a
    round; each stops after two quiet blocks past its envelopes' mass peak
    plus 12 scales (quiet leading blocks of a Poisson of large mean do not
    count)."""
    out: list = [None] * len(comps)
    min_terms = np.array([max([int(float(np.ravel(d.center)[0]) + 12.0 * (
        float(d.scale) if np.ndim(d.scale) == 0 else 1.0)) + 1 for d in c.dists], default=0)
        for c in comps])
    ids = list(range(len(comps)))
    total, peak, quiet = np.zeros(len(comps)), np.zeros(len(comps)), np.zeros(len(comps), int)
    start = 0
    while start < _MAX_SERIES_TERMS:
        shared = f(np.arange(start, start + _SERIES_BLOCK))
        vals = np.array([np.asarray(comps[i].g(*shared), dtype=float) for i in ids])
        finite = np.isfinite(vals).all(axis=1)
        babs = np.abs(vals).sum(axis=1)
        total += vals.sum(axis=1)
        np.maximum(peak, babs, out=peak)
        start += _SERIES_BLOCK
        quiet = (quiet + 1) * ((start >= min_terms) & (babs <= cfg.tail_mass_bound * np.maximum(
            np.maximum(1.0, np.abs(total)), peak)))
        go = finite & (quiet < 2)
        if not go.all():
            for j in np.flatnonzero(~go).tolist():
                t = float(total[j])
                out[ids[j]] = (t, cfg.tail_mass_bound * max(1.0, abs(t))) if finite[j] \
                    else NonConvergentIntegralError("series term not finite")
            if not go.any():
                return out
            ids = [i for i, a in zip(ids, go.tolist()) if a]
            total, peak, quiet, min_terms = total[go], peak[go], quiet[go], min_terms[go]
    for i in ids:
        out[i] = NonConvergentIntegralError("series did not converge within the term budget")
    return out


@functools.lru_cache(maxsize=None)
def _hermegauss(level: int) -> tuple:
    """Read-only 1-D probabilists' Gauss-Hermite rule: nodes, weights against
    exp(-x^2/2) (they sum to sqrt(2 pi)), and those weights times exp(x^2/2)."""
    x, w = np.polynomial.hermite_e.hermegauss(level)
    out = (x, w, w * np.exp(0.5 * x * x))
    for a in out:
        a.flags.writeable = False
    return out


def gauss_hermite_nodes(center, cov, level: int = 40) -> tuple:
    """Tensor Gauss-Hermite rule for Lebesgue integrals on R^d, in factored
    form ``(wr, x, center, chol)``: the nodes are ``center + chol z`` for z on
    the row-major grid of the 1-D nodes ``x``, and ``sum(wr_i f(node_i)) ~=
    integral f dx``.  The flat weights are the closed form ``sqrt(det cov) *
    prod_k (w_k exp(z_k^2 / 2))`` with the 1-D weights ``w_k`` against
    exp(-z^2/2) (Jaeckel, "A note on multivariate Gauss-Hermite quadrature",
    2005).  ``mesh_density`` and ``mesh_weight`` evaluate on the rule as
    broadcast sums over its axes; no node matrix is built.
    """
    center = np.atleast_1d(np.asarray(center, dtype=float))
    d = center.size
    if d > _GH_MAX_D:
        raise IllegalParameterError(f"tensor Gauss-Hermite rules need d <= {_GH_MAX_D}, not {d}")
    cov = np.asarray(cov, dtype=float)
    if cov.ndim == 0:
        cov = np.eye(d) * float(cov)
    x, _, w = _hermegauss(level)
    chol = np.linalg.cholesky(cov)
    wr = w * float(np.prod(np.diag(chol)))
    for _ in range(d - 1):  # entry i is ((sqrt(det cov) w[i_0]) * w[i_1]) * ...
        wr = np.multiply.outer(wr, w)
    return wr.reshape(-1), x, center, chol


def mesh_coords(rule, lower=None, shift=None) -> list:
    """Entry i is shift_i + sum_{k <= i} lower_ik z_k on the rule's grid z, a
    broadcast array over the axes k <= i; by default (the rule's Cholesky
    factor and center) it is coordinate i of the nodes."""
    _, x, center, chol = rule
    d = center.size
    lower, shift = (chol, center) if lower is None else (lower, shift)
    axes = [x.reshape((x.size,) + (1,) * (d - 1 - k)) for k in range(d)]
    return [sum((lower[i, k] * axes[k] for k in range(i + 1)), shift[i]) for i in range(d)]


def mesh_density(rule, dist: "Distribution") -> np.ndarray:
    """A Gaussian's density at the rule's nodes, flat.  For dist = N(m, P P^T)
    its log at ``center + L z`` is log_norm - |y|^2, where y = b + A z with
    A = P^-1 L / sqrt(2) lower-triangular and b = P^-1 (center - m) / sqrt(2)."""
    if dist.family != "gaussian-multivariate":
        raise DomainMismatchError("vector integrals need multivariate Gaussians")
    _, _, center, chol = rule
    pc = np.linalg.cholesky(dist.scale) * math.sqrt(2.0)
    out = -0.5 * (center.size * math.log(math.pi)) - float(np.sum(np.log(np.diag(pc))))
    a, b = np.linalg.solve(pc, chol), np.linalg.solve(pc, center - dist.center)
    for y in mesh_coords(rule, a, b):
        y *= y
        out = out - y
    return np.exp(out, out=out).reshape(-1)


def mesh_weight(rule, wf: WeightFunction) -> np.ndarray:
    """phi * wr at the rule's nodes, flat: exp(g . x) is exp of a linear form in
    z, and a product weight's factor i is evaluated on coordinate i."""
    wr, _, center, chol = rule
    if wf.kind == "constant":
        return wr * wf.c
    g = wf.exp_rate_vector
    if g is not None:  # g . x = g . center + (L^T g) . z, a last row that spans every axis
        lower = np.zeros((center.size, center.size))
        lower[-1] = chol.T @ g
        out = mesh_coords(rule, lower, np.full(center.size, float(g @ center)))[-1]
        out = np.exp(out, out=out).reshape(-1)
        return np.multiply(out, wr, out=out)
    if wf.kind == "product":
        factors = [f(x) for f, x in zip(wf.factors, mesh_coords(rule))]
        phi = functools.reduce(np.multiply, factors, 1.0)
        return (phi * wr.reshape((rule[1].size,) * center.size)).reshape(-1)
    raise DomainMismatchError(f"weight spec {wf.kind!r} is not defined on vector outcomes")


# ---------------------------------------------------------------------------
# sampling and differentiation
# ---------------------------------------------------------------------------

def sample(dist: Distribution, n: int, seed: int):
    """Reproducible draws: identical (dist, n, seed) yields identical output."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if n == 0:
        first = dist.draw(rng, 1)
        return np.asarray(first)[:0]
    return np.asarray(dist.draw(rng, n))


def finite_difference_gradient(f: Callable, theta, h: float = 1e-5) -> np.ndarray:
    """Central differences per coordinate with step h*max(1, |theta_l|).

    f receives arguments in the same form the caller supplied theta (bare
    scalar or vector).
    """
    scalar_arg = np.ndim(theta) == 0
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    grad = np.empty_like(theta)
    for l in range(theta.size):
        step = h * max(1.0, abs(theta[l]))
        up = theta.copy(); up[l] += step
        dn = theta.copy(); dn[l] -= step
        fu = f(float(up[0]) if scalar_arg else up)
        fd = f(float(dn[0]) if scalar_arg else dn)
        if not (math.isfinite(fu) and math.isfinite(fd)):
            raise NonConvergentIntegralError("finite differences hit a non-finite evaluation")
        grad[l] = (fu - fd) / (2 * step)
    return grad
