"""Semantic exception hierarchy shared by all winfer modules."""

import functools


class WinferError(Exception):
    """Base class for all library errors."""


class DomainMismatchError(WinferError):
    """Weight function, densities, or rules live on different outcome spaces."""


class NonConvergentIntegralError(WinferError):
    """A budget exhausted above tolerance, a mesh missing its mass, or a float overflow."""


class NoSamplerError(WinferError):
    """Distribution has no sampler contract."""


class AlphabetTooLargeError(WinferError):
    """Subset-enumeration oracle limited to small finite alphabets."""


class EnumerationTooLargeError(WinferError):
    """Exact enumeration over types exceeds the configured cap."""


class InfiniteKLError(WinferError):
    """Operation requires a finite weighted Kullback-Leibler divergence."""


class IllegalParameterError(WinferError):
    """Family or weight parameters outside their legal range."""


class ParameterOutOfDomainError(WinferError):
    """Natural parameter (or a scaled/mixed one) left the family domain."""


class ZeroWeightMassError(WinferError):
    """E_phi(p) = 0; tilted quantities are undefined."""


class RegularityError(WinferError):
    """A differentiation/integration interchange identity failed its self-test."""


class SchemaError(WinferError):
    """Problem-spec JSON failed validation."""


def overflow_refused(fn):
    """``fn``, with an ``OverflowError`` of its float arithmetic (``math.exp``
    or ``**`` past the float range) raised as the library's numerical error."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OverflowError as exc:
            raise NonConvergentIntegralError(f"float arithmetic overflows: {exc}") from None
    return wrapper
