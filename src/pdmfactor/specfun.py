"""Special functions for the closed-form models.

Hermite and Jacobi polynomials by three-term recurrence and the Gauss
hypergeometric function by direct power series on [0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["HypergeometricParams", "hermite", "jacobi", "gauss_2f1"]

HERMITE_MAX_DEGREE = 60
HYP_SERIES_EDGE = 1.0 - 1e-3


def hermite(k: int, x):
    """Physicists' Hermite polynomial H_k(x), vectorized in x.

    The three-term recurrence is numerically reliable up to degree 60 here;
    beyond that a ConfigurationError is raised rather than returning noise.
    """
    if k < 0:
        raise DomainError(f"degree must be non-negative, got {k}")
    if k > HERMITE_MAX_DEGREE:
        raise ConfigurationError(f"degree {k} beyond recurrence bound {HERMITE_MAX_DEGREE}")
    x = np.asarray(x, dtype=float)
    p_prev = np.ones_like(x)
    if k == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 2.0 * x
    for j in range(1, k):
        p, p_prev = 2.0 * x * p - 2.0 * j * p_prev, p
    return p if p.ndim else float(p)


def jacobi(n: int, sigma: float, delta: float, x):
    """Jacobi polynomial P_n^(sigma, delta)(x) for sigma, delta > -1, |x| <= 1."""
    if n < 0:
        raise DomainError(f"degree must be non-negative, got {n}")
    if sigma <= -1.0 or delta <= -1.0:
        raise DomainError(f"need sigma, delta > -1, got ({sigma}, {delta})")
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + 1e-12):
        raise DomainError("jacobi argument must satisfy |x| <= 1")
    p_prev = np.ones_like(x)
    if n == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = (sigma - delta) / 2.0 + (sigma + delta + 2.0) / 2.0 * x
    for j in range(2, n + 1):
        a1 = 2.0 * j * (j + sigma + delta) * (2.0 * j + sigma + delta - 2.0)
        a2 = (2.0 * j + sigma + delta - 1.0) * (sigma * sigma - delta * delta)
        a3 = (2.0 * j + sigma + delta - 2.0) * (2.0 * j + sigma + delta - 1.0) * (
            2.0 * j + sigma + delta
        )
        a4 = 2.0 * (j + sigma - 1.0) * (j + delta - 1.0) * (2.0 * j + sigma + delta)
        p, p_prev = ((a2 + a3 * x) * p - a4 * p_prev) / a1, p
    return p if p.ndim else float(p)


@dataclass(frozen=True)
class HypergeometricParams:
    """Parameters (a, b; c) of the Gauss hypergeometric series."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        c = self.c
        if c == 0.0 or (c < 0.0 and c == round(c)):
            raise DomainError(f"c must not be zero or a negative integer, got {c}")


def gauss_2f1(p: HypergeometricParams, z):
    """2F1(a, b; c; z) by direct series, valid for 0 <= z < 1 - 1e-3.

    Outside that window the series is either divergent or too slow; callers
    needing larger arguments must integrate the underlying ODE instead.
    Relative accuracy is 1e-10 or better inside the window.
    """
    arr = np.asarray(z, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel()
    if np.any((flat < 0.0) | (flat >= HYP_SERIES_EDGE)):
        raise DomainError(
            f"series argument must lie in [0, {HYP_SERIES_EDGE}), got range "
            f"[{flat.min()}, {flat.max()}]"
        )
    term = np.ones_like(flat)
    total = np.ones_like(flat)
    a, b, c = p.a, p.b, p.c
    for k in range(100000):
        term = term * ((a + k) * (b + k)) / ((c + k) * (k + 1.0)) * flat
        total += term
        if np.all(np.abs(term) <= 1e-15 * np.abs(total)):
            break
    else:  # pragma: no cover - guarded by the domain check
        raise DomainError("hypergeometric series failed to converge")
    if scalar:
        return float(total[0])
    return total.reshape(arr.shape)
