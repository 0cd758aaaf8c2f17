"""Special functions for the closed-form models: Hermite and Jacobi
polynomials by three-term recurrence."""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = ["hermite", "jacobi"]

HERMITE_MAX_DEGREE = 60


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
