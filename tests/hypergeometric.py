"""Closed-form reference for the auxiliary solution of the sech^2-mass model.

The package marches every auxiliary solution from where it decays; for ex2
the same solution has a closed form, a Pfaff-transformed Gauss
hypergeometric series, and the tests compare the march against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pdmfactor.errors import DomainError

HYP_SERIES_EDGE = 1.0 - 1e-3


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

    Outside that window the series is either divergent or too slow.
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


def ex2_seed_closed_form(model, n: int, beta: float, x: np.ndarray) -> np.ndarray:
    """ex2's solution at energy E_n - beta that decays like exp(c x / 2) as
    x -> -infinity, for x left of about 6.9.

    Written via the Pfaff transform as a series in w = e^x/(1 + e^x), which
    converges for w < 1; the form is even in the sign of the auxiliary
    exponent P, so the root choice is immaterial.  P^2 < 0 (complex series
    parameters) is outside this real-arithmetic form.
    """
    a, b, c = model.a, model.b, model.c
    e = model.energy(n) - beta
    p2 = (a + b) ** 2 - 2.0 * c * (a + b - c + 1.0) + 4.0 * e
    if p2 < 0.0:
        raise DomainError(f"complex series parameters (P^2 = {p2} < 0)")
    P = math.sqrt(p2)
    params = HypergeometricParams(0.5 * (a + b + P), 0.5 * (a + b - P), c)
    w = 1.0 / (1.0 + np.exp(-x))
    pref = np.exp(0.5 * c * x) / (1.0 + np.exp(x)) ** (0.5 * (a + b + 1.0))
    return pref * gauss_2f1(params, w)
