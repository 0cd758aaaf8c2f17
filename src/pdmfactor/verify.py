"""Composite checks tying the factorization pipeline to the eigensolver.

Isospectrality is verified spectrally: both the shifted original potential
and its deformed partner are solved numerically and compared level by level.
The Riccati residual checks the deformation function against its
constraint.  Both read a finished FactorizationResult; the lambda scan of
the beta = 0 route lives beside that route, in ``factor``.  The
intertwining relation is checked in the tests, where tests/ladder.py
composes the ladder operators literally on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .factor import FactorizationResult
from .grids import derivative
from .spectra import solve_spectrum

__all__ = [
    "IsospectralityReport",
    "check_isospectral",
    "riccati_residual",
]


@dataclass
class IsospectralityReport:
    """Level-by-level comparison of the original (shifted) and deformed spectra."""

    levels_checked: int
    pairs: list[tuple[float, float, float]]  # (E_original + beta, E_deformed, |gap|)
    max_gap: float
    node_match: bool
    tolerance: float
    passed: bool  # max_gap <= tolerance and node_match


def check_isospectral(fac: FactorizationResult, k_levels: int) -> IsospectralityReport:
    """Solve (m, V_n-) and (m, V~_n-) and compare E_k + beta with E~_k.

    A gap above the model's spectrum_tolerance produces a failed report, not
    an exception; a singular deformation violates the precondition and raises.
    """
    if fac.f_n.is_singular:
        raise DomainError("deformation function is singular; isospectrality is undefined")
    beta = fac.spectrum_shift
    original = solve_spectrum(fac.model, fac.V_n_minus, k_levels)
    deformed = solve_spectrum(fac.model, fac.V_tilde_minus, k_levels)
    pairs = []
    for j in range(k_levels):
        a = float(original.eigenvalues[j] + beta)
        b = float(deformed.eigenvalues[j])
        pairs.append((a, b, abs(a - b)))
    max_gap = max(g for _, _, g in pairs)
    node_match = original.node_counts == deformed.node_counts
    tol = fac.model.spectrum_tolerance
    return IsospectralityReport(
        levels_checked=k_levels,
        pairs=pairs,
        max_gap=max_gap,
        node_match=node_match,
        tolerance=tol,
        passed=max_gap <= tol and node_match,
    )


def riccati_residual(fac: FactorizationResult) -> float:
    """Max absolute defect of the deformation constraint at usable nodes."""
    f = fac.f_n.values
    x = f.x
    model = fac.model
    m = model.mass(x)
    mp = model.mass_d1(x)
    sqm = np.sqrt(m)
    df = derivative(f)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w_vals = -fac.W_n.log_deriv() / sqm
        res = df.values / sqm + (2.0 * w_vals + mp / (2.0 * m * sqm)) * f.values + (
            f.values**2
        ) - fac.spectrum_shift
    # W_n's log-derivative is finite in its guard band, which is still unusable
    ok = ~fac.W_n.values.singular_mask
    ok[:4] = False
    ok[-4:] = False
    ok &= np.isfinite(res)
    if not np.any(ok):
        raise ConfigurationError(
            f"no node of the {f.grid.n_points}-point grid lies clear of the edges and of"
            " the node bands of W_n; the Riccati residual needs more grid points"
        )
    return float(np.max(np.abs(res[ok])))
