"""Composite checks tying the factorization pipeline to the eigensolver.

Isospectrality is verified spectrally: both the shifted original potential
and its deformed partner are solved numerically and compared level by level.
The Riccati residual checks the exported W_n, f_n and V~_n- against the
deformation constraint; nothing here takes a derivative.  Both read a
finished FactorizationResult; the lambda scan of the beta = 0 route lives
beside that route, in ``factor``.  The intertwining relation is checked in
the tests, where tests/ladder.py composes the ladder operators literally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .factor import FactorizationResult
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
    """Max |defect| of the deformation constraint with the exported W_n, f_n
    and V~_n-, reading f'/sqrt(m) as (V_n- + beta - V~_n-)/2; its rounding
    floor is about eps |V_n-| where that deformation term is tiny."""
    f = fac.f_n.values
    model = fac.model
    m = model.mass(f.x)
    mp = model.mass_d1(f.x)
    sqm = np.sqrt(m)
    beta = fac.spectrum_shift
    w = fac.W_n.values.values  # NaN in its guard bands
    with np.errstate(over="ignore", invalid="ignore"):
        df_sqm = 0.5 * (fac.V_n_minus.values + beta - fac.V_tilde_minus.values)
        res = df_sqm + (2.0 * w + mp / (2.0 * m * sqm)) * f.values + f.values**2 - beta
    # the NaN bands of W_n and f drop out, and so do the 4 nodes at each edge
    ok = np.isfinite(res)
    ok[:4] = False
    ok[-4:] = False
    if not np.any(ok):
        raise ConfigurationError(
            f"no node of the {f.grid.n_points}-point grid lies clear of the edges and of"
            " the node bands of W_n; the Riccati residual needs more grid points"
        )
    return float(np.max(np.abs(res[ok])))
