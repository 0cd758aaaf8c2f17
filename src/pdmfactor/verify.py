"""Composite checks tying the factorization pipeline to the eigensolver.

Isospectrality is verified spectrally: both the shifted original potential
and its deformed partner are solved numerically and compared level by level,
around level n when the deformation deleted it.
The Riccati residual checks the exported W_n, f_n and V~_n- against the
deformation constraint; nothing here takes a derivative.  Both read a
finished FactorizationResult; the lambda scan of the beta = 0 route lives
beside that route, in ``factor``.  The intertwining relation is checked in
the tests, where tests/ladder.py composes the ladder operators literally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
    deleted_level: Optional[int]  # level n when the deformed problem lost it
    original_levels: list[int]  # the original level k paired with deformed level j
    pairs: list[tuple[float, float, float]]  # (E_k + beta, E~_j, |gap|)
    max_gap: float
    node_match: bool  # k nodes in original level k and j in deformed level j
    tolerance: float
    passed: bool  # max_gap <= tolerance and node_match


def check_isospectral(fac: FactorizationResult, k_levels: int) -> IsospectralityReport:
    """Solve (m, V_n-) and (m, V~_n-) and compare E_k + beta with E~_j.

    Deformed level j pairs with the j-th original level other than the
    deleted one (``fac.deleted_level``), so a deletion solves one more
    original level.  A gap above the model's spectrum_tolerance produces a
    failed report, not an exception; a singular deformation violates the
    precondition and raises.
    """
    if fac.f_n.is_singular:
        raise DomainError("deformation function is singular; isospectrality is undefined")
    beta = fac.spectrum_shift
    deleted = fac.deleted_level
    kept = [k for k in range(k_levels + 1) if k != deleted][:k_levels]
    # the deformed solve refuses k_levels < 1 before kept[-1] is read
    deformed = solve_spectrum(fac.model, fac.V_tilde_minus, k_levels)
    original = solve_spectrum(fac.model, fac.V_n_minus, kept[-1] + 1)
    pairs = []
    for j, k in enumerate(kept):
        a = float(original.eigenvalues[k] + beta)
        b = float(deformed.eigenvalues[j])
        pairs.append((a, b, abs(a - b)))
    max_gap = max(g for _, _, g in pairs)
    node_match = ([original.node_counts[k] for k in kept] == kept
                  and deformed.node_counts == list(range(k_levels)))
    tol = fac.model.spectrum_tolerance
    return IsospectralityReport(
        levels_checked=k_levels,
        deleted_level=deleted,
        original_levels=kept,
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
