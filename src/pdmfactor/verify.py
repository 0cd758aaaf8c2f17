"""Composite checks tying the factorization pipeline to the eigensolver.

Isospectrality is verified spectrally: both the shifted original potential
and its deformed partner are solved numerically and compared level by level.
The lambda scan locates the singularity window of the beta = 0 deformation,
and the Riccati residual checks the deformation function against its
constraint.  The intertwining relation is checked in the tests, where
tests/ladder.py composes the ladder operators literally on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DomainError
from .factor import FactorizationResult, bernoulli_f, bernoulli_terms, lambda_shift
from .grids import derivative, normalize_state
from .models import PdmModel
from .spectra import solve_spectrum

__all__ = [
    "IsospectralityReport",
    "ScanReport",
    "check_isospectral",
    "scan_lambda",
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


@dataclass
class ScanReport:
    """Singularity flags over a lambda sweep, with the window edges crossed."""

    lambda_values: list[float]
    singular_flags: list[bool]
    critical_lambda: Optional[float]
    boundaries: list[float] = field(default_factory=list)


def check_isospectral(fac: FactorizationResult, k_levels: int,
                      tol: float) -> IsospectralityReport:
    """Solve (m, V_n-) and (m, V~_n-) and compare E_k + beta with E~_k.

    A gap above tol produces a failed report, not an exception; a singular
    deformation violates the precondition and raises.
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
    return IsospectralityReport(
        levels_checked=k_levels,
        pairs=pairs,
        max_gap=max_gap,
        node_match=node_match,
        tolerance=tol,
        passed=max_gap <= tol and node_match,
    )


def scan_lambda(model: PdmModel, n: int, lambdas, convention: str = "normalized",
                grid=None) -> ScanReport:
    """Flag the beta = 0 deformation's singularity over a lambda sweep.

    The lambda-independent terms (``bernoulli_terms``) are built once.  The
    denominator lambda + F, F the running integral of psi_n^2, has a zero or
    a sign change on the grid exactly when lambda lies in the closed window
    [-max F, -min F], so every lambda there is flagged singular.  Outside
    it, IEEE addition keeps the sign of each sum and is monotone, so every
    |lambda + F_j| is at least the gap to the nearer edge; when
    max psi_n^2 / (min sqrt(m) gap) is finite, every sample of f is, and the
    flag is False.  Only a lambda whose bound overflows (within about 1e-305
    of an edge) runs the per-lambda construction (``bernoulli_f``), whose
    flag is then the scan's.  Each transition into or out of the window
    reports the edge it crosses, in closed form from the same F, so a
    boundary always lies between its two lambdas; a flag change caused by
    overflow alone reports none.  critical_lambda is the last boundary (the
    singular-to-nonsingular edge when scanning upward).  The window
    flags the whole sweep at once; only the overflow fallback runs per
    lambda, once for each lambda it takes.
    """
    shift = lambda_shift(convention)
    lambdas = [float(v) for v in lambdas]
    if len(lambdas) == 0:
        raise ConfigurationError("empty lambda range")
    g = grid or model.recommended_grid
    psi_n = normalize_state(model.eigenstate_samples(n, g))
    terms = bernoulli_terms(psi_n, model)
    f_min, f_max = float(np.min(terms.F)), float(np.max(terms.F))
    lam_eff = np.array(lambdas) - shift
    inside = (-f_max <= lam_eff) & (lam_eff <= -f_min)
    # outside the window, |lambda + F_j| >= gap to the nearer edge
    gap = np.abs(lam_eff + np.where(lam_eff < -f_max, f_max, f_min))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        certified = np.isfinite(np.max(terms.q2) / (np.min(terms.sqm) * gap))
    in_window = inside.tolist()
    flags = in_window.copy()
    for i in np.flatnonzero(~inside & ~certified).tolist():
        flags[i] = bernoulli_f(terms, float(lam_eff[i])).is_singular
    # adding the shift (0.0 or 0.5) also turns the edge -F[0] = -0.0 into +0.0
    lower, upper = -f_max + shift, -f_min + shift
    # stepping up into the window, or down out of it, crosses its lower edge
    boundaries = [
        lower if (b > a) == in_b else upper
        for a, b, in_a, in_b in zip(lambdas, lambdas[1:], in_window, in_window[1:])
        if in_a != in_b
    ]
    critical = boundaries[-1] if boundaries else None
    return ScanReport(
        lambda_values=lambdas,
        singular_flags=flags,
        critical_lambda=critical,
        boundaries=boundaries,
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
