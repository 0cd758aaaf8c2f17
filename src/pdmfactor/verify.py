"""Composite checks tying the factorization pipeline to the eigensolver.

Isospectrality is verified spectrally: both the shifted original potential
and its deformed partner are solved numerically and compared level by level.
The lambda scan locates the singularity window of the beta = 0 deformation,
and the intertwining check applies the second-order composite operator
literally on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigurationError, DegenerateStateError, DomainError
from .factor import (
    DEFAULT_GUARD_BAND,
    FactorizationResult,
    bernoulli_f,
    factorize,
    ladder_pair,
    paper_ex1_lambda,
)
from .grids import SampledFunction, derivative, normalize_state
from .models import PdmModel, model_constant_mass_ho, weighted_defect
from .spectra import solve_spectrum

__all__ = [
    "IsospectralityReport",
    "ScanReport",
    "check_isospectral",
    "scan_lambda",
    "intertwining_residual",
    "riccati_residual",
    "constant_mass_limit_check",
]

_CONVENTIONS = ("normalized", "paper-ex1")


@dataclass
class IsospectralityReport:
    """Level-by-level comparison of the original (shifted) and deformed spectra."""

    levels_checked: int
    pairs: list[tuple[float, float, float]]  # (E_original + beta, E_deformed, |gap|)
    max_gap: float
    node_match: bool
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_gap <= self.tolerance and self.node_match

    def to_json_dict(self) -> dict:
        return {
            "levels_checked": self.levels_checked,
            "pairs": [[float(a), float(b), float(g)] for a, b, g in self.pairs],
            "max_gap": float(self.max_gap),
            "node_match": bool(self.node_match),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
        }


@dataclass
class ScanReport:
    """Singularity flags over a lambda sweep, with the window edges crossed."""

    lambda_values: list[float]
    singular_flags: list[bool]
    critical_lambda: Optional[float]
    boundaries: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "lambda_values": [float(v) for v in self.lambda_values],
            "singular_flags": [bool(b) for b in self.singular_flags],
            "critical_lambda": None
            if self.critical_lambda is None
            else float(self.critical_lambda),
            "boundaries": [float(b) for b in self.boundaries],
        }


def check_isospectral(model: PdmModel, n: int, fac: FactorizationResult,
                      k_levels: int, tol: float) -> IsospectralityReport:
    """Solve (m, V_n-) and (m, V~_n-) and compare E_k + beta with E~_k.

    A gap above tol produces a failed report, not an exception; a singular
    deformation violates the precondition and raises.
    """
    if fac.f_n.is_singular:
        raise DomainError("deformation function is singular; isospectrality is undefined")
    beta = fac.spectrum_shift
    original = solve_spectrum(model, fac.V_n_minus, k_levels)
    deformed = solve_spectrum(model, fac.V_tilde_minus, k_levels)
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
    )


def scan_lambda(model: PdmModel, n: int, lambdas, convention: str = "normalized",
                grid=None) -> ScanReport:
    """Run the beta = 0 deformation over a lambda sweep and flag singularity.

    The denominator lambda + F of the Bernoulli route vanishes on the grid
    exactly when lambda lies in [-max F, -min F], F the running integral of
    psi_n^2, so each flag transition reports the window edge it crosses in
    closed form.  critical_lambda is the last boundary (the
    singular-to-nonsingular edge when scanning upward).  Iterations are
    independent; they can be distributed freely as long as results are
    merged in lambda order.
    """
    if convention not in _CONVENTIONS:
        raise ConfigurationError(f"unknown lambda convention {convention!r}")
    lambdas = [float(v) for v in lambdas]
    if len(lambdas) == 0:
        raise ConfigurationError("empty lambda range")
    g = grid or model.recommended_grid
    psi_n = normalize_state(model.eigenstate_samples(n, g))
    shift = -paper_ex1_lambda(0.0) if convention == "paper-ex1" else 0.0
    # a plain loop keeps the previous result alive while the next one is
    # built, so the allocator reuses its blocks instead of releasing and
    # regrowing the heap top on every call (otherwise about 60 page faults
    # per call, measured on 401-step scans at N = 8001)
    flags = []
    for lam in lambdas:
        deformation = bernoulli_f(psi_n, model, lam - shift)
        flags.append(deformation.is_singular)
    F = deformation.cumulative_norm.values
    # adding the shift (0.0 or 0.5) also turns the edge -F[0] = -0.0 into +0.0
    lower, upper = -np.max(F) + shift, -np.min(F) + shift
    # stepping up into the window, or down out of it, crosses its lower edge
    boundaries = [
        float(lower if (b > a) == flag_b else upper)
        for a, b, flag_a, flag_b in zip(lambdas, lambdas[1:], flags, flags[1:])
        if flag_a != flag_b
    ]
    critical = boundaries[-1] if boundaries else None
    return ScanReport(
        lambda_values=lambdas,
        singular_flags=flags,
        critical_lambda=critical,
        boundaries=boundaries,
    )


def intertwining_residual(model: PdmModel, n: int, fac: FactorizationResult,
                          psi_k: SampledFunction, e_k: float) -> float:
    """Relative residual of the intertwining relation on one bound state.

    e_k is the eigenvalue of psi_k under the shifted Hamiltonian (m, V_n-),
    i.e. the base energy minus E_n.  Computes K = A~_n- A_n+ psi_k by literal
    operator composition and returns |H~ K - (e_k + beta) K|_inf / |K|_inf
    over the nodes where the stencils are clean (away from the pole bands
    and the grid edges).
    """
    K = ladder_pair(psi_k, fac.W_n, fac.f_n, model, "A_plus", "Atilde_minus")
    amax = float(np.max(np.abs(K.values[~K.singular_mask])))
    if amax < 1e-12 * float(np.max(np.abs(psi_k.values))):
        raise DegenerateStateError("composite state is numerically zero (k = n?)")
    defect = weighted_defect(model, fac.V_tilde_minus, K, e_k + fac.spectrum_shift)
    res = np.abs(defect / model.mass(K.x))
    ok = np.ones(K.grid.n_points, dtype=bool)
    ok[:8] = False
    ok[-8:] = False
    reach = DEFAULT_GUARD_BAND + 6
    for pos in fac.W_n.node_positions:
        i = int(round((pos - K.grid.x_min) / K.grid.h))
        ok[max(0, i - reach) : i + reach + 1] = False
    ok &= ~K.singular_mask
    ok &= np.isfinite(res)
    return float(np.max(res[ok]) / amax)


def riccati_residual(fac: FactorizationResult) -> float:
    """Max absolute defect of the deformation constraint at usable nodes."""
    f = fac.f_n.values
    x = f.x
    model = fac.model
    m = model.mass(x)
    mp = model.mass_d1(x)
    sqm = np.sqrt(m)
    df = derivative(f)
    with np.errstate(divide="ignore", invalid="ignore"):
        w_vals = -fac.W_n.log_deriv() / sqm
        res = df.values / sqm + (2.0 * w_vals + mp / (2.0 * m * sqm)) * f.values + (
            f.values**2
        ) - fac.spectrum_shift
    ok = ~(f.singular_mask | df.singular_mask | fac.W_n.values.singular_mask)
    ok[:4] = False
    ok[-4:] = False
    ok &= np.isfinite(res)
    return float(np.max(np.abs(res[ok])))


def constant_mass_limit_check(k_levels: int = 4, tol: float = 1e-4) -> IsospectralityReport:
    """Full pipeline on the constant-mass oscillator (n = 1, lambda = 1)."""
    ho = model_constant_mass_ho()
    fac = factorize(ho, 1, beta=0.0, lam=1.0)
    return check_isospectral(ho, 1, fac, k_levels, tol)

