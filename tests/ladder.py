"""Literal ladder-operator composition: the reference for the eigenfunction map.

The package maps a state through A~_n- A_n+ in a pole-free reduced form
(``factor.map_eigenstate``).  Here the four first-order operators A_n+-,
A~_n+- are applied as written, on the grid, and the tests check the reduced
form, the zero mode and the factorization identities against them.  A
deformed operator takes the deformation function f; the others take None.
``weighted_defect`` is the m-weighted PDM operator the tests apply.
"""

import numpy as np

from pdmfactor.errors import (
    ConfigurationError,
    DegenerateStateError,
    InconsistentInputError,
)
from pdmfactor.factor import DEFAULT_GUARD_BAND
from pdmfactor.grids import SampledFunction, _node_crossings, derivative

_LADDER_KINDS = ("A_plus", "A_minus", "Atilde_plus", "Atilde_minus")


def _ladder_values(kind, w, f, model, v, dv, ddv):
    """Apply one ladder operator given input samples and derivatives.

    Products W * v are formed as (psi_n' v)/psi_n so the only unusable nodes
    are the exact zeros of psi_n.  Returns (u, du); du is None when ddv was
    not supplied.
    """
    x = w.state.x
    m = model.mass(x)
    mp = model.mass_d1(x)
    mpp = model.mass_d2(x)
    sqm = np.sqrt(m)
    g = 1.0 / sqm
    B = -mp / (2.0 * m * sqm)  # (1/sqrt(m))'
    Bp = -mpp / (2.0 * m * sqm) + 3.0 * mp * mp / (4.0 * m * m * sqm)
    d2 = derivative(w.state.with_values(w.state_d1)).values  # psi_n'', as partner_plus
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = w.state_d1 / w.state.values  # psi_n'/psi_n
        rp = d2 / w.state.values - r * r  # (psi_n'/psi_n)'
        if kind in ("A_plus", "Atilde_plus"):
            u = (dv - r * v) * g
            du = None if ddv is None else (ddv - r * dv - rp * v) * g + B * (dv - r * v)
        else:
            u = -g * dv - B * v - r * g * v
            du = None if ddv is None else (
                -g * ddv - 2.0 * B * dv - r * g * dv - (Bp + rp * g + r * B) * v
            )
        if kind in ("Atilde_plus", "Atilde_minus"):
            fv = f.values.values
            u = u + fv * v
            if du is not None:
                dfv = derivative(f.values).values
                du = du + dfv * v + fv * dv
    return u, du


def _check_ladder_args(psi, w, f, kinds):
    """Known kinds, f given exactly when one is deformed, psi on W_n's grid,
    so a misused oracle fails instead of giving a wrong reference."""
    for kind in kinds:
        if kind not in _LADDER_KINDS:
            raise ConfigurationError(f"unknown ladder operator {kind!r}")
    tilde = any(kind.startswith("Atilde") for kind in kinds)
    if tilde and f is None:
        raise ConfigurationError("deformed operators require a deformation function")
    if not tilde and f is not None:
        raise ConfigurationError("undeformed operators take no deformation function")
    if psi.grid != w.state.grid:
        raise InconsistentInputError("state and superpotential grids differ")


def apply_ladder(psi, w, f, model, which):
    """One of A_n+- ("A_plus", "A_minus"), A~_n+- ("Atilde_plus",
    "Atilde_minus") applied to psi; NaN exactly on W_n's guard bands."""
    _check_ladder_args(psi, w, f, (which,))
    dv = derivative(psi)
    u, _ = _ladder_values(which, w, f, model, psi.values, dv.values, None)
    u[w.values.singular_mask] = np.nan
    return SampledFunction(psi.grid, u)


def ladder_pair(psi, w, f, model, first, second):
    """second after first, applied to psi.

    The intermediate state has genuine poles at the nodes of the defining
    state, so its derivative is carried algebraically instead of being
    re-differenced across the pole.  The result is NaN only where psi_n is
    exactly zero on the grid.
    """
    _check_ladder_args(psi, w, f, (first, second))
    dv = derivative(psi)
    ddv = derivative(dv)
    u, du = _ladder_values(first, w, f, model, psi.values, dv.values, ddv.values)
    out, _ = _ladder_values(second, w, f, model, u, du, None)
    return SampledFunction(psi.grid, out)


def node_positions(w):
    """The nodes of W_n's defining state: the sign changes that
    ``superpotential`` counts, each placed by linear interpolation."""
    x, v = w.state.x, w.state.values
    return [
        float(x[lo] + (x[hi] - x[lo]) * v[lo] / (v[lo] - v[hi]))
        for lo, hi in _node_crossings(v)
    ]


def weighted_defect(model, potential, psi, energy):
    """-psi'' + (m'/m) psi' + m (V - E) psi: the PDM equation times m.

    The tests' one application of the operator, with 4th-order stencils.
    The m-weighted form keeps every coefficient O(1) where the mass vanishes
    at the truncation wings; divide by m for the residual of
    -(1/m) psi'' + (m'/m^2) psi' + (V - E) psi.
    """
    x = psi.x
    m = model.mass(x)
    d1 = derivative(psi)
    d2 = derivative(d1)
    return -d2.values + (model.mass_d1(x) / m) * d1.values + m * (
        potential.values - energy
    ) * psi.values


def intertwining_residual(fac, psi_k, k):
    """Relative residual of the intertwining relation on the level-k state.

    The caller names the level k of psi_k; its eigenvalue under the shifted
    Hamiltonian (m, V_n-) is e_k = E_k - E_n, from fac.model.  Computes
    K = A~_n- A_n+ psi_k by literal operator composition and returns
    |H~ K - (e_k + beta) K|_inf / |K|_inf over the nodes where the stencils
    are clean (away from the pole bands and the grid edges).
    """
    model = fac.model
    e_k = model.energy(k) - model.energy(fac.W_n.n)
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
    for pos in node_positions(fac.W_n):
        i = int(round((pos - K.grid.x_min) / K.grid.h))  # the node nearest to pos
        ok[max(0, i - reach) : i + reach + 1] = False
    ok &= np.isfinite(res)
    return float(np.max(res[ok]) / amax)
