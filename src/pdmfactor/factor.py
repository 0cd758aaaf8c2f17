"""Excited-state factorization pipeline.

Given a solvable mass/potential pair and a bound-state level n, this module
builds the superpotential W_n (singular at the state's nodes), the partner
potentials V_n-+, a deformation function f_n satisfying the Riccati
constraint

    f'/sqrt(m) + (2 W + m'/(2 m^(3/2))) f + f^2 = beta,

and the nonsingular deformed partner V~_n- = V_n- - 2 f'/sqrt(m) + beta,
together with the ladder operators, the eigenfunction map between the two
Hamiltonians, and the zero mode.

Two routes produce f_n:

* beta = 0: the constraint reduces to a Bernoulli equation with solution
  f = psi_n^2 / (sqrt(m) (lambda + F)), F the running integral of psi_n^2.
* beta != 0: an auxiliary solution ("seed") at energy E_n - beta yields
  f = (log chi)'/sqrt(m) with chi proportional to the mass-weighted
  Wronskian of psi_n and the seed.  chi is built by integrating its exact
  derivative identity chi' = beta psi_n seed, which stays accurate in tails
  where the direct Wronskian cancels catastrophically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateStateError,
    DomainError,
    InconsistentInputError,
    NonNormalizableError,
)
from .grids import (
    Grid,
    SampledFunction,
    _dilate,
    cumulative_integral,
    definite_integral,
    derivative,
    normalize_state,
)
from .models import PdmModel, weighted_defect
from .spectra import count_nodes

__all__ = [
    "Superpotential",
    "DeformationFunction",
    "FactorizationResult",
    "superpotential",
    "partner_minus",
    "partner_plus",
    "bernoulli_f",
    "auxiliary_f",
    "deformed_partner",
    "apply_ladder",
    "ladder_pair",
    "map_eigenstate",
    "zero_mode",
    "spectrum_map",
    "factorize",
    "count_nodes",
    "paper_ex1_lambda",
]

DEFAULT_GUARD_BAND = 3
_NOISE_FLOOR = 1e-9
_SEED_RESIDUAL_GATE = 1e-3
_BRIDGE_SIDE_POINTS = 4


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

def _crossings(values: np.ndarray, floor: float) -> list[tuple[int, int]]:
    """Bracketing index pairs of the sign changes of ``values``.

    Entries with |value| <= floor are indeterminate (exact node hits, noise
    tails) and are skipped; a crossing is reported between the surrounding
    determinate values.
    """
    idx = np.where(np.abs(values) > floor)[0]
    if idx.size < 2:
        return []
    signs = np.sign(values[idx])
    where = np.where(signs[1:] != signs[:-1])[0]
    return [(int(idx[j]), int(idx[j + 1])) for j in where]


def _band_mask(n: int, crossings) -> np.ndarray:
    mask = np.zeros(n, dtype=bool)
    for lo, hi in crossings:
        mask[max(0, lo - DEFAULT_GUARD_BAND + 1) : min(n, hi + DEFAULT_GUARD_BAND)] = True
    return mask


def _bridge(values: np.ndarray, mask: np.ndarray, x: np.ndarray):
    """Fill each masked run by polynomial interpolation through
    _BRIDGE_SIDE_POINTS good nodes on each side.  Returns (values,
    residual_mask) where the residual mask flags runs that could not be
    bridged."""
    v = values.copy()
    left = np.zeros_like(mask)
    for run in _mask_runs(mask):
        lo, hi = run[0], run[-1]
        a = lo - _BRIDGE_SIDE_POINTS
        b = hi + _BRIDGE_SIDE_POINTS + 1
        if a < 0 or b > len(v):
            left[run] = True
            continue
        use = np.r_[a:lo, hi + 1 : b]
        x0 = x[lo]
        coef = np.polyfit(x[use] - x0, v[use], 2 * _BRIDGE_SIDE_POINTS - 1)
        v[run] = np.polyval(coef, x[run] - x0)
    return v, left


# ---------------------------------------------------------------------------
# Superpotential and partner potentials
# ---------------------------------------------------------------------------

@dataclass
class Superpotential:
    """W_n = -psi_n'/(sqrt(m) psi_n) with masked bands around the n poles.

    The defining state and its first two derivatives are retained so that
    ladder applications can form products like W * psi as exact ratios
    instead of multiplying a masked pole by a small number.
    """

    n: int
    values: SampledFunction
    node_positions: list[float]
    state: SampledFunction = field(repr=False)
    state_d1: np.ndarray = field(repr=False)
    state_d2: np.ndarray = field(repr=False)

    def log_deriv(self) -> np.ndarray:
        """psi_n'/psi_n; infinite at the exact nodes."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return self.state_d1 / self.state.values

    def log_deriv_slope(self) -> np.ndarray:
        """(psi_n'/psi_n)' = psi_n''/psi_n - (psi_n'/psi_n)^2."""
        with np.errstate(divide="ignore", invalid="ignore"):
            r = self.state_d1 / self.state.values
            return self.state_d2 / self.state.values - r * r


def superpotential(psi_n: SampledFunction, model: PdmModel, n: int) -> Superpotential:
    """Build W_n from the level-n state; raises if the node count is wrong."""
    x = psi_n.x
    v = psi_n.values
    dpsi = derivative(psi_n)
    floor = _NOISE_FLOOR * np.max(np.abs(v))
    crossings = _crossings(v, floor)
    if len(crossings) != n:
        raise InconsistentInputError(
            f"state has {len(crossings)} sign changes but level {n} was requested"
        )
    sqm = np.sqrt(model.mass(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        w = -dpsi.values / (sqm * v)
    mask = _band_mask(psi_n.grid.n_points, crossings) | ~np.isfinite(w)
    positions = [
        float(x[lo] + (x[hi] - x[lo]) * v[lo] / (v[lo] - v[hi])) for lo, hi in crossings
    ]
    d2 = derivative(dpsi)
    return Superpotential(
        n=n,
        values=SampledFunction(psi_n.grid, np.where(mask, np.nan, w), mask),
        node_positions=positions,
        state=psi_n,
        state_d1=dpsi.values,
        state_d2=d2.values,
    )


def partner_minus(v0: SampledFunction, e_n: float) -> SampledFunction:
    """V_n- is just the base potential shifted down by the level energy."""
    return v0.with_values(v0.values - e_n, v0.singular_mask)


def partner_plus(w: Superpotential, model: PdmModel, v_n_minus: SampledFunction) -> SampledFunction:
    """V_n+ = V_n- + 2 W'/sqrt(m) - (1/sqrt(m)) (1/sqrt(m))''.

    Singular at the W pole bands (flagged, not bridged: the poles are real).
    """
    x = v_n_minus.x
    m = model.mass(x)
    mp = model.mass_d1(x)
    mpp = model.mass_d2(x)
    sqm = np.sqrt(m)
    r = w.log_deriv()
    rp = w.log_deriv_slope()
    with np.errstate(divide="ignore", invalid="ignore"):
        w_prime = -rp / sqm + r * mp / (2.0 * m * sqm)
        curvature_term = -mpp / (2.0 * m * m) + 3.0 * mp * mp / (4.0 * m ** 3)
        vals = v_n_minus.values + 2.0 * w_prime / sqm - curvature_term
    mask = w.values.singular_mask | v_n_minus.singular_mask | ~np.isfinite(vals)
    return SampledFunction(v_n_minus.grid, np.where(mask, np.nan, vals), mask)


# ---------------------------------------------------------------------------
# Deformation functions
# ---------------------------------------------------------------------------

@dataclass
class DeformationFunction:
    """The extra term f_n of the deformed operators.

    Singularity is recorded in the value mask, never hidden: a masked f means
    the deformation fails for these parameters.
    """

    values: SampledFunction
    beta: float
    route: str  # "bernoulli" | "auxiliary"
    lam: Optional[float] = None
    cumulative_norm: Optional[SampledFunction] = field(default=None, repr=False)
    chi: Optional[SampledFunction] = field(default=None, repr=False)
    seed: Optional[SampledFunction] = field(default=None, repr=False)

    @property
    def is_singular(self) -> bool:
        return self.values.is_singular


def bernoulli_f(psi_n: SampledFunction, model: PdmModel, lam: float) -> DeformationFunction:
    """beta = 0 deformation: f = psi_n^2 / (sqrt(m) (lambda + F)).

    F runs from 0 at the left edge, so with a normalized state the
    denominator crosses zero exactly when lambda lies in [-1, 0].  Crossings
    are flagged in the mask; nothing is raised.
    """
    norm2 = definite_integral(psi_n.with_values(psi_n.values**2))
    if abs(norm2 - 1.0) > 1e-6:
        raise InconsistentInputError(
            f"state must be unit-normalized on the grid (got norm^2 = {norm2})"
        )
    x = psi_n.x
    F = cumulative_integral(psi_n.with_values(psi_n.values**2))
    den = lam + F.values
    sqm = np.sqrt(model.mass(x))
    with np.errstate(divide="ignore", invalid="ignore"):
        f = psi_n.values**2 / (sqm * den)
    crossings = _crossings(den, 0.0)  # denominator crossings are genuine
    mask = _band_mask(psi_n.grid.n_points, crossings)
    mask |= den == 0.0
    mask |= ~np.isfinite(f)
    return DeformationFunction(
        values=SampledFunction(psi_n.grid, np.where(mask, np.nan, f), mask),
        beta=0.0,
        route="bernoulli",
        lam=lam,
        cumulative_norm=F,
    )


def _edge_log_slope(prod: np.ndarray, h: float, left: bool) -> float:
    """One-sided 4th-order slope of log|prod| at an edge; nan when unusable."""
    seg = prod[:5] if left else prod[-5:][::-1]
    if np.any(seg == 0.0) or np.any(np.sign(seg) != np.sign(seg[0])):
        return float("nan")
    lp = np.log(np.abs(seg))
    slope = (-25 * lp[0] + 48 * lp[1] - 36 * lp[2] + 16 * lp[3] - 3 * lp[4]) / (12.0 * h)
    return slope if left else -slope


def auxiliary_f(seed: SampledFunction, psi_n: SampledFunction, model: PdmModel,
                w_n: Superpotential, beta: float) -> DeformationFunction:
    """beta != 0 deformation from an auxiliary solution at energy E_n - beta.

    chi = (psi_n seed' - psi_n' seed)/m obeys chi' = beta psi_n seed exactly,
    so chi is reconstructed by quadrature of that identity, started from the
    asymptotic value at a decaying edge (the direct Wronskian cancels to
    noise there).  f = beta psi_n seed / (sqrt(m) chi) is then smooth through
    the nodes of psi_n; only genuine zero crossings of chi are flagged.
    """
    if seed.grid != psi_n.grid:
        raise InconsistentInputError("seed and state live on different grids")
    x = psi_n.x
    h = psi_n.grid.h
    m = model.mass(x)
    sqm = np.sqrt(m)

    e_seed = model.energy(w_n.n) - beta
    _check_pdmse_residual(seed, model, e_seed)

    prod = psi_n.values * seed.values
    F = cumulative_integral(SampledFunction(psi_n.grid, prod))

    mu_left = _edge_log_slope(prod, h, left=True)
    mu_right = _edge_log_slope(prod, h, left=False)
    dseed = derivative(seed)
    wronskian = (psi_n.values * dseed.values - w_n.state_d1 * seed.values) / m
    if np.isfinite(mu_left) and mu_left > 0.0:
        chi = beta * prod[0] / mu_left + beta * F.values
    elif np.isfinite(mu_right) and mu_right < 0.0:
        chi_end = -beta * prod[-1] / mu_right
        chi = chi_end - beta * (F.values[-1] - F.values)
    else:
        i0 = int(np.argmax(np.abs(prod)))
        chi = wronskian[i0] + beta * (F.values - F.values[i0])

    # the direct Wronskian must agree where it is well conditioned
    i_ref = int(np.argmax(np.abs(chi)))
    rel = abs(wronskian[i_ref] - chi[i_ref]) / np.max(np.abs(chi))
    if not np.isfinite(rel) or rel > 1e-4:
        raise InconsistentInputError(
            f"seed is not a solution at E_n - beta (wronskian mismatch {rel:.2e})"
        )

    noise = 64.0 * np.finfo(float).eps * (
        np.abs(psi_n.values * dseed.values) + np.abs(w_n.state_d1 * seed.values)
    ) / m
    crossings = [
        (lo, hi)
        for lo, hi in _crossings(chi, 0.0)
        if abs(chi[lo]) > noise[lo] and abs(chi[hi]) > noise[hi]
    ]
    mask = _band_mask(psi_n.grid.n_points, crossings)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = beta * prod / (sqm * chi)
    mask |= ~np.isfinite(f)
    return DeformationFunction(
        values=SampledFunction(psi_n.grid, np.where(mask, np.nan, f), mask),
        beta=beta,
        route="auxiliary",
        chi=SampledFunction(psi_n.grid, chi),
        seed=seed,
    )


def _check_pdmse_residual(psi: SampledFunction, model: PdmModel, energy: float) -> float:
    """Relative defect of the equation in its m-weighted form, refused above
    _SEED_RESIDUAL_GATE.

    The raw 1/m form would amplify double-precision stencil noise by 1/m at
    the truncation wings, where the mass vanishes, and reject exact
    solutions there.
    """
    res = weighted_defect(model, model.potential_samples(psi.grid), psi, energy)
    scale = np.max(np.abs(psi.values))
    worst = float(np.max(np.abs(res[4:-4])) / scale)
    if worst > _SEED_RESIDUAL_GATE:
        raise InconsistentInputError(
            f"input does not solve the mass-weighted equation at E = {energy} "
            f"(relative residual {worst:.2e})"
        )
    return worst


def deformed_partner(v_n_minus: SampledFunction, f: DeformationFunction,
                     model: PdmModel, beta: float) -> SampledFunction:
    """V~_n- = V_n- - 2 f'/sqrt(m) + beta; masks propagate from f."""
    df = derivative(f.values)
    sqm = np.sqrt(model.mass(v_n_minus.x))
    with np.errstate(invalid="ignore"):
        vals = v_n_minus.values - 2.0 * df.values / sqm + beta
    mask = v_n_minus.singular_mask | df.singular_mask | ~np.isfinite(vals)
    return SampledFunction(v_n_minus.grid, np.where(mask, np.nan, vals), mask)


# ---------------------------------------------------------------------------
# Ladder operators
# ---------------------------------------------------------------------------

_LADDER_KINDS = ("A_plus", "A_minus", "Atilde_plus", "Atilde_minus")


def _ladder_values(kind: str, w: Superpotential, f: Optional[DeformationFunction],
                   model: PdmModel, v: np.ndarray, dv: np.ndarray,
                   ddv: Optional[np.ndarray]):
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
    r = w.log_deriv()
    rp = w.log_deriv_slope()
    with np.errstate(divide="ignore", invalid="ignore"):
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


def apply_ladder(psi: SampledFunction, w: Superpotential,
                 f: Optional[DeformationFunction], model: PdmModel,
                 which: str) -> SampledFunction:
    """Apply one of A_n+-, A~_n+- to a sampled state.

    The W pole bands are masked in the output and bridged by interpolation
    when the limit is finite there (the input vanishes at the node);
    otherwise they stay masked.
    """
    if which not in _LADDER_KINDS:
        raise ConfigurationError(f"unknown ladder operator {which!r}")
    tilde = which.startswith("Atilde")
    if tilde and f is None:
        raise ConfigurationError("deformed operators require a deformation function")
    if not tilde and f is not None:
        raise ConfigurationError("undeformed operators take no deformation function")
    if psi.grid != w.state.grid:
        raise InconsistentInputError("state and superpotential grids differ")
    dv = derivative(psi)
    u, _ = _ladder_values(which, w, f, model, psi.values, dv.values, None)
    mask = w.values.singular_mask | _dilate(psi.singular_mask, 2) | ~np.isfinite(u)
    if tilde:
        mask |= f.values.singular_mask
    u = np.where(mask, np.nan, u)
    # a pole band is bridgeable when the input also changes sign there, so
    # that the product W * psi has a finite limit at the node
    bridgeable = np.zeros_like(mask)
    for run in _mask_runs(mask):
        at_node = any(
            run[0] - 1 <= _nearest_index(psi.grid, pos) <= run[-1] + 1
            for pos in w.node_positions
        )
        lo = max(0, run[0] - 1)
        hi = min(len(u) - 1, run[-1] + 1)
        seg = psi.values[lo : hi + 1]
        input_vanishes = np.any(np.sign(seg[1:]) != np.sign(seg[:-1])) or np.any(seg == 0.0)
        if at_node and input_vanishes:
            bridgeable[run] = True
    if np.any(bridgeable):
        u, residual = _bridge(u, bridgeable, psi.x)
        mask = (mask & ~bridgeable) | residual
    return SampledFunction(psi.grid, np.where(mask, np.nan, u), mask)


def _mask_runs(mask: np.ndarray):
    idx = np.where(mask)[0]
    if idx.size == 0:
        return []
    return np.split(idx, np.where(np.diff(idx) > 1)[0] + 1)


def _nearest_index(grid: Grid, pos: float) -> int:
    return int(round((pos - grid.x_min) / grid.h))


def ladder_pair(psi: SampledFunction, w: Superpotential,
                f: Optional[DeformationFunction], model: PdmModel,
                first: str, second: str) -> SampledFunction:
    """Compose two ladder operators (second after first) stably.

    The intermediate state has genuine poles at the nodes of the defining
    state, so its derivative is carried algebraically instead of being
    re-differenced across the pole.  Only the exact node points end up
    masked; they are bridged by interpolation.
    """
    for kind in (first, second):
        if kind not in _LADDER_KINDS:
            raise ConfigurationError(f"unknown ladder operator {kind!r}")
    dv = derivative(psi)
    ddv = derivative(dv)
    u, du = _ladder_values(first, w, f, model, psi.values, dv.values, ddv.values)
    if du is None:  # pragma: no cover - ddv is always supplied above
        raise RuntimeError("first ladder stage must produce a derivative")
    out, _ = _ladder_values(second, w, f, model, u, du, None)
    mask = ~np.isfinite(out) | _dilate(psi.singular_mask, 4)
    out = np.where(mask, np.nan, out)
    out, residual = _bridge(out, mask, psi.x)
    return SampledFunction(psi.grid, np.where(residual, np.nan, out), residual)


# ---------------------------------------------------------------------------
# Eigenfunction map, zero mode, spectrum map
# ---------------------------------------------------------------------------

@dataclass
class FactorizationResult:
    """All derived objects of one factorization run."""

    model: PdmModel
    n: int
    W_n: Superpotential
    f_n: DeformationFunction
    V_n_minus: SampledFunction
    V_n_plus: SampledFunction
    V_tilde_minus: SampledFunction
    spectrum_shift: float  # beta
    psi_n: SampledFunction = None
    convention: str = "normalized"

    @property
    def grid(self) -> Grid:
        return self.V_n_minus.grid


def map_eigenstate(psi_k: SampledFunction, fac: FactorizationResult) -> SampledFunction:
    """Image of a bound state under A~_n- A_n+, unit-normalized.

    Evaluated in the pole-free reduced form
        (E_k - E_n) psi_k + f * Wr(psi_n, psi_k) / (sqrt(m) psi_n),
    in which the 1/psi_n factor cancels against the node zeros of f for both
    deformation routes.  The level k is read off the node count.  For k = n
    the composite vanishes identically and the zero mode is returned instead.
    """
    k = count_nodes(psi_k)
    n = fac.n
    if k == n:
        return zero_mode(fac)
    if fac.f_n.is_singular:
        raise DomainError("deformation function is singular; no mapping is defined")
    x = psi_k.x
    m = fac.model.mass(x)
    e_k = fac.model.energy(k)
    e_n = fac.model.energy(n)
    dpsi_k = derivative(psi_k)
    wr = fac.psi_n.values * dpsi_k.values - fac.W_n.state_d1 * psi_k.values
    if fac.f_n.route == "bernoulli":
        den = fac.f_n.lam + fac.f_n.cumulative_norm.values
        composite = (e_k - e_n) * psi_k.values + fac.psi_n.values * wr / (m * den)
    else:
        beta = fac.f_n.beta
        composite = (e_k - e_n) * psi_k.values + beta * fac.f_n.seed.values * wr / (
            m * fac.f_n.chi.values
        )
    raw = SampledFunction(psi_k.grid, composite)
    norm2 = definite_integral(raw.with_values(raw.values**2))
    if norm2 < 1e-20:
        raise DegenerateStateError("mapped state is numerically zero for k != n")
    return normalize_state(raw)


def zero_mode(fac: FactorizationResult) -> SampledFunction:
    """The state annihilated by A~_n+, at energy zero of the deformed problem.

    Bernoulli route: psi_n/(lambda + F).  Auxiliary route: psi_n/chi.  The
    result is unit-normalized; a state that grows toward a truncation edge is
    reported as non-normalizable instead of silently returned.
    """
    if fac.f_n.is_singular:
        raise DomainError("deformation function is singular; no zero mode exists")
    if fac.f_n.route == "bernoulli":
        raw = fac.psi_n.values / (fac.f_n.lam + fac.f_n.cumulative_norm.values)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            raw = fac.psi_n.values / fac.f_n.chi.values
    amax = np.max(np.abs(raw))
    if max(abs(raw[0]), abs(raw[-1])) > 1e-2 * amax:
        raise NonNormalizableError(
            "zero mode grows toward the truncation boundary; its norm diverges"
        )
    out = normalize_state(SampledFunction(fac.grid, raw))
    return out


def spectrum_map(e_k_list, e_n: float, beta: float) -> list[float]:
    """Levels of the deformed problem: E_k - E_n + beta."""
    return [float(e) - float(e_n) + float(beta) for e in e_k_list]


def paper_ex1_lambda(lam: float) -> float:
    """Convert the figure-reproduction lambda convention to the normalized one.

    The alternative convention uses the unnormalized first excited state and
    an odd antiderivative; both choices fold into a single shift of lambda.
    """
    return lam - 0.5


# ---------------------------------------------------------------------------
# Pipeline driver
# ---------------------------------------------------------------------------

def factorize(model: PdmModel, n: int, *, beta: float = 0.0,
              lam: Optional[float] = None, convention: str = "normalized",
              grid: Optional[Grid] = None) -> FactorizationResult:
    """Run the whole construction for one model, level and shift."""
    if convention not in ("normalized", "paper-ex1"):
        raise ConfigurationError(f"unknown lambda convention {convention!r}")
    g = grid or model.recommended_grid
    psi_n = normalize_state(model.eigenstate_samples(n, g))
    w = superpotential(psi_n, model, n)
    v0 = model.potential_samples(g)
    e_n = model.energy(n)
    v_minus = partner_minus(v0, e_n)
    v_plus = partner_plus(w, model, v_minus)
    if beta == 0.0:
        if lam is None:
            raise ConfigurationError("the beta = 0 route requires lambda")
        lam_eff = paper_ex1_lambda(lam) if convention == "paper-ex1" else lam
        f = bernoulli_f(psi_n, model, lam_eff)
    else:
        if lam is not None:
            raise ConfigurationError("lambda applies only to the beta = 0 route")
        if model.seed_solution is None:
            raise ConfigurationError(
                f"model {model.name!r} provides no auxiliary solutions for beta != 0"
            )
        seed = model.seed_solution(n, beta, g)
        f = auxiliary_f(seed, psi_n, model, w, beta)
    v_tilde = deformed_partner(v_minus, f, model, beta)
    return FactorizationResult(
        model=model,
        n=n,
        W_n=w,
        f_n=f,
        V_n_minus=v_minus,
        V_n_plus=v_plus,
        V_tilde_minus=v_tilde,
        spectrum_shift=beta,
        psi_n=psi_n,
        convention=convention,
    )
