"""Excited-state factorization pipeline.

Given a solvable mass/potential pair and a bound-state level n, this module
builds the superpotential W_n (singular at the state's nodes), the partner
potentials V_n-+, a deformation function f_n satisfying the Riccati
constraint

    f'/sqrt(m) + (2 W + m'/(2 m^(3/2))) f + f^2 = beta,

and the nonsingular deformed partner V~_n- = V_n- - 2 f'/sqrt(m) + beta,
together with the eigenfunction map A~_n- A_n+ between the two Hamiltonians,
in a pole-free reduced form, and the zero mode.  W's pole bands are NaN
samples; nothing is interpolated across them.  The literal composition of
the four ladder operators is not part of the package: tests/ladder.py keeps
it as the reference the map is checked against.  The caller names the
level of every state it maps, so the construction builds only on ``grids``
and ``models`` and never reads the eigensolver that checks it.

Both routes produce f_n = psi_n q / (sqrt(m) D) with D' = psi_n q:

* beta = 0: the constraint reduces to a Bernoulli equation; q = psi_n and
  D = lambda + F, F the running integral of psi_n^2.  ``bernoulli_f``
  builds the deformation for one lambda, and ``scan_lambda`` flags a whole
  lambda sweep from the closed window [-max F, -min F] where lambda + F
  has a zero; both read F from one private helper.
* beta != 0: an auxiliary solution ("seed") at energy E_n - beta gives
  q = beta seed and D = chi, the mass-weighted Wronskian of psi_n and the
  seed.  The seed is ``models.seed_solution``, marched from where it decays
  for any model; a seed that is not finite is refused, and so is one whose
  direct Wronskian disagrees with chi, as it does unless the seed solves
  the equation at E_n - beta.  chi is built by integrating
  D' = beta psi_n seed, which stays accurate in tails where the direct
  Wronskian cancels catastrophically.
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
    _crossings,
    _node_crossings,
    cumulative_integral,
    definite_integral,
    derivative,
    normalize_state,
)
from .models import PdmModel, seed_solution

__all__ = [
    "Superpotential",
    "DeformationFunction",
    "FactorizationResult",
    "superpotential",
    "partner_minus",
    "partner_plus",
    "ScanReport",
    "bernoulli_f",
    "auxiliary_f",
    "deformed_partner",
    "map_eigenstate",
    "zero_mode",
    "factorize",
    "scan_lambda",
    "LAMBDA_SHIFT",
    "lambda_shift",
]

DEFAULT_GUARD_BAND = 3
# lambda conventions of the beta = 0 route: the normalized lambda is the
# given one minus the shift (paper-ex1 uses the unnormalized first excited
# state and an odd antiderivative; both fold into this one shift)
LAMBDA_SHIFT = {"normalized": 0.0, "paper-ex1": 0.5}


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

def _with_bands(grid: Grid, values: np.ndarray, crossings) -> SampledFunction:
    """The values on grid, with NaN written in the guard bands around the crossings."""
    if crossings:
        values = values.copy()
        for lo, hi in crossings:
            values[max(0, lo - DEFAULT_GUARD_BAND + 1) : hi + DEFAULT_GUARD_BAND] = np.nan
    return SampledFunction(grid, values)


def lambda_shift(convention: str) -> float:
    """The shift of LAMBDA_SHIFT, refusing an unknown convention."""
    if convention not in LAMBDA_SHIFT:
        raise ConfigurationError(f"unknown lambda convention {convention!r}")
    return LAMBDA_SHIFT[convention]


# ---------------------------------------------------------------------------
# Superpotential and partner potentials
# ---------------------------------------------------------------------------

@dataclass
class Superpotential:
    """W_n = -psi_n'/(sqrt(m) psi_n) with masked bands around the n poles.

    The defining state psi_n and its derivative psi_n' are retained:
    partner_plus forms psi_n'' from psi_n' and W' from them as exact ratios,
    and map_eigenstate and auxiliary_f take Wronskians with psi_n', so no
    masked pole is multiplied by a small number.
    """

    n: int
    values: SampledFunction
    state: SampledFunction = field(repr=False)
    state_d1: np.ndarray = field(repr=False)


def _level_crossings(psi_n: SampledFunction, n: int) -> list:
    """The sign changes of the level-n state; by the oscillation theorem
    there are n of them, and any other count is refused."""
    crossings = _node_crossings(psi_n.values)
    if len(crossings) != n:
        raise InconsistentInputError(
            f"state has {len(crossings)} sign changes but level {n} was requested"
        )
    return crossings


def superpotential(psi_n: SampledFunction, model: PdmModel, n: int) -> Superpotential:
    """Build W_n from the level-n state; raises if the node count is wrong."""
    x = psi_n.x
    v = psi_n.values
    dpsi = derivative(psi_n)
    crossings = _level_crossings(psi_n, n)
    sqm = np.sqrt(model.mass(x))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        w = -dpsi.values / (sqm * v)
    return Superpotential(
        n=n,
        values=_with_bands(psi_n.grid, w, crossings),
        state=psi_n,
        state_d1=dpsi.values,
    )


def partner_minus(v0: SampledFunction, e_n: float) -> SampledFunction:
    """V_n- is just the base potential shifted down by the level energy."""
    return v0.with_values(v0.values - e_n)


def partner_plus(w: Superpotential, model: PdmModel, v_n_minus: SampledFunction) -> SampledFunction:
    """V_n+ = V_n- + 2 W'/sqrt(m) - (1/sqrt(m)) (1/sqrt(m))''.

    Singular at the W pole bands (flagged, not bridged: the poles are real).
    """
    x = v_n_minus.x
    m = model.mass(x)
    mp = model.mass_d1(x)
    mpp = model.mass_d2(x)
    sqm = np.sqrt(m)
    d2 = derivative(w.state.with_values(w.state_d1)).values  # psi_n''
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = w.state_d1 / w.state.values  # psi_n'/psi_n
        rp = d2 / w.state.values - r * r  # (psi_n'/psi_n)'
        w_prime = -rp / sqm + r * mp / (2.0 * m * sqm)
        curvature_term = -mpp / (2.0 * m * m) + 3.0 * mp * mp / (4.0 * m ** 3)
        vals = v_n_minus.values + 2.0 * w_prime / sqm - curvature_term
    vals[w.values.singular_mask] = np.nan
    return SampledFunction(v_n_minus.grid, vals)


# ---------------------------------------------------------------------------
# Deformation functions
# ---------------------------------------------------------------------------

@dataclass
class DeformationFunction:
    """The extra term f_n of the deformed operators.

    Singularity is recorded as NaN samples, never hidden: a singular f means
    the deformation fails for these parameters.
    """

    values: SampledFunction
    # f = psi_n q / (sqrt(m) D) with D' = psi_n q on both routes, D stored as
    # den: bernoulli D = lambda + F, q = psi_n; auxiliary D = chi, q = beta seed
    den: np.ndarray = field(repr=False)
    q: np.ndarray = field(repr=False)
    lam: Optional[float] = None  # given exactly on the bernoulli route

    @property
    def route(self) -> str:
        return "auxiliary" if self.lam is None else "bernoulli"

    @property
    def is_singular(self) -> bool:
        return self.values.is_singular


def _bernoulli_terms(psi_n: SampledFunction, model: PdmModel):
    """The lambda-independent part of the beta = 0 deformation: q^2 = psi_n^2,
    its running integral F and sqrt(m).

    F runs from 0 at the left edge, so its last value is the norm^2 of
    psi_n, which must be 1.
    """
    q2 = psi_n.values**2
    F = cumulative_integral(psi_n.with_values(q2)).values
    if abs(F[-1] - 1.0) > 1e-6:
        raise InconsistentInputError(
            f"state must be unit-normalized on the grid (got norm^2 = {float(F[-1])})"
        )
    return q2, F, np.sqrt(model.mass(psi_n.x))


def bernoulli_f(psi_n: SampledFunction, model: PdmModel, lam: float) -> DeformationFunction:
    """beta = 0 deformation: f = psi_n^2 / (sqrt(m) (lambda + F)).

    With a normalized state the denominator crosses zero exactly when lambda
    lies in [-1, 0].  Crossings are flagged, with a guard band, as NaN
    samples; nothing is raised.
    """
    q2, F, sqm = _bernoulli_terms(psi_n, model)
    den = lam + F
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        f = q2 / (sqm * den)
    crossings = _crossings(den, 0.0)  # denominator crossings are genuine
    return DeformationFunction(
        values=_with_bands(psi_n.grid, f, crossings),
        den=den,
        q=psi_n.values,
        lam=lam,
    )


def auxiliary_f(seed: SampledFunction, model: PdmModel, w_n: Superpotential,
                beta: float) -> DeformationFunction:
    """beta != 0 deformation from an auxiliary solution at energy E_n - beta.

    psi_n is W_n's defining state.  chi = (psi_n seed' - psi_n' seed)/m obeys
    chi' = beta psi_n seed exactly, so chi is reconstructed by quadrature of
    that identity, started from the asymptotic value at the left edge when
    psi_n seed decays there (the direct Wronskian cancels to noise there),
    else from the direct Wronskian at the peak of |psi_n seed|.
    f = beta psi_n seed / (sqrt(m) chi) is then smooth through the nodes of
    psi_n; only genuine zero crossings of chi are flagged.
    """
    psi_n = w_n.state
    if seed.grid != psi_n.grid:
        raise InconsistentInputError("seed and state live on different grids")
    m = model.mass(psi_n.x)
    sqm = np.sqrt(m)

    # a marched seed overflows on too wide a window
    if seed.is_singular:
        raise InconsistentInputError(
            f"the auxiliary solution at E = {model.energy(w_n.n) - beta} is not finite on"
            f" the window [{seed.grid.x_min}, {seed.grid.x_max}]; a narrower window keeps"
            " it within double precision"
        )

    prod = psi_n.values * seed.values
    F = cumulative_integral(SampledFunction(psi_n.grid, prod))

    # the left-edge slope of log|prod|, usable where prod keeps one sign on
    # the five nodes of the one-sided stencil (a non-finite slope is NaN)
    with np.errstate(divide="ignore"):
        dlog = derivative(SampledFunction(psi_n.grid, np.log(np.abs(prod)))).values
    mu_left = dlog[0] if np.all(prod[:5] > 0.0) or np.all(prod[:5] < 0.0) else np.nan
    # psi_n seed' and psi_n' seed, for the direct Wronskian and its noise floor
    left = psi_n.values * derivative(seed).values
    right = w_n.state_d1 * seed.values
    wronskian = (left - right) / m
    # the direct Wronskian must agree with chi, which it does only for a
    # solution at E_n - beta.  It is compared at the peak of the integrand,
    # away from the seed's large tail where its stencil error peaks; when chi
    # is anchored there instead, at the peak of chi.  A chi that underflows
    # to zero or to a subnormal (a subnormal beta) gives an infinite mismatch
    i_ref = int(np.argmax(np.abs(prod)))
    if mu_left > 0.0:
        chi = beta * prod[0] / mu_left + beta * F.values
    else:
        chi = wronskian[i_ref] + beta * (F.values - F.values[i_ref])
        i_ref = int(np.argmax(np.abs(chi)))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        scale = np.max(np.abs(chi))
        rel = abs(wronskian[i_ref] - chi[i_ref]) / scale
    if not np.isfinite(rel) or rel > 1e-4:
        # a finite mismatch of a chi started from the left edge blames that
        # edge's tail estimate, and so the window, when the estimate's share
        # of chi can explain it; else it is the direct Wronskian's stencil
        # error, which does not shrink with beta as chi does, but does with h,
        # or a seed at the wrong energy, which these samples cannot tell apart
        mismatch = f"(wronskian mismatch {rel:.2e})"
        if not np.isfinite(rel) or not mu_left > 0.0:
            msg = f"seed is not a solution at E_n - beta {mismatch}"
        elif abs(beta * prod[0] / mu_left) / scale >= rel:
            msg = (f"psi_n * seed has not decayed at the left edge x_min = {psi_n.grid.x_min}"
                   f" {mismatch}; use a smaller --grid-min")
        else:
            msg = (f"chi, which scales with beta = {beta}, is below the stencil error of"
                   " the direct Wronskian, or the seed is not a solution at E_n - beta"
                   f" {mismatch}; a larger |--beta| or a finer grid (more --grid-points)"
                   " mends only the first")
        raise InconsistentInputError(msg)

    noise = 64.0 * np.finfo(float).eps * (np.abs(left) + np.abs(right)) / m
    crossings = [
        (lo, hi)
        for lo, hi in _crossings(chi, 0.0)
        if abs(chi[lo]) > noise[lo] and abs(chi[hi]) > noise[hi]
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        f = beta * prod / (sqm * chi)
    return DeformationFunction(
        values=_with_bands(psi_n.grid, f, crossings),
        den=chi,
        q=beta * seed.values,
    )


def deformed_partner(v_n_minus: SampledFunction, f: DeformationFunction,
                     model: PdmModel, beta: float) -> SampledFunction:
    """V~_n- = V_n- - 2 f'/sqrt(m) + beta; NaN samples propagate from f."""
    df = derivative(f.values)
    sqm = np.sqrt(model.mass(v_n_minus.x))
    with np.errstate(over="ignore", invalid="ignore"):
        vals = v_n_minus.values - 2.0 * df.values / sqm + beta
    return SampledFunction(v_n_minus.grid, vals)


# ---------------------------------------------------------------------------
# Eigenfunction map and zero mode
# ---------------------------------------------------------------------------

@dataclass
class FactorizationResult:
    """All derived objects of one factorization run."""

    model: PdmModel
    W_n: Superpotential  # its level n and defining state psi_n
    f_n: DeformationFunction
    V_n_minus: SampledFunction
    V_n_plus: SampledFunction
    V_tilde_minus: SampledFunction
    spectrum_shift: float  # beta

    @property
    def grid(self) -> Grid:
        return self.V_n_minus.grid

    @property
    def deleted_level(self) -> Optional[int]:
        """Level n when the deformed problem has lost it, else None.

        The deformed partner keeps E_n - E_n + beta = beta as its level only
        if the zero mode is normalizable; when ``zero_mode`` refuses it as
        growing toward an edge, level n is deleted from the spectrum.
        """
        try:
            zero_mode(self)
        except NonNormalizableError:
            return self.W_n.n
        return None


def map_eigenstate(k: int, fac: FactorizationResult) -> SampledFunction:
    """Image of the model's level-k bound state under A~_n- A_n+, unit-normalized.

    Evaluated in the pole-free reduced form
        (E_k - E_n) psi_k + q * Wr(psi_n, psi_k) / (m D),
    in which f = psi_n q / (sqrt(m) D) has cancelled the 1/psi_n factor of
    the composite for both deformation routes.  The caller names the level
    k, which sets both psi_k (sampled here from the closed form on the
    factorization's grid) and E_k; nothing is inferred from the samples,
    whose node count a truncated window can cut short.  For k = n the
    composite vanishes identically and the zero mode is returned instead;
    ``construct`` takes the zero mode through this route.
    """
    n = fac.W_n.n
    if k == n:
        return zero_mode(fac)
    if fac.f_n.is_singular:
        raise DomainError("deformation function is singular; no mapping is defined")
    psi_k = fac.model.eigenstate_samples(k, fac.grid)
    m = fac.model.mass(psi_k.x)
    e_kn = fac.model.energy(k) - fac.model.energy(n)
    dpsi_k = derivative(psi_k)
    wr = fac.W_n.state.values * dpsi_k.values - fac.W_n.state_d1 * psi_k.values
    # lambda at the edge of the singular window leaves D tiny at a truncation
    # edge, where the state can exceed the double range
    with np.errstate(over="ignore"):
        composite = e_kn * psi_k.values + fac.f_n.q * wr / (m * fac.f_n.den)
        square = composite**2
    if np.any(np.isinf(square)):
        raise DomainError(
            f"mapped state {k} overflows double precision: D = lambda + F comes within"
            f" {np.min(np.abs(fac.f_n.den)):.1e} of zero"
        )
    raw = SampledFunction(psi_k.grid, composite)
    norm2 = definite_integral(raw.with_values(square))
    if norm2 < 1e-20:
        raise DegenerateStateError("mapped state is numerically zero for k != n")
    return normalize_state(raw)


def zero_mode(fac: FactorizationResult) -> SampledFunction:
    """The state annihilated by A~_n+, at energy zero of the deformed problem.

    psi_n/D on both routes (D = lambda + F or chi).  The result is
    unit-normalized; a state that grows toward a truncation edge is
    reported as non-normalizable instead of silently returned.
    """
    if fac.f_n.is_singular:
        raise DomainError("deformation function is singular; no zero mode exists")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        raw = fac.W_n.state.values / fac.f_n.den
    amax = np.max(np.abs(raw))
    # D is monotone and has no zero, so an overflow sits at an edge
    if not np.isfinite(amax) or max(abs(raw[0]), abs(raw[-1])) > 1e-2 * amax:
        raise NonNormalizableError(
            "zero mode grows toward the truncation boundary; its norm diverges"
        )
    # a huge lambda makes raw so small that its square underflows to zero
    return normalize_state(SampledFunction(fac.grid, raw / amax))


# ---------------------------------------------------------------------------
# Pipeline driver
# ---------------------------------------------------------------------------

def factorize(model: PdmModel, n: int, *, beta: float = 0.0,
              lam: Optional[float] = None, convention: str = "normalized",
              grid: Optional[Grid] = None) -> FactorizationResult:
    """Run the whole construction for one model, level and shift.

    lam (in the given convention) is required when beta is 0 and refused
    otherwise; the messages name the CLI flags.
    """
    shift = lambda_shift(convention)
    if beta == 0.0 and lam is None:
        raise ConfigurationError("--lambda is required when --beta is 0")
    if beta != 0.0 and lam is not None:
        raise ConfigurationError("--lambda applies only to --beta 0 runs")
    g = grid or model.recommended_grid
    psi_n = normalize_state(model.eigenstate_samples(n, g))
    w = superpotential(psi_n, model, n)
    v_minus = partner_minus(model.potential_samples(g), model.energy(n))
    v_plus = partner_plus(w, model, v_minus)
    if beta == 0.0:
        f = bernoulli_f(psi_n, model, lam - shift)
    else:
        f = auxiliary_f(seed_solution(model, n, beta, g), model, w, beta)
    v_tilde = deformed_partner(v_minus, f, model, beta)
    return FactorizationResult(
        model=model,
        W_n=w,
        f_n=f,
        V_n_minus=v_minus,
        V_n_plus=v_plus,
        V_tilde_minus=v_tilde,
        spectrum_shift=beta,
    )


@dataclass
class ScanReport:
    """Singularity flags over a lambda sweep, with the window edges crossed."""

    lambda_values: list[float]
    singular_flags: list[bool]
    critical_lambda: Optional[float]
    boundaries: list[float]


def scan_lambda(model: PdmModel, n: int, lambdas, convention: str = "normalized",
                grid=None) -> ScanReport:
    """Flag the beta = 0 deformation's singularity over a lambda sweep.

    The level-n state must have n sign changes, as in ``superpotential``.
    The denominator lambda + F, F the running integral of psi_n^2, has a
    zero or a sign change on the grid exactly when lambda lies in the closed
    window [-max F, -min F], so every lambda there is flagged singular.
    Outside it, IEEE addition keeps the sign of each sum and is monotone, so
    every |lambda + F_j| is at least the gap to the nearer edge; when
    max psi_n^2 / (min sqrt(m) gap) is finite, every sample of f is, and the
    flag is False.  Only a lambda whose bound overflows (within about 1e-305
    of an edge) runs the per-lambda construction (``bernoulli_f``), whose
    flag is then the scan's.  Each transition into or out of the window
    reports the edge it crosses, in closed form from the same F, so a
    boundary always lies between its two lambdas; a flag change caused by
    overflow alone reports none.  critical_lambda is the last boundary (the
    singular-to-nonsingular edge when scanning upward).
    """
    shift = lambda_shift(convention)
    lambdas = [float(v) for v in lambdas]
    if len(lambdas) == 0:
        raise ConfigurationError("empty lambda range")
    g = grid or model.recommended_grid
    psi_n = normalize_state(model.eigenstate_samples(n, g))
    _level_crossings(psi_n, n)
    q2, F, sqm = _bernoulli_terms(psi_n, model)
    f_min, f_max = float(np.min(F)), float(np.max(F))
    lam_eff = np.array(lambdas) - shift
    inside = (-f_max <= lam_eff) & (lam_eff <= -f_min)
    # outside the window, |lambda + F_j| >= gap to the nearer edge
    gap = np.abs(lam_eff + np.where(lam_eff < -f_max, f_max, f_min))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        certified = np.isfinite(np.max(q2) / (np.min(sqm) * gap))
    in_window = inside.tolist()
    flags = in_window.copy()
    for i in np.flatnonzero(~inside & ~certified).tolist():
        flags[i] = bernoulli_f(psi_n, model, float(lam_eff[i])).is_singular
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
