"""Independent bound-state solver for the mass-weighted Schrodinger operator.

The operator -(1/m) d^2/dx^2 + (m'/m^2) d/dx + V is discretized in its
algebraically identical divergence form -d/dx((1/m) d/dx) + V with the
inverse mass sampled at cell midpoints, which yields a symmetric tridiagonal
matrix (flux conserving, real spectrum) under Dirichlet truncation.

``lowest_eigenpairs`` is the plain second-order solve.  ``solve_spectrum``
runs it once, on the given grid, and takes only eigenvalues on the
every-second-node subgrid; it Richardson extrapolates the two sets,
removing the leading h^2 error while leaving the base discretization
untouched.

The eigensolver is plain numpy: Sturm-count multisection (one vectorized sweep
serves the next _DEPTH bisection rounds of all k targets; the fine grid starts
from verified brackets around the coarse eigenvalues), then Fernando's twisted
factorization for an O(N) eigenvector per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, SolverError
from .grids import NOISE_FLOOR, Grid, SampledFunction, _crossings, normalize_state
from .models import PdmModel

__all__ = [
    "SturmLiouvilleProblem",
    "SpectrumReport",
    "discretize",
    "lowest_eigenpairs",
    "count_nodes",
    "solve_spectrum",
]

_TINY = 1e-300
# a pair whose residual exceeds _RESIDUAL_SCALE * |diag|_inf is refused
_RESIDUAL_SCALE = 1e-6
# one Sturm sweep serves _DEPTH bisection rounds, _SWEEP_ROWS rows at a time
_DEPTH = 6
_SWEEP_ROWS = 64
# the fine bisection starts _WARM_WIDTH * (E - lo) around each coarse eigenvalue
# E (the gap was at most 0.0044 * (E - lo) on perfbench's solve decks); a failed
# bracket doubles at most _WARM_TRIES times
_WARM_WIDTH = 2e-2
_WARM_TRIES = 4


@dataclass
class SturmLiouvilleProblem:
    """Symmetric tridiagonal discretization with Dirichlet edges.

    diag and off describe the interior nodes 1 .. n-2; eigenvectors are
    padded with the boundary zeros on return.
    """

    grid: Grid
    diag: np.ndarray
    off: np.ndarray

    def matrix_action(self, interior: np.ndarray) -> np.ndarray:
        out = self.diag * interior
        out[:-1] += self.off * interior[1:]
        out[1:] += self.off * interior[:-1]
        return out


def discretize(model: PdmModel, v: SampledFunction) -> SturmLiouvilleProblem:
    """Assemble the divergence-form matrix for mass profile and potential on v's grid."""
    g = v.grid
    if v.is_singular:
        raise DomainError("cannot discretize a singular-flagged potential")
    im = 1.0 / model.mass(g.midpoints())
    if np.any(~np.isfinite(im)) or np.any(im <= 0.0):
        raise DomainError("inverse mass must be positive and finite at all midpoints")
    h2 = g.h * g.h
    diag = (im[:-1] + im[1:]) / h2 + v.values[1:-1]
    off = -im[1:-1] / h2
    return SturmLiouvilleProblem(grid=g, diag=diag, off=off)


@dataclass
class SpectrumReport:
    """Eigenvalues (ascending), unit-norm states, node counts, residuals."""

    eigenvalues: np.ndarray
    eigenstates: list[SampledFunction]
    node_counts: list[int]
    residuals: list[float]

    def to_json_dict(self) -> dict:
        return {
            "eigenvalues": [float(e) for e in self.eigenvalues],
            "node_counts": list(self.node_counts),
            "residuals": [float(r) for r in self.residuals],
        }


def count_nodes(psi: SampledFunction) -> int:
    """Strict sign changes among finite values above the noise floor."""
    v = psi.values[~psi.singular_mask]
    return len(_crossings(v, NOISE_FLOOR * np.max(np.abs(v))))


def _sturm_counts(diag, off2, shifts):
    """Eigenvalues below each shift: negative LDL^T pivots, counted per block.

    A block of _SWEEP_ROWS rows is swept unchecked.  Only a block holding an
    exact zero pivot is swept again row by row from its carried-in pivots,
    nudging each zero pivot to _TINY, so the counts are a row-by-row sweep's.
    """
    lanes = shifts.size
    off2 = [0.0] + off2.tolist()
    counts = np.zeros(lanes, np.int64)
    d = np.ones(lanes)
    with np.errstate(all="ignore"):
        for start in range(0, diag.shape[0], _SWEEP_ROWS):
            carry = d
            for nudge in (False, True):
                block = diag[start:start + _SWEEP_ROWS, None] - shifts
                d = carry
                for b2, row in zip(off2[start:start + _SWEEP_ROWS], block):
                    row -= b2 / d
                    if nudge and np.count_nonzero(row) < lanes:
                        row[row == 0.0] = _TINY
                    d = row
                if np.count_nonzero(block) == block.size:
                    break
            counts += np.count_nonzero(block < 0.0, axis=0)
    return counts


def _bisect_lowest(diag, off2, k, lo0, hi0, tol, maxit):
    """Bisection for the k lowest eigenvalues, _DEPTH rounds per Sturm sweep.

    lo0 and hi0 bracket every target, or target j alone at index j.  A sweep
    counts at every midpoint of each target's depth-_DEPTH bisection tree;
    walking down it visits exactly the brackets plain bisection visits.
    """
    lo = np.full(k, lo0)
    hi = np.full(k, hi0)
    targets = np.arange(k)
    rounds = 0
    # the stop test of plain bisection, written so that a nan width continues too
    while rounds < maxit and not np.max(hi - lo) <= tol:
        edges = np.stack([lo, hi], axis=1)
        levels = []
        for _ in range(_DEPTH):
            levels.append(0.5 * (edges[:, :-1] + edges[:, 1:]))
            edges = np.insert(edges, range(1, edges.shape[1]), levels[-1], axis=1)
        # heap order per target: node j of level l sits at column 2**l - 1 + j
        tree = np.concatenate(levels, axis=1)
        counts = _sturm_counts(diag, off2, tree.ravel()).reshape(k, -1)
        node = np.zeros(k, np.int64)
        for level in range(_DEPTH):
            col = (1 << level) - 1 + node
            mid = tree[targets, col]
            above = counts[targets, col] > targets
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
            node = 2 * node + ~above
            rounds += 1
            if rounds == maxit or np.max(hi - lo) <= tol:
                break
    return 0.5 * (lo + hi)


def _gershgorin(prob: SturmLiouvilleProblem) -> tuple[float, float, float]:
    """Gershgorin bounds of the spectrum and the bisection stop tolerance."""
    offsum = np.zeros_like(prob.diag)
    offsum[:-1] += np.abs(prob.off)
    offsum[1:] += np.abs(prob.off)
    lo = float(np.min(prob.diag - offsum))
    hi = float(np.max(prob.diag + offsum))
    # bisection resolves eigenvalues down to a few ulps of the matrix scale
    return lo, hi, max(hi - lo, 1.0) * 4e-15 + 1e-13


def _eigenvalues_only(prob: SturmLiouvilleProblem, k: int, hints=None) -> np.ndarray:
    """The k lowest eigenvalues; refuses k outside 1 .. n_points // 10.

    hints, estimates E of the eigenvalues, give target j the bracket E_j -/+
    _WARM_WIDTH * (E_j - lo), which does not vanish at E_j = 0.  One sweep
    keeps each bracket with count(lower) <= j < count(upper); a failed one
    doubles, and after _WARM_TRIES tries Gershgorin's bracket stays.
    """
    if k < 1 or k > prob.grid.n_points // 10:
        raise ConfigurationError(
            f"requested {k} eigenpairs; must be between 1 and n_points/10"
        )
    off2 = prob.off * prob.off
    lo, hi, tol = _gershgorin(prob)
    lower, upper = np.full(k, lo), np.full(k, hi)
    if hints is not None:
        targets = np.arange(k)
        width = _WARM_WIDTH * (hints - lo)
        pending = np.ones(k, bool)
        for _ in range(_WARM_TRIES):
            l, u = np.maximum(hints - width, lo), np.minimum(hints + width, hi)
            counts = _sturm_counts(prob.diag, off2, np.concatenate([l, u]))
            ok = pending & (counts[:k] <= targets) & (targets < counts[k:])
            lower[ok], upper[ok] = l[ok], u[ok]
            pending &= ~ok
            if not pending.any():
                break
            width[pending] *= 2.0
    return _bisect_lowest(prob.diag, off2, k, lower, upper, tol, 120)


def _pivots(shifted, off2):
    """Top-down LDL^T pivots (off2 led by a 0.0), zero pivots nudged to _TINY."""
    d = 1.0
    return [(d := a - b2 / d or _TINY) for a, b2 in zip(shifted, off2)]


def _twisted_vector(prob: SturmLiouvilleProblem, off2, lam: float):
    """Fernando's twisted factorization of T - lam (Dhillon & Parlett, LAA 387, 2004).

    The pivots D+ of LDL^T and D- of UDU^T meet at the twist r minimizing
    |gamma_r| = |D+_r + D-_r - (a_r - lam)|; z grows outward from z_r = 1,
    so that (T - lam) z = gamma_r e_r up to rounding.  Returns (z, gamma_r).
    """
    shifted = prob.diag - lam
    values = shifted.tolist()
    dp = np.array(_pivots(values, [0.0] + off2))
    dm = np.array(_pivots(values[::-1], [0.0] + off2[::-1])[::-1])
    gamma = dp + dm - shifted
    r = int(np.argmin(np.abs(gamma)))
    z = np.ones(shifted.size)
    z[:r] = np.cumprod((-prob.off[:r] / dp[:r])[::-1])[::-1]
    z[r + 1:] = np.cumprod(-prob.off[r:] / dm[r + 1:])
    return z, float(gamma[r])


def lowest_eigenpairs(prob: SturmLiouvilleProblem, k: int, *, _hints=None) -> SpectrumReport:
    """k lowest eigenpairs by Sturm bisection plus twisted factorization.

    _hints (private) narrow the bisection's brackets, see _eigenvalues_only.
    Each eigenvalue ends as its vector's Rayleigh quotient, kept inside its
    final bisection bracket.  States are normalized by
    ``grids.normalize_state``; a residual above _RESIDUAL_SCALE * |diag|_inf
    raises SolverError.
    """
    eigs = _eigenvalues_only(prob, k, _hints)
    half = 0.5 * _gershgorin(prob)[2]  # final brackets are at most 2 * half wide
    cap = _RESIDUAL_SCALE * float(np.max(np.abs(prob.diag)))
    off2 = (prob.off * prob.off).tolist()
    states, nodes, residuals = [], [], []
    for j in range(k):
        lam = float(eigs[j])
        # one twist leaves the residual |gamma| / |z|, set by the error of lam;
        # a second twist at the Rayleigh quotient lam + gamma / |z|^2 cuts it to
        # the rounding of the pivots
        for _ in range(2):
            z, gamma = _twisted_vector(prob, off2, lam)
            lam += gamma / float(z @ z)
        eigs[j] = lam = min(max(lam, eigs[j] - half), eigs[j] + half)
        v = z / math.sqrt(float(z @ z))
        res = float(np.max(np.abs(prob.matrix_action(v) - lam * v)))
        if not res <= cap:
            raise SolverError(f"eigenvector residual {res:.3e} above cap {cap:.3e} at level {j}")
        sf = normalize_state(SampledFunction(prob.grid, np.pad(v, 1)))
        states.append(sf)
        nodes.append(count_nodes(sf))
        residuals.append(res)
    return SpectrumReport(eigs, states, nodes, residuals)


def solve_spectrum(model: PdmModel, v: SampledFunction, k: int) -> SpectrumReport:
    """Solve for the k lowest levels of (m, V) and extrapolate the eigenvalues.

    The eigenvalues alone are also found on the every-second-node subgrid
    (identical sampled potential values, exactly representable), which must
    hold k levels too, and the two sets are combined as (4 E_h - E_2h)/3.  The
    coarse set also seeds the fine bisection's brackets.  Eigenvectors, node
    counts and residuals come from the one full solve on v's grid.
    """
    fine = discretize(model, v)
    # coarsened() refuses an even n_points; the coarse solve refuses a k the
    # subgrid cannot hold, both before the costly eigenvectors
    v_coarse = SampledFunction(v.grid.coarsened(), v.values[::2])
    coarse = _eigenvalues_only(discretize(model, v_coarse), k)
    report = lowest_eigenpairs(fine, k, _hints=coarse)
    report.eigenvalues = (4.0 * report.eigenvalues - coarse) / 3.0
    return report
