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

The eigensolver is plain numpy: Sturm-count multisection for the eigenvalues
(one vectorized sweep serves the next _DEPTH bisection rounds of all k
targets) and inverse iteration with a partially pivoted tridiagonal solve.
States are normalized by ``grids.normalize_state``, the 4th-order quadrature
rule the factorization uses too.
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
    """Eigenvalues below each shift: negative LDL^T pivots, counted per block."""
    lanes = shifts.size
    off2 = off2.tolist()
    counts = np.zeros(lanes, np.int64)
    d = None
    for start in range(0, diag.shape[0], _SWEEP_ROWS):
        block = diag[start:start + _SWEEP_ROWS, None] - shifts
        for i, row in enumerate(block, start):
            if i:
                row -= off2[i - 1] / d
            if np.count_nonzero(row) < lanes:
                # a zero pivot would turn the next row into inf or nan
                row[row == 0.0] = _TINY
            d = row
        counts += np.count_nonzero(block < 0.0, axis=0)
    return counts


def _bisect_lowest(diag, off2, k, lo0, hi0, tol, maxit):
    """Bisection for the k lowest eigenvalues, _DEPTH rounds per Sturm sweep.

    A sweep counts at every midpoint of each target's depth-_DEPTH bisection
    tree; walking down it visits exactly the brackets plain bisection visits.
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


def _tridiag_solve_pivot(sub, diag, sup, rhs, out):
    """Solve T x = rhs for tridiagonal T with partial pivoting.

    sub[i] couples row i+1 to column i; sup[i] couples row i to column i+1.
    Pivoting introduces a second superdiagonal, carried in u2.  The work is
    done on Python floats, which are IEEE doubles like the arrays.
    """
    n = diag.shape[0]
    sub = sub.tolist()
    d = diag.tolist()
    u1 = sup.tolist()[:n - 1] + [0.0]
    u2 = [0.0] * n
    b = rhs.tolist()
    for i in range(n - 1):
        low = sub[i]
        if abs(low) > abs(d[i]):
            # swap rows i and i+1
            d[i], low = low, d[i]
            u1[i], d[i + 1] = d[i + 1], u1[i]
            u2[i], u1[i + 1] = u1[i + 1], u2[i]
            b[i], b[i + 1] = b[i + 1], b[i]
        if d[i] == 0.0:
            d[i] = _TINY
        m = low / d[i]
        d[i + 1] -= m * u1[i]
        u1[i + 1] -= m * u2[i]
        b[i + 1] -= m * b[i]
    if d[n - 1] == 0.0:
        d[n - 1] = _TINY
    # back substitution overwrites b with the solution
    b[n - 1] = b[n - 1] / d[n - 1]
    if n > 1:
        b[n - 2] = (b[n - 2] - u1[n - 2] * b[n - 1]) / d[n - 2]
    for i in range(n - 3, -1, -1):
        b[i] = (b[i] - u1[i] * b[i + 1] - u2[i] * b[i + 2]) / d[i]
    out[:] = b
    return out


def _inverse_iteration(sub, diag, sup, lam, iters):
    """Eigenvector of tridiag(sub, diag, sup) at an isolated eigenvalue lam."""
    n = diag.shape[0]
    v = np.empty(n)
    state = 88172645463325252
    for i in range(n):
        # xorshift64 gives a deterministic, sign-mixed start vector
        state ^= (state << 13) & 0xFFFFFFFFFFFFFFFF
        state ^= state >> 7
        state ^= (state << 17) & 0xFFFFFFFFFFFFFFFF
        v[i] = state % 2000003 / 1000001.5 - 1.0
    shifted = diag - lam
    work = np.empty(n)
    for _ in range(iters):
        _tridiag_solve_pivot(sub, shifted, sup, v, work)
        nrm = 0.0
        for w in work.tolist():
            nrm += w * w
        v = work / math.sqrt(nrm)
    return v


def _eigenvalues_only(prob: SturmLiouvilleProblem, k: int) -> np.ndarray:
    """The k lowest eigenvalues; refuses k outside 1 .. n_points // 10."""
    if k < 1 or k > prob.grid.n_points // 10:
        raise ConfigurationError(
            f"requested {k} eigenpairs; must be between 1 and n_points/10"
        )
    diag = prob.diag
    off2 = prob.off * prob.off
    offsum = np.zeros_like(diag)
    offsum[:-1] += np.abs(prob.off)
    offsum[1:] += np.abs(prob.off)
    lo = float(np.min(diag - offsum))
    hi = float(np.max(diag + offsum))
    span = max(hi - lo, 1.0)
    # bisection resolves eigenvalues down to a few ulps of the matrix scale
    tol = span * 4e-15 + 1e-13
    return _bisect_lowest(diag, off2, k, lo, hi, tol, 120)


def lowest_eigenpairs(prob: SturmLiouvilleProblem, k: int) -> SpectrumReport:
    """k lowest eigenpairs by Sturm bisection plus inverse iteration.

    Eigenvectors are normalized by ``grids.normalize_state`` (4th-order
    quadrature of psi^2).  A pair whose operator-application residual exceeds
    _RESIDUAL_SCALE * |diag|_inf triggers a SolverError.
    """
    eigs = _eigenvalues_only(prob, k)
    cap = _RESIDUAL_SCALE * float(np.max(np.abs(prob.diag)))
    states = []
    nodes = []
    residuals = []
    sub = prob.off
    for j in range(k):
        v = _inverse_iteration(sub, prob.diag, sub, eigs[j], 3)
        res = float(np.max(np.abs(prob.matrix_action(v) - eigs[j] * v)))
        extra = 0
        while res > cap and extra < 3:
            v = _inverse_iteration(sub, prob.diag, sub, eigs[j], 2)
            res = float(np.max(np.abs(prob.matrix_action(v) - eigs[j] * v)))
            extra += 1
        if res > cap:
            raise SolverError(
                f"inverse iteration residual {res:.3e} above cap {cap:.3e} at level {j}"
            )
        full = np.zeros(prob.grid.n_points)
        full[1:-1] = v
        sf = normalize_state(SampledFunction(prob.grid, full))
        states.append(sf)
        nodes.append(count_nodes(sf))
        residuals.append(res)
    return SpectrumReport(
        eigenvalues=eigs, eigenstates=states, node_counts=nodes, residuals=residuals
    )


def solve_spectrum(model: PdmModel, v: SampledFunction, k: int) -> SpectrumReport:
    """Solve for the k lowest levels of (m, V) and extrapolate the eigenvalues.

    The eigenvalues alone are also found on the every-second-node subgrid
    (identical sampled potential values, exactly representable), which must
    hold k levels too, and the two sets are combined as (4 E_h - E_2h)/3.
    Eigenvectors, node counts and residuals come from the one full solve on
    v's grid.
    """
    fine = discretize(model, v)
    # coarsened() refuses an even n_points; the coarse solve refuses a k the
    # subgrid cannot hold, both before the costly eigenvectors
    v_coarse = SampledFunction(v.grid.coarsened(), v.values[::2])
    coarse = _eigenvalues_only(discretize(model, v_coarse), k)
    report = lowest_eigenpairs(fine, k)
    report.eigenvalues = (4.0 * report.eigenvalues - coarse) / 3.0
    return report
