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

The eigensolver runs one LDL^T pivot recurrence on Python floats, over
lists built once per matrix (``SturmLiouvilleProblem.rows``).  Its Sturm
counts bracket each eigenvalue; cuts that isolate a level alternate between
the point where the counts, interpolated linearly, reach the level and the
midpoint, the first of them at min(diag), which bounds the lowest level
from above.  Rayleigh-quotient iteration on Fernando's twisted
factorization converges to it.  Each level starts from one pair, (shift,
first twist index or None), made of what is already known: on the subgrid
from the third level on the line through the two below it, with a full
first twist, and on the given grid the Rayleigh quotient of the subgrid
level's converging twist vector, prolonged, with a first twist where that
vector peaks.  Each later step twists at the index where the previous
twist's vector peaks, which takes one pivot pass, and its count is the
inertia of that twisted factorization.  Every twist's count narrows the
bracket; one more count certifies the level, so a start never decides one.
One more twist, where the converging twist's vector peaks when its own
vector peaks there too, gives an O(N) eigenvector per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .errors import ConfigurationError, DomainError, SolverError
from .grids import Grid, SampledFunction, _node_crossings, normalize_state
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
# a level takes at most _MAX_STEPS counts and twists: every second isolating
# cut is a midpoint, which halves the bracket, so 96 cuts shrink any
# Gershgorin bracket to tol (48 halvings), and the Rayleigh-quotient steps
# converge cubically
_MAX_STEPS = 120


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

    @cached_property
    def rows(self):
        """The Python-float lists every count and twist reads, built on first
        use: the diagonal and the squared off-diagonal led by a 0.0, top-down
        and bottom-up."""
        diag = self.diag.tolist()
        off2 = (self.off * self.off).tolist()
        return diag, [0.0] + off2, diag[::-1], [0.0] + off2[::-1]


def discretize(model: PdmModel, v: SampledFunction) -> SturmLiouvilleProblem:
    """Assemble the divergence-form matrix for mass profile and potential on v's grid."""
    g = v.grid
    if v.is_singular:
        raise DomainError("cannot discretize a singular-flagged potential")
    with np.errstate(divide="ignore", over="ignore"):
        im = 1.0 / model.mass(g.midpoints())
    if np.any(~np.isfinite(im)) or np.any(im <= 0.0):
        raise DomainError("inverse mass must be positive and finite at all midpoints")
    with np.errstate(over="ignore", invalid="ignore"):
        diag, off = g.divergence_stencil(im)
        diag += v.values[1:-1]
        # the Sturm counts square off
        representable = np.all(np.isfinite(diag)) and np.all(np.isfinite(off * off))
    if not representable:
        raise DomainError(
            f"the matrix on the {g.n_points}-point grid [{g.x_min}, {g.x_max}] exceeds the"
            " double range: 1/(m h^2) squared or the diagonal overflows"
        )
    return SturmLiouvilleProblem(grid=g, diag=diag, off=off)


@dataclass
class SpectrumReport:
    """Eigenvalues (ascending), unit-norm states, node counts, residuals."""

    eigenvalues: np.ndarray
    eigenstates: list[SampledFunction]
    node_counts: list[int]
    residuals: list[float]


def count_nodes(psi: SampledFunction) -> int:
    """Strict sign changes among finite values above the noise floor."""
    v = psi.values[~psi.singular_mask]
    if v.size == 0:
        raise DomainError("the state has no finite sample to count nodes on")
    return len(_node_crossings(v))


def _gershgorin(prob: SturmLiouvilleProblem) -> tuple[float, float, float]:
    """Gershgorin bounds of the spectrum and the eigenvalue tolerance tol."""
    offsum = np.zeros_like(prob.diag)
    offsum[:-1] += np.abs(prob.off)
    offsum[1:] += np.abs(prob.off)
    lo = float(np.min(prob.diag - offsum))
    hi = float(np.max(prob.diag + offsum))
    # Sturm counts resolve eigenvalues down to a few ulps of the matrix scale
    return lo, hi, max(hi - lo, 1.0) * 4e-15 + 1e-13


def _pivots(diag, off2, lam: float, stop: int) -> np.ndarray:
    """The first stop LDL^T pivots of diag - lam (off2 led by a 0.0), zero
    pivots nudged to _TINY."""
    d = 1.0
    return np.fromiter(
        ((d := a - lam - b2 / d or _TINY) for a, b2 in zip(islice(diag, stop), off2)),
        float, stop,
    )


def _count(diag, off2, x: float) -> int:
    """Eigenvalues below x: the negatives among _pivots of diag - x, counted on the fly."""
    d = 1.0
    n = 0
    for a, b2 in zip(diag, off2):
        d = a - x - b2 / d or _TINY
        if d < 0.0:
            n += 1
    return n


def _twisted_vector(prob: SturmLiouvilleProblem, lam: float, r=None):
    """Fernando's twisted factorization of T - lam (Dhillon & Parlett, LAA 387, 2004).

    The pivots D+ of LDL^T and D- of UDU^T meet at the twist r, where
    gamma_r = D+_r + D-_r - (a_r - lam); z grows outward from z_r = 1, so
    that (T - lam) z = gamma_r e_r up to rounding.  Without r, both pivot
    passes run in full, r minimizes |gamma_r|, and count is the negatives
    among D+.  Given r, one pass runs D+ down to r and D- up to r, and count
    is the negatives among D+_0 .. D+_(r-1), gamma_r, D-_(r+1) .. D-_(n-1),
    the inertia of the twisted factorization.  Either count is the
    eigenvalues below lam.  Returns (z, gamma_r, count).
    """
    diag, lead, rdiag, rlead = prob.rows
    n = len(diag)
    full = r is None
    if full:
        dp = _pivots(diag, lead, lam, n)
        dm = _pivots(rdiag, rlead, lam, n)[::-1]
        r = int(np.argmin(np.abs(dp + dm - (prob.diag - lam))))
        count = int(np.count_nonzero(dp < 0.0))
        dm = dm[r:]
    else:
        dp = _pivots(diag, lead, lam, r + 1)
        dm = _pivots(rdiag, rlead, lam, n - r)[::-1]
    # dp[:r + 1] holds D+_0 .. D+_r and dm holds D-_r .. D-_(n-1)
    gamma = float(dp[r]) + float(dm[0]) - (diag[r] - lam)
    if not full:
        count = int(np.count_nonzero(dp[:r] < 0.0) + np.count_nonzero(dm[1:] < 0.0))
        count += gamma < 0.0
    z = np.ones(n)
    # far from every eigenvalue z can exceed the double range; lowest_eigenpairs
    # refuses a z @ z that is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        z[:r] = np.cumprod((-prob.off[:r] / dp[:r])[::-1])[::-1]
        z[r + 1:] = np.cumprod(-prob.off[r:] / dm[1:])
    return z, gamma, count


def _eigenvalues_only(prob: SturmLiouvilleProblem, k: int, starts=None):
    """The k lowest eigenvalues, each within tol / 2 of the matrix's, and
    each level's converging twist vector, None for a level a narrow bracket
    certified; refuses k outside 1 .. n_points // 10.

    Every Sturm count of the matrix, the twists' included, is kept as a
    (shift, count) pair, and target j's bracket is the tightest the pairs
    give.  Level j starts from starts[j], the pair (shift, first twist index
    or None), or without starts from level 2 on at (2 E_(j-1) - E_(j-2),
    None).  Rayleigh-quotient iteration on the twisted factorization starts
    at the shift when that lies inside the bracket, with a first twist
    one-sided at the index or, for None, full; every later twist of the
    level is one-sided, at the index where the previous twist's |z| peaks.
    Without a start inside the bracket, after a step that leaves it or after
    a failed certificate, counts isolate target j and the iteration restarts
    from the midpoint.  Each isolating count cuts the bracket [l, u]
    in turn at the point where the counts, interpolated linearly, reach
    j + 1 (kept within [l + (u - l) / 1024, (l + u) / 2]) and at the
    midpoint, or at min(diag) when that lies in the lower half, so a level
    takes at most twice bisection's counts.  A converged value lam is
    returned only when count(lam - tol / 2) <= j < count(lam + tol / 2), one
    side of which the last twist's count settles, or a bracket at most tol
    wide certifies its midpoint.
    """
    if k < 1 or k > prob.grid.n_points // 10:
        raise ConfigurationError(
            f"requested {k} eigenpairs; must be between 1 and n_points/10"
        )
    lo, hi, tol = _gershgorin(prob)
    half = 0.5 * tol
    diag, lead = prob.rows[:2]
    low_diag = min(diag)
    pairs = [(lo, 0), (hi, len(diag))]

    def count(x):
        c = _count(diag, lead, x)
        pairs.append((x, c))
        return c

    # Python floats throughout: a numpy scalar shift slows every pivot row 2-4x
    eigs, vectors = [], []
    for j in range(k):
        if starts is not None:
            sigma, r = starts[j]
        else:
            sigma = 2.0 * eigs[j - 1] - eigs[j - 2] if j >= 2 else math.nan
            r = None
        interpolate = True
        for _ in range(_MAX_STEPS):
            # the tightest bracket with count(l) <= j < count(u) the pairs give
            l, cl = max(p for p in pairs if p[1] <= j)
            u, cu = min(p for p in pairs if p[1] > j)
            mid = 0.5 * (l + u)
            if u - l <= tol:
                eigs.append(mid)
                z = None
                break
            if not l < sigma < u:  # NaN, or a start or step outside the bracket
                if cl < j or cu > j + 1:
                    # lambda_0 <= min(diag), so that count is a tight first
                    # cut; the midpoints bound the interpolated cuts, which
                    # creep up from l where the counts bunch near u
                    if l < low_diag < mid:
                        x = low_diag
                    else:
                        x = l + (u - l) * (j + 1 - cl) / (cu - cl) if interpolate else mid
                        x = min(max(x, l + (u - l) / 1024), mid)
                        interpolate = not interpolate
                    count(x)
                    continue
                sigma = mid
            z, gamma, c = _twisted_vector(prob, sigma, r)
            r = int(np.argmax(np.abs(z)))
            pairs.append((sigma, c))
            step = gamma / float(z @ z)
            sigma += step
            # cubic convergence leaves sigma far closer than |step| to the
            # eigenvalue, and the twist's shift within tol / 4 of sigma, so its
            # count c settles one side of the certificate
            if abs(step) <= 0.25 * tol:
                if count(sigma + half) > j if c <= j else count(sigma - half) <= j:
                    eigs.append(sigma)
                    break
                sigma = math.nan
        else:
            raise SolverError(f"eigenvalue {j} not certified in {_MAX_STEPS} steps")
        vectors.append(z)
    return np.array(eigs), vectors


def lowest_eigenpairs(prob: SturmLiouvilleProblem, k: int, *, _starts=None) -> SpectrumReport:
    """k lowest eigenpairs by certified Rayleigh-quotient iteration plus a twist.

    _starts (private), one (shift, first twist index or None) pair per
    level, starts the iteration, see _eigenvalues_only.  One final twist at
    each certified eigenvalue gives the vector: one-sided at the index where
    the level's converging twist vector peaks, or full at argmin |gamma| for
    a level certified without one; a one-sided twist whose own |z| peaks
    elsewhere gives way to a full one.  Its Rayleigh quotient, kept within
    tol / 2 of the certified value, is the eigenvalue.  States are normalized
    by ``grids.normalize_state``; a residual above _RESIDUAL_SCALE *
    |diag|_inf raises SolverError.
    """
    eigs, vectors = _eigenvalues_only(prob, k, _starts)
    lo, hi, tol = _gershgorin(prob)
    half = 0.5 * tol
    cap = _RESIDUAL_SCALE * float(np.max(np.abs(prob.diag)))
    states, nodes, residuals = [], [], []
    for j, converged in enumerate(vectors):
        lam = float(eigs[j])
        # at a converged shift a twist where z peaks has the residual bound
        # of the twist at argmin |gamma|
        r = None if converged is None else int(np.argmax(np.abs(converged)))
        z, gamma, _ = _twisted_vector(prob, lam, r)
        if r is not None and int(np.argmax(np.abs(z))) != r:
            z, gamma, _ = _twisted_vector(prob, lam)
        # a matrix whose whole spectrum lies far inside tol leaves the twist
        # unresolved
        with np.errstate(over="ignore"):
            zz = float(z @ z)
        if not math.isfinite(zz):
            raise SolverError(
                f"eigenvector {j} overflows: the matrix spans {hi - lo:.1e}, against an"
                f" eigenvalue tolerance of {tol:.1e}"
            )
        eigs[j] = lam = min(max(lam + gamma / zz, lam - half), lam + half)
        v = z / math.sqrt(zz)
        res = float(np.max(np.abs(prob.matrix_action(v) - lam * v)))
        if not res <= cap:
            raise SolverError(f"eigenvector residual {res:.3e} above cap {cap:.3e} at level {j}")
        sf = normalize_state(SampledFunction(prob.grid, np.pad(v, 1)))
        states.append(sf)
        nodes.append(count_nodes(sf))
        residuals.append(res)
    return SpectrumReport(eigs, states, nodes, residuals)


def _prolonged(z: np.ndarray) -> np.ndarray:
    """A vector on the every-second-node subgrid's interior, on the full
    grid's interior: subgrid node i is node 2i, and the midpoints between
    them are cubic, (-1, 9, 9, -1) / 16, except the two end ones, linear."""
    c = np.pad(z, 1)
    f = np.empty(2 * c.size - 1)
    f[::2] = c
    f[1::2] = 0.5 * (c[:-1] + c[1:])
    f[3:-3:2] = (9.0 * (c[1:-2] + c[2:-1]) - c[:-3] - c[3:]) / 16.0
    return f[1:-1]


def _seeds(prob: SturmLiouvilleProblem, coarse: np.ndarray, vectors) -> list:
    """Starts for prob's levels from the subgrid's eigenvalues and converging
    twist vectors: each vector prolonged, its Rayleigh quotient on prob and
    its peak as the first twist index, or for a level without a vector the
    subgrid's eigenvalue and a full first twist."""
    starts = []
    for e, z in zip(coarse, vectors):
        if z is None:
            starts.append((float(e), None))
        else:
            z = _prolonged(z)
            starts.append((float(z @ prob.matrix_action(z)) / float(z @ z),
                           int(np.argmax(np.abs(z)))))
    return starts


def solve_spectrum(model: PdmModel, v: SampledFunction, k: int) -> SpectrumReport:
    """Solve for the k lowest levels of (m, V) and extrapolate the eigenvalues.

    The eigenvalues alone are also found on the every-second-node subgrid
    (identical sampled potential values, exactly representable), which must
    hold k levels too, and the two sets are combined as (4 E_h - E_2h)/3.
    The subgrid solve also seeds the full one, a start pair per level from
    its converging twist vectors; see _seeds.  Eigenvectors, node counts and
    residuals come from the one full solve on v's grid.  A reported spectrum
    that does not strictly increase raises SolverError.
    """
    n = v.grid.n_points
    if k < 1:
        raise ConfigurationError(f"requested {k} eigenpairs; need at least 1")
    # the subgrid's (n + 1) / 2 points hold k levels from n = 20 k - 1 on,
    # and only an odd n has an every-second-node subgrid
    if n < 20 * k - 1 or n % 2 == 0:
        raise ConfigurationError(
            f"requested {k} eigenpairs on {n} grid points; that needs an odd number"
            f" of grid points >= {20 * k - 1}"
        )
    fine = discretize(model, v)
    v_coarse = SampledFunction(v.grid.coarsened(), v.values[::2])
    coarse, vectors = _eigenvalues_only(discretize(model, v_coarse), k)
    report = lowest_eigenpairs(fine, k, _starts=_seeds(fine, coarse, vectors))
    report.eigenvalues = (4.0 * report.eigenvalues - coarse) / 3.0
    if not np.all(np.diff(report.eigenvalues) > 0.0):
        raise SolverError(
            "eigenvalues do not strictly increase: "
            + ", ".join(f"{e:.10g}" for e in report.eigenvalues)
        )
    return report
