"""Uniform grids, sampled functions, numerical differentiation and quadrature.

The grid owns its coordinate: only this module reads the node spacing ``Grid.h``.

Everything downstream works on ``SampledFunction`` objects: real values on a
uniform grid.  The package has one mask rule: a singular or unusable sample
is a NaN sample, and the NaN is its only record.  ``SampledFunction`` keeps
no mask: ``singular_mask`` is read as ``isnan(values)``, a caller that
flags a finite sample writes the NaN itself, and IEEE arithmetic carries
the flag through every stencil, product and quotient.  No derivative is
ever taken across a flagged point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DegenerateStateError, DomainError

__all__ = [
    "Grid",
    "SampledFunction",
    "derivative",
    "cumulative_integral",
    "definite_integral",
    "normalize_state",
    "write_csv",
]

# rows per block of CSV text
_CSV_ROWS = 4096


@dataclass(frozen=True)
class Grid:
    """Uniform 1-D mesh on [x_min, x_max] with n_points nodes.

    Units are dimensionless (hbar = 2 m0 = 1).  Node i sits exactly at
    ``x_min + i * h``.
    """

    x_min: float
    x_max: float
    n_points: int

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise ConfigurationError(f"need x_min < x_max, got [{self.x_min}, {self.x_max}]")
        if self.n_points < 8:
            raise ConfigurationError(f"n_points must be >= 8, got {self.n_points}")
        # the last node, x_min + (n - 1) h, can round past the double range
        # even when the width itself is finite
        if not math.isfinite(self.x_min + self.h * (self.n_points - 1)):
            raise ConfigurationError(
                f"grid width x_max - x_min overflows, got [{self.x_min}, {self.x_max}]"
            )
        # the stencils divide by h and h^2, which must stay finite
        if not self.h > 1e-150:
            raise ConfigurationError(
                f"grid spacing {self.h:g} on [{self.x_min}, {self.x_max}] is below 1e-150"
            )

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def points(self) -> np.ndarray:
        x = self.x_min + self.h * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    def midpoints(self) -> np.ndarray:
        return self.x_min + self.h * (np.arange(self.n_points - 1) + 0.5)

    def divergence_stencil(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal and off-diagonal of -d/dx(p d/dx) on the interior nodes,
        from p at the midpoints, with Dirichlet edges."""
        h2 = self.h * self.h
        return (p[:-1] + p[1:]) / h2, -p[1:-1] / h2

    def substep_lattice(self, start: int, nsub: int) -> tuple[np.ndarray, float]:
        """Lattice at half the substep h / nsub from node start to the last
        node, and the substep; a negative start lies left of x_min on the
        grid's spacing."""
        hs = self.h / nsub
        half = 0.5 * hs * np.arange(2 * nsub * (self.n_points - 1 - start) + 1)
        return self.x_min + self.h * start + half, hs

    def coarsened(self) -> "Grid":
        """Every second node (same endpoints).  Requires odd n_points."""
        if self.n_points % 2 == 0:
            raise ConfigurationError("coarsening requires an odd number of points")
        return Grid(self.x_min, self.x_max, (self.n_points + 1) // 2)

    @cached_property
    def _csv_templates(self) -> list[str]:
        """One ``x,%.17g,0`` row template per ``_CSV_ROWS`` block of nodes.

        Built on first use and kept for the life of this Grid, so every file
        written on it formats the x column once.  x is finite, so its text
        holds no ``%``.
        """
        x = self.points()
        return [
            "".join(["%.17g,%%.17g,0\r\n" % xi for xi in x[s:s + _CSV_ROWS].tolist()])
            for s in range(0, self.n_points, _CSV_ROWS)
        ]


@dataclass
class SampledFunction:
    """Real-valued function tabulated on a Grid; a singular sample is NaN.

    Only the values are stored, with every non-finite value as NaN, so
    ``singular_mask`` and ``is_singular`` are read from the NaN samples.  A
    node whose value is finite but unusable (a guard band) is flagged by
    writing NaN into the values before they are passed in.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"values length {self.values.shape} does not match grid ({self.grid.n_points},)"
            )
        bad = ~np.isfinite(self.values)
        if bad.any():
            self.values[bad] = np.nan
        self.values.flags.writeable = False

    @property
    def x(self) -> np.ndarray:
        return self.grid.points()

    @property
    def singular_mask(self) -> np.ndarray:
        return np.isnan(self.values)

    @property
    def is_singular(self) -> bool:
        return bool(self.singular_mask.any())

    def with_values(self, values) -> "SampledFunction":
        return SampledFunction(self.grid, values)


# a value within NOISE_FLOOR of the peak magnitude has no determinate sign
NOISE_FLOOR = 1e-9


def _crossings(values: np.ndarray, floor: float) -> list[tuple[int, int]]:
    """Bracketing index pairs of the sign changes of ``values``.

    Entries with |value| <= floor are indeterminate (exact node hits, noise
    tails) and are skipped; a crossing is reported between the surrounding
    determinate values.
    """
    idx = (np.abs(values) > floor).nonzero()[0]
    neg = values[idx] < 0.0
    where = (neg[1:] != neg[:-1]).nonzero()[0]
    return list(zip(idx[where].tolist(), idx[where + 1].tolist()))


def derivative(f: SampledFunction) -> SampledFunction:
    """First derivative, 4th-order central stencils, one-sided at the edges.

    A NaN sample poisons every node whose stencil touches it; the central
    stencil skips its own node, so NaN is written at every node whose own
    sample is NaN.  A stencil that overflows gives a singular node too.
    """
    h12 = 12.0 * f.grid.h
    y = f.values
    dy = np.empty(f.grid.n_points)
    with np.errstate(over="ignore", invalid="ignore"):
        dy[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / h12
        dy[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / h12
        dy[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / h12
        dy[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / h12
        dy[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / h12
    dy[f.singular_mask] = np.nan
    return SampledFunction(f.grid, dy)


def _cumulative_increments(y: np.ndarray, h: float) -> np.ndarray:
    """Per-interval integrals, 4th order.

    Interior intervals integrate the average of the two parabolas through
    (i-1, i, i+1) and (i, i+1, i+2); the end intervals use the cubic through
    the four nearest nodes.
    """
    inc = np.empty(len(y) - 1)
    inc[1:-1] = (-y[:-3] + 13.0 * y[1:-2] + 13.0 * y[2:-1] - y[3:]) * h / 24.0
    inc[0] = (9.0 * y[0] + 19.0 * y[1] - 5.0 * y[2] + y[3]) * h / 24.0
    inc[-1] = (y[-4] - 5.0 * y[-3] + 19.0 * y[-2] + 9.0 * y[-1]) * h / 24.0
    return inc


def cumulative_integral(f: SampledFunction) -> SampledFunction:
    """Running antiderivative F with F(x_min) = 0, 4th-order accurate."""
    if f.is_singular:
        raise DomainError("cumulative_integral requires an unmasked input")
    inc = _cumulative_increments(f.values, f.grid.h)
    F = np.empty(f.grid.n_points)
    F[0] = 0.0
    np.cumsum(inc, out=F[1:])
    return SampledFunction(f.grid, F)


def definite_integral(f: SampledFunction) -> float:
    """Integral over the whole grid: ``np.sum`` adds the running sum's
    increments pairwise, so it can differ in the last bits from its last value."""
    if f.is_singular:
        raise DomainError("definite_integral requires an unmasked input")
    return float(np.sum(_cumulative_increments(f.values, f.grid.h)))


def normalize_state(psi: SampledFunction) -> SampledFunction:
    """Unit L2 norm by ``definite_integral``; the first lobe above 1e-8 of the
    peak is made positive.

    The package's one normalization rule: the eigensolver's states and the
    closed-form states of the factorization are both scaled by it.
    """
    norm2 = definite_integral(psi.with_values(psi.values**2))
    if norm2 <= 0.0:
        raise DegenerateStateError("state has vanishing norm")
    values = psi.values / np.sqrt(norm2)
    big = np.abs(values) > 1e-8 * np.max(np.abs(values))
    if np.any(big) and values[np.argmax(big)] < 0.0:
        values = -values
    return psi.with_values(values)


def write_csv(f: SampledFunction, path) -> None:
    """Serialize as ``x,value,singular`` rows at full precision.

    Fields are ``%.17g`` (the same bytes as ``f"{v:.17g}"``), the flag is 0
    or 1, and rows end in CRLF, as ``csv.writer`` writes them.  The x column
    is formatted once per Grid into one row template per block of
    ``_CSV_ROWS`` nodes, and each block of values fills its template with one
    ``%`` operation, so the text of the whole file is never held at once.
    The flag needs no array of its own: a singular sample is NaN, which
    ``%.17g`` prints as ``nan`` whatever its sign, and that row's flag is
    set to 1 in the block's text.
    """
    v = f.values
    with open(path, "w", newline="") as fh:
        fh.write("x,value,singular\r\n")
        for s, template in zip(range(0, f.grid.n_points, _CSV_ROWS), f.grid._csv_templates):
            block = template % tuple(v[s:s + _CSV_ROWS].tolist())
            fh.write(block.replace(",nan,0\r", ",nan,1\r"))
