"""Uniform grids, sampled functions, numerical differentiation and quadrature.

Everything downstream works on ``SampledFunction`` objects: real values on a
uniform grid plus a boolean mask marking nodes where the value is singular or
otherwise unusable.  Masks propagate pessimistically through stencils so that
no derivative is ever taken across a flagged point.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

__all__ = [
    "Grid",
    "SampledFunction",
    "derivative",
    "cumulative_integral",
    "definite_integral",
    "write_csv",
    "read_csv",
]


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

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def point(self, i: int) -> float:
        return self.x_min + i * self.h

    def points(self) -> np.ndarray:
        x = self.x_min + self.h * np.arange(self.n_points)
        x.flags.writeable = False
        return x

    def midpoints(self) -> np.ndarray:
        return self.x_min + self.h * (np.arange(self.n_points - 1) + 0.5)

    def coarsened(self) -> "Grid":
        """Every second node (same endpoints).  Requires odd n_points."""
        if self.n_points % 2 == 0:
            raise ConfigurationError("coarsening requires an odd number of points")
        return Grid(self.x_min, self.x_max, (self.n_points + 1) // 2)


@dataclass
class SampledFunction:
    """Real-valued function tabulated on a Grid, with singular-point flags."""

    grid: Grid
    values: np.ndarray
    singular_mask: np.ndarray = field(default=None)

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.shape != (self.grid.n_points,):
            raise ConfigurationError(
                f"values length {self.values.shape} does not match grid ({self.grid.n_points},)"
            )
        if self.singular_mask is None:
            self.singular_mask = np.zeros(self.grid.n_points, dtype=bool)
        else:
            self.singular_mask = np.array(self.singular_mask, dtype=bool)
            if self.singular_mask.shape != (self.grid.n_points,):
                raise ConfigurationError("singular_mask length does not match grid")
        bad = ~np.isfinite(self.values) & ~self.singular_mask
        if np.any(bad):
            # non-finite values must be flagged, never silent
            self.singular_mask = self.singular_mask | ~np.isfinite(self.values)
        self.values.flags.writeable = False
        self.singular_mask.flags.writeable = False

    @property
    def x(self) -> np.ndarray:
        return self.grid.points()

    @property
    def is_singular(self) -> bool:
        return bool(np.any(self.singular_mask))

    def with_values(self, values, mask=None) -> "SampledFunction":
        return SampledFunction(self.grid, values, mask)


def _dilate(mask: np.ndarray, reach: int) -> np.ndarray:
    out = mask.copy()
    for s in range(1, reach + 1):
        out[s:] |= mask[:-s]
        out[:-s] |= mask[s:]
    return out


def derivative(f: SampledFunction) -> SampledFunction:
    """First derivative, 4th-order central stencils, one-sided at the edges.

    Masked nodes poison every node whose stencil touches them.
    """
    n = f.grid.n_points
    if n < 5:
        raise ConfigurationError("derivative needs at least 5 nodes")
    h = f.grid.h
    y = np.where(f.singular_mask, 0.0, f.values)
    dy = np.empty(n)
    dy[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    dy[0] = (-25.0 * y[0] + 48.0 * y[1] - 36.0 * y[2] + 16.0 * y[3] - 3.0 * y[4]) / (12.0 * h)
    dy[1] = (-3.0 * y[0] - 10.0 * y[1] + 18.0 * y[2] - 6.0 * y[3] + y[4]) / (12.0 * h)
    dy[-2] = (3.0 * y[-1] + 10.0 * y[-2] - 18.0 * y[-3] + 6.0 * y[-4] - y[-5]) / (12.0 * h)
    dy[-1] = (25.0 * y[-1] - 48.0 * y[-2] + 36.0 * y[-3] - 16.0 * y[-4] + 3.0 * y[-5]) / (12.0 * h)
    mask = _dilate(f.singular_mask, 2)
    if np.any(f.singular_mask[:5]):
        mask[:2] = True
    if np.any(f.singular_mask[-5:]):
        mask[-2:] = True
    return SampledFunction(f.grid, dy, mask)


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


def cumulative_integral(f: SampledFunction, anchor: float = 0.0) -> SampledFunction:
    """Running antiderivative F with F(x_min) = anchor, 4th-order accurate."""
    if f.is_singular:
        raise DomainError("cumulative_integral requires an unmasked input")
    inc = _cumulative_increments(f.values, f.grid.h)
    F = np.empty(f.grid.n_points)
    F[0] = anchor
    np.cumsum(inc, out=F[1:])
    F[1:] += anchor
    return SampledFunction(f.grid, F)


def definite_integral(f: SampledFunction) -> float:
    """Integral over the whole grid; the final value of the running sum."""
    if f.is_singular:
        raise DomainError("definite_integral requires an unmasked input")
    return float(np.sum(_cumulative_increments(f.values, f.grid.h)))


def trapezoid_norm(values: np.ndarray, h: float) -> float:
    """L2 norm by trapezoid quadrature (the eigensolver's normalization rule)."""
    y2 = values * values
    return float(np.sqrt(h * (np.sum(y2) - 0.5 * y2[0] - 0.5 * y2[-1])))


def first_lobe_positive(values: np.ndarray) -> np.ndarray:
    """Fix the sign of a state: its first lobe above 1e-8 of the peak is positive."""
    big = np.abs(values) > 1e-8 * np.max(np.abs(values))
    if np.any(big) and values[np.argmax(big)] < 0.0:
        return -values
    return values


_CSV_ROWS = 4096


def write_csv(f: SampledFunction, path) -> None:
    """Serialize as ``x,value,singular`` rows at full precision.

    Fields are ``%.17g`` (the same bytes as ``f"{v:.17g}"``, nan and inf
    included), the flag is 0 or 1, and rows end in CRLF, as ``csv.writer``
    writes them.  Rows are formatted in blocks of ``_CSV_ROWS`` so that the
    text of the whole file is never held at once.
    """
    x, v = f.x, f.values
    flag = f.singular_mask.view(np.uint8)
    with open(path, "w", newline="") as fh:
        fh.write("x,value,singular\r\n")
        for s in range(0, f.grid.n_points, _CSV_ROWS):
            e = s + _CSV_ROWS
            rows = zip(x[s:e].tolist(), v[s:e].tolist(), flag[s:e].tolist())
            fh.write("".join(map("%.17g,%.17g,%d\r\n".__mod__, rows)))


def read_csv(path) -> SampledFunction:
    xs, vals, sing = [], [], []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        if header[:3] != ["x", "value", "singular"]:
            raise ConfigurationError(f"unexpected CSV header {header!r}")
        for row in r:
            xs.append(float(row[0]))
            vals.append(float(row[1]))
            sing.append(bool(int(row[2])))
    if not xs:
        raise ConfigurationError("CSV has no data rows")
    xs = np.asarray(xs)
    grid = Grid(xs[0], xs[-1], len(xs))
    if not np.allclose(xs, grid.points(), rtol=0.0, atol=1e-9 * max(1.0, abs(xs[-1]))):
        raise ConfigurationError("CSV nodes are not a uniform grid")
    return SampledFunction(grid, np.asarray(vals), np.asarray(sing))
