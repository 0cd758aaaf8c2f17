"""Uniform grids, sampled functions, differentiation, quadrature and CSV text.

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
from functools import cache, cached_property

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
    def _x_text(self) -> np.ndarray:
        """The ``%.17g,`` text of every node, one NUL-padded row of 8-byte
        words per node.

        Built on first use, ``_CSV_ROWS`` nodes at a time, and kept for the
        life of this Grid, so every file written on it formats the x column
        once.  Byte columns that are NUL on every node are dropped.
        """
        x = self.points()
        words = np.empty((self.n_points, 4), np.uint64)
        for s in range(0, self.n_points, _CSV_ROWS):
            _g17_text(x[s:s + _CSV_ROWS], words[s:s + _CSV_ROWS])
        text = words.view(np.uint8)
        text = text[:, text.any(axis=0)]
        used = text.shape[1]
        # whole words, with room for the comma
        rows = np.zeros((self.n_points, used // 8 * 8 + 8), np.uint8)
        rows[:, :used] = text
        rows[:, used] = ord(",")
        return rows.view(np.uint64)


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


def _node_crossings(values: np.ndarray) -> list[tuple[int, int]]:
    """The nodes of a state: ``_crossings`` above NOISE_FLOOR times its peak
    magnitude."""
    return _crossings(values, NOISE_FLOOR * np.max(np.abs(values)))


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

    The package's one normalization rule and one sign rule: every state,
    solved, closed-form or mapped, is scaled and signed by it alone.
    """
    norm2 = definite_integral(psi.with_values(psi.values**2))
    if norm2 <= 0.0:
        raise DegenerateStateError("state has vanishing norm")
    values = psi.values / np.sqrt(norm2)
    big = np.abs(values) > 1e-8 * np.max(np.abs(values))
    if np.any(big) and values[np.argmax(big)] < 0.0:
        values = -values
    return psi.with_values(values)


# decimal exponents k = floor(log10|v|) the kernel can try, one past the
# double range on each side
_K_MIN, _K_MAX = -325, 309
# |v| with |k| > _K_SCALED is pre-scaled by 2^-+_SCALE_BITS, so that its
# split and 10^(16 - k) stay finite
_K_SCALED, _SCALE_BITS = 280, 970
# a remainder within _TIE of 1/2 cannot be rounded from the double-double
_TIE = 1e-6


def _word(text: bytes) -> int:
    """Up to 8 bytes of text as a little-endian 64-bit word, NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


# the four words of "nan"
_NAN_TEXT = (0, _word(b"nan"), 0, 0)
# ",0\r\n", the flag at byte 1
_ROW_END = _word(b",0\r\n")


def _split(a: np.ndarray) -> np.ndarray:
    """The high half of Veltkamp's split: 26 bits, so a product of two
    halves is exact."""
    c = 134217729.0 * a
    return c - (c - a)


@cache
def _powers_of_ten() -> tuple[np.ndarray, ...]:
    """10^(16 - k) 2^s for k = _K_MIN ... _K_MAX as the double-double
    (hi, lo), with hi's split (hi_hi, hi_lo), and the pre-scale 2^-s of |v|;
    s is +-_SCALE_BITS for |k| > _K_SCALED, else 0.

    Built on first use.  hi and lo are correctly rounded from exact integer
    ratios, as Python's int / int is.
    """
    hi, lo, scale = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        s = _SCALE_BITS * ((k > _K_SCALED) - (k < -_K_SCALED))
        num = 10 ** max(16 - k, 0) << max(s, 0)
        den = 10 ** max(k - 16, 0) << max(-s, 0)
        h = num / den
        m, r = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * r - m * den) / (den * r))
        scale.append(2.0 ** -s)
    hi = np.array(hi)
    hi_hi = _split(hi)
    return hi, hi_hi, hi - hi_hi, np.array(lo), np.array(scale)


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integer part N and remainder r of a 10^(16 - k), r in [0, 1).

    The product is Dekker's double-double (1971) with the table's
    double-double power of ten; N + r is within about 1e-14 of the exact
    value.
    """
    hi, hi_hi, hi_lo, lo, scale = _powers_of_ten()
    i = k - _K_MIN
    a = a * scale.take(i)
    hi, hi_hi, hi_lo = hi.take(i), hi_hi.take(i), hi_lo.take(i)
    a_hi = _split(a)
    a_lo = a - a_hi
    p = a * hi
    err = (((a_hi * hi_hi - p) + a_hi * hi_lo + a_lo * hi_hi) + a_lo * hi_lo) + a * lo.take(i)
    p_int = np.floor(p)
    r = (p - p_int) + err
    r_int = np.floor(r)
    return p_int.astype(np.int64) + r_int.astype(np.int64), r - r_int


@cache
def _text_tables() -> tuple[np.ndarray, ...]:
    """Byte tables of ``_g17_text``, built on first use.

    Per 4-digit group: its ASCII text and its count of trailing zeros.

    Per k = _K_MIN ... _K_MAX: the "0.000" prefix at bytes 1-5 of a word,
    the "e+XX" exponent at bytes 2-6, and 17 times the layout class of
    ``%g``.  Class c <= 16 puts the point after digit c (exponent notation
    is class 0), and class 17 puts it in the prefix (fixed notation below 1).

    Per mantissa word and per 17 c + (index of the last nonzero digit):
    masks that keep the digits before the point, the digits after it moved
    on one byte, and the point.  All three drop every byte past the last
    digit ``%g`` keeps: trailing zeros after the point go, and so does a
    point with no digit after it.
    """
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    group_text = (ord("0") + digits).astype(np.uint8).view(np.uint32)[:, 0].astype(np.uint64)
    trailing_zeros = sum((g % 10 ** m == 0).astype(np.int64) for m in range(1, 5))

    prefix, exponent, layout = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        below_one = -4 <= k < 0
        prefix.append(_word(b"\0" b"0." + b"0" * (-k - 1)) if below_one else 0)
        exponent.append(0 if -4 <= k < 17 else _word(b"\0\0e%+03d" % k))
        layout.append(17 * (17 if below_one else k if 0 <= k < 17 else 0))

    def first(m):
        return (1 << 8 * min(max(m, 0), 8)) - 1

    keep, moved, point = [], [], []
    for c in range(18):
        at, integer_digits = (c + 1, c) if c < 17 else (17, -1)
        for last in range(17):
            last = max(last, integer_digits)
            end = last + 1 + (last >= at)
            for j in range(3):
                tail = first(end - 8 * j)
                keep.append(first(at - 8 * j) & tail)
                moved.append(~first(at + 1 - 8 * j) & tail & (2**64 - 1))
                point.append(ord(".") << 8 * (at - 8 * j) & tail if 0 <= at - 8 * j < 8 else 0)
    masks = [np.array(m, np.uint64).reshape(-1, 3).T.copy() for m in (keep, moved, point)]
    return (group_text, trailing_zeros, np.array(prefix, np.uint64),
            np.array(exponent, np.uint64), np.array(layout), *masks)


def _exact_text(v: float) -> bytes:
    """``%.17g`` by Python itself, for a value the kernel cannot settle."""
    return b"%.17g" % v


def _g17_text(v: np.ndarray, out: np.ndarray) -> None:
    """Write the ``%.17g`` text of each double of v into its row of out, an
    (n, 4) array of 64-bit words.

    Each row holds its text with NUL bytes among it, in fixed slots: word 0
    the sign and a "0.000" prefix, words 1-3 the 17 digits with their point
    and then "e+XX".  Dropping the NULs leaves exactly Python's text; NaN of
    either sign is "nan" (v holds no infinity).  The digits are
    N + r = |v| 10^(16 - k), k = floor(log10|v|), rounded to an integer.
    ``_exact_text`` is the one path for a row this cannot settle: N
    outside [10^16, 10^17) (log10 missed k), rounding up to 10^17, or r
    within _TIE of 1/2.
    """
    nan = np.isnan(v)
    a = np.abs(v)
    zero = a == 0.0
    special = nan | zero
    if special.any():
        a[special] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    N, r = _scaled(a, k)
    up = r > 0.5
    unsettled = np.flatnonzero((N < 10**16) | (N + up >= 10**17) | (np.abs(r - 0.5) < _TIE))
    N += up

    group_text, trailing_zeros, prefix, exponent, layout, keep, moved, point = _text_tables()
    # N = lead 10^16 + high 10^8 + low, split into 4-digit groups
    lead = N // 10**16
    low = N - lead * 10**16
    high = low // 10**8
    low -= high * 10**8
    g0, g2 = high // 10**4, low // 10**4
    groups = (g0, high - g0 * 10**4, g2, low - g2 * 10**4)
    zeros = trailing_zeros.take(groups[3])
    all_zero = groups[3] == 0
    for g in groups[2::-1]:
        zeros += all_zero * trailing_zeros.take(g)
        all_zero &= g == 0
    # the 17 digits, 8 to a word, and the same moved on one byte
    high = group_text.take(groups[0]) | group_text.take(groups[1]) << 32
    low = group_text.take(groups[2]) | group_text.take(groups[3]) << 32
    words = ((ord("0") + lead).astype(np.uint64) | high << 8, high >> 56 | low << 8, low >> 56)
    i = k - _K_MIN
    m = layout.take(i) + (16 - zeros)
    for j, word in enumerate(words):
        moved_on = word << 8 | words[j - 1] >> 56 if j else word << 8
        out[:, j + 1] = (word & keep[j].take(m)) | (moved_on & moved[j].take(m)) | point[j].take(m)
    out[:, 3] |= exponent.take(i)
    out[:, 0] = prefix.take(i) | np.signbit(v) * np.uint64(ord("-"))
    if zero.any():
        out[zero, 1] = ord("0")
    if nan.any():
        out[nan] = _NAN_TEXT
    for row in unsettled:
        out[row] = np.frombuffer(_exact_text(float(v[row])).ljust(32, b"\0"), np.uint64)


def write_csv(f: SampledFunction, fh) -> None:
    """Write ``x,value,singular`` rows at full precision into the binary file fh.

    Fields are ``%.17g`` (the same bytes as ``f"{v:.17g}"``), the flag is 0
    or 1, and rows end in CRLF, as ``csv.writer`` writes them.  The text is
    made in numpy, ``_CSV_ROWS`` rows at a time: each block is one matrix of
    NUL-padded rows, the Grid's x text, the value text of ``_g17_text``
    and the ",flag\r\n" tail, and one ``bytes.translate`` drops the NULs.
    The kernel rounds from Dekker's double-double product.  Python's own
    ``%.17g`` formats each row it cannot settle: log10 missed the decimal
    exponent, rounding carries to 10^17, or the remainder lies within 1e-6
    of a half (exact ties among them).
    A singular sample is NaN, written ``nan`` with the flag 1.
    """
    x = f.grid._x_text
    width = x.shape[1]
    fh.write(b"x,value,singular\r\n")
    for s in range(0, f.grid.n_points, _CSV_ROWS):
        values = f.values[s:s + _CSV_ROWS]
        rows = np.empty((len(values), width + 5), np.uint64)
        rows[:, :width] = x[s:s + _CSV_ROWS]
        _g17_text(values, rows[:, width:width + 4])
        rows[:, -1] = _ROW_END + (np.isnan(values) << 8)
        fh.write(rows.tobytes().translate(None, b"\0"))
