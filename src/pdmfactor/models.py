"""Catalog of exactly solvable position-dependent-mass models.

Each model is one frozen dataclass whose fields are its parameters; it
bundles a mass profile m(x) > 0 (with first and second derivative
evaluators), the base potential, closed-form bound states and energies, and a
recommended truncation grid.  Units: hbar = 2 m0 = 1 throughout.

Models
------
ex1   arcsinh-oscillator: m = 1/(1 + alpha^2 x^2), equally spaced spectrum
ex2   sech^2-mass exponential potential, quadratic spectrum, Jacobi states
ho    constant-mass harmonic oscillator shifted to zero ground energy
box   constant-mass particle in a box (plain solver sanity model)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from .errors import ConfigurationError, DomainError
from .grids import Grid, SampledFunction
from .specfun import hermite, jacobi

__all__ = [
    "PdmModel",
    "Ex1",
    "Ex2",
    "HarmonicOscillator",
    "Box",
    "seed_solution",
    "MODELS",
    "catalog",
]


@dataclass(frozen=True)
class PdmModel:
    """A solvable mass/potential pair with closed-form spectrum.

    Each model is a frozen dataclass subclass whose fields are its
    parameters.  It defines mass, mass_d1, mass_d2 and potential (of x),
    energy(k) and eigenstate(k, x), and the class attributes below.
    """

    name: ClassVar[str]
    recommended_grid: ClassVar[Grid]
    spectrum_tolerance: ClassVar[float]

    def eigenstate_samples(self, k: int, grid: Grid | None = None) -> SampledFunction:
        g = grid or self.recommended_grid
        # parameters far beyond the paper's (ex2's b = 1e50) overflow the
        # closed form on any grid
        with np.errstate(over="ignore", invalid="ignore"):
            values = self.eigenstate(k, g.points())
        if not np.all(np.isfinite(values)):
            raise DomainError(
                f"closed-form state {k} of {self.name} overflows on the grid"
                f" [{g.x_min}, {g.x_max}]"
            )
        return SampledFunction(g, values)

    def potential_samples(self, grid: Grid | None = None) -> SampledFunction:
        g = grid or self.recommended_grid
        return SampledFunction(g, self.potential(g.points()))


@dataclass(frozen=True)
class Ex1(PdmModel):
    """Oscillator-like model with m(x) = 1/(1 + alpha^2 x^2) and E_k = 2k + 1.

    Bound states are Hermite-Gaussian in the stretched coordinate
    s = arcsinh(alpha x)/alpha; they decay only like exp(-arcsinh(x)^2/2), so
    the recommended grid is very wide.
    """

    alpha: float = 1.0

    name = "ex1"
    recommended_grid = Grid(-250.0, 250.0, 8001)
    spectrum_tolerance = 1e-3

    def __post_init__(self):
        # the mass, the potential and the stretched coordinate square alpha
        if not math.isfinite(self.alpha * self.alpha):
            raise DomainError(
                f"alpha={self.alpha} overflows double precision (alpha^2 must be finite)"
            )
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")

    def mass(self, x):
        al2 = self.alpha * self.alpha
        return 1.0 / (1.0 + al2 * x * x)

    def mass_d1(self, x):
        al2 = self.alpha * self.alpha
        return -2.0 * al2 * x / (1.0 + al2 * x * x) ** 2

    def mass_d2(self, x):
        al2 = self.alpha * self.alpha
        u = 1.0 + al2 * x * x
        return (-2.0 * al2 * u + 8.0 * al2 * al2 * x * x) / u ** 3

    def potential(self, x):
        al = self.alpha
        al2 = al * al
        s = np.arcsinh(al * x) / al
        return s * s - 0.25 * al2 * (2.0 + al2 * x * x) / (1.0 + al2 * x * x)

    def energy(self, k: int) -> float:
        return 2.0 * k + 1.0

    def eigenstate(self, k: int, x):
        # In the stretched coordinate s = arcsinh(alpha x)/alpha the problem
        # is exactly the unit harmonic oscillator; psi = m^(1/4) u_k(s) with
        # u_k the standard normalized oscillator state, for every alpha.
        al = self.alpha
        al2 = al * al
        s = np.arcsinh(al * x) / al
        h = hermite(k, s)  # refuses k before 2^k k! overflows
        norm = math.sqrt(1.0 / (2.0 ** k * math.factorial(k))) * math.pi ** -0.25
        return norm * np.exp(-0.5 * s * s) / (1.0 + al2 * x * x) ** 0.25 * h


@dataclass(frozen=True)
class Ex2(PdmModel):
    """Model with m(x) = sech^2(x/2)/4 and E_n = n^2 + n(a+b) + c(a+b-c+1)/2.

    Bound states carry a Jacobi polynomial in t = (1 - e^x)/(1 + e^x), with
    the polynomial's own sign.  ``grids.normalize_state`` alone fixes every
    state's norm and sign downstream.
    """

    a: float = 1.0
    b: float = 5.0
    c: float = 4.0

    name = "ex2"
    recommended_grid = Grid(-14.0, 14.0, 4001)
    spectrum_tolerance = 1e-2

    def __post_init__(self):
        # a and b enter only as a + b; the potential, the energies and the
        # auxiliary exponent square a + b, a + b - c and c
        roots = (self.a + self.b, self.a + self.b - self.c, self.c)
        if not all(math.isfinite(r * r) for r in roots):
            raise DomainError(
                f"a={self.a}, b={self.b}, c={self.c} overflow double precision "
                "(the squares of a + b, a + b - c and c must be finite)"
            )
        # In y = 2 atan(tanh(x/4)) each end is Bessel-like with index nu, and
        # Dirichlet windows converge to the closed form only where it is the
        # principal branch at both ends with nu > 0, that is c > 1 and a + b > c
        ends = (("c > 1", "left end (x -> -inf)", "|c - 1|", self.c - 1.0),
                ("a + b > c", "right end (x -> +inf)", "|a + b - c|", self.a + self.b - self.c))
        for need, end, nu, margin in ends:
            if not margin > 0.0:
                why = ("Dirichlet windows approach the closed form only like 1/ln(1/delta)"
                       if margin == 0.0 else "the closed form is not the principal solution"
                       " there, the one Dirichlet windows approach")
                raise DomainError(
                    f"need {need}, got a={self.a}, b={self.b}, c={self.c}: at the {end}"
                    f" nu = {nu} = {abs(margin):g}, and {why}"
                )

    def mass(self, x):
        return 0.25 / np.cosh(0.5 * x) ** 2

    def mass_d1(self, x):
        return -0.25 * np.tanh(0.5 * x) / np.cosh(0.5 * x) ** 2

    def mass_d2(self, x):
        t = np.tanh(0.5 * x)
        return 0.125 * (2.0 * t * t - (1.0 - t * t)) / np.cosh(0.5 * x) ** 2

    def potential(self, x):
        a, b, c = self.a, self.b, self.c
        return ((a + b - c) ** 2 - 1.0) / 4.0 * np.exp(x) + c * (c - 2.0) / 4.0 * np.exp(-x)

    def energy(self, n: int) -> float:
        return n * n + n * (self.a + self.b) + self.c * (self.a + self.b - self.c + 1.0) / 2.0

    def eigenstate(self, n: int, x):
        a, b, c = self.a, self.b, self.c
        t = (1.0 - np.exp(x)) / (1.0 + np.exp(x))
        return np.exp(0.5 * c * x) / (1.0 + np.exp(x)) ** (0.5 * (a + b + 1.0)) * jacobi(
            n, c - 1.0, a + b - c, t
        )


def _unit_mass(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class HarmonicOscillator(PdmModel):
    """Constant-mass harmonic oscillator, V = x^2 - 1, so that E_k = 2k."""

    name = "ho"
    recommended_grid = Grid(-8.0, 8.0, 1601)
    spectrum_tolerance = 1e-5
    mass = staticmethod(_unit_mass)
    mass_d1 = mass_d2 = staticmethod(_zero)

    def potential(self, x):
        return x * x - 1.0

    def energy(self, k: int) -> float:
        return 2.0 * k

    def eigenstate(self, k: int, x):
        h = hermite(k, np.asarray(x, dtype=float))  # refuses k before 2^k k! overflows
        norm = (2.0 ** k * math.factorial(k) * math.sqrt(math.pi)) ** -0.5
        return norm * np.exp(-0.5 * x * x) * h


@dataclass(frozen=True)
class Box(PdmModel):
    """Particle in a box on [0, 1]: the textbook sanity check for the solver."""

    name = "box"
    recommended_grid = Grid(0.0, 1.0, 2001)
    spectrum_tolerance = 1e-2
    mass = staticmethod(_unit_mass)
    mass_d1 = mass_d2 = potential = staticmethod(_zero)

    def energy(self, k: int) -> float:
        return ((k + 1) * math.pi) ** 2

    def eigenstate(self, k: int, x):
        return math.sqrt(2.0) * np.sin((k + 1) * math.pi * np.asarray(x, dtype=float))


# ---------------------------------------------------------------------------
# Auxiliary (non-normalizable) solutions, marched from where they decay
# ---------------------------------------------------------------------------

_SEED_SUBSTEPS = 4
_MARCH_BLOCK = 1024
# a damping exponent of ln(1/eps) leaves the other solution's admixture at
# x_min below the rounding error of the decaying one
_SEED_DAMPING = -math.log(np.finfo(float).eps)


def _rk4_step(y, dy, hs, a0, b0, am, bm, a1, b1):
    """One RK4 step of u'' = a u + b u' from (y, dy), with (a, b) at the
    step's start (a0, b0), midpoint (am, bm) and end (a1, b1)."""
    hh = 0.5 * hs
    k1d = a0 * y + b0 * dy
    y2 = y + hh * dy
    d2 = dy + hh * k1d
    k2d = am * y2 + bm * d2
    y3 = y + hh * d2
    d3 = dy + hh * k2d
    k3d = am * y3 + bm * d3
    y4 = y + hs * d3
    d4 = dy + hs * k3d
    k4d = a1 * y4 + b1 * d4
    return (y + hs * (dy + 2.0 * d2 + 2.0 * d3 + d4) / 6.0,
            dy + hs * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0)


def _integrate_linear2(y0, dy0, hs, c1, c2, nsub, n_nodes):
    """RK4 march of u'' = c1(x) u + c2(x) u' from node 0 to node n_nodes-1,
    with nsub substeps per interval.

    c1 and c2 are sampled on the half-substep lattice along the marching
    direction: index 2*s is the start of substep s, 2*s + 1 its midpoint.
    An RK4 step of this linear equation maps (u, u') by a 2x2 matrix, so
    each node interval has a transfer matrix: its nsub substeps applied, in
    numpy over all intervals at once, to the columns (1, 0) and (0, 1).
    Only the node-to-node products run on Python floats.  The work goes
    _MARCH_BLOCK nodes at a time, so its temporaries stay small.  The
    result agrees with a substep-by-substep march to rounding, not bit for
    bit: the products round in another order.
    """
    out = np.empty(n_nodes)
    y = float(y0)
    dy = float(dy0)
    out[0] = y0
    # lattice entries per interval
    per = 2 * nsub
    for lo in range(1, n_nodes, _MARCH_BLOCK):
        hi = min(lo + _MARCH_BLOCK, n_nodes)
        p = c1[per * (lo - 1):per * (hi - 1) + 1]
        q = c2[per * (lo - 1):per * (hi - 1) + 1]
        # column j of every interval's matrix, from the identity: u in ty[j], u' in td[j]
        ty = np.repeat([[1.0], [0.0]], hi - lo, axis=1)
        td = ty[::-1].copy()
        # an entry may overflow, as a Python float does, without a warning
        with np.errstate(all="ignore"):
            for k in range(0, per, 2):
                ty, td = _rk4_step(ty, td, hs, p[k:-1:per], q[k:-1:per], p[k + 1::per],
                                   q[k + 1::per], p[k + 2::per], q[k + 2::per])
        ys = []
        for t11, t12, t21, t22 in zip(ty[0].tolist(), ty[1].tolist(),
                                      td[0].tolist(), td[1].tolist()):
            y, dy = t11 * y + t12 * dy, t21 * y + t22 * dy
            ys.append(y)
        out[lo:hi] = ys
    return out


def _seed_coefficients(model: PdmModel, x: np.ndarray, energy: float):
    """c1 = m (V - E) and c2 = m'/m of the equation u'' = c1 u + c2 u'."""
    m = model.mass(x)
    return m * (model.potential(x) - energy), model.mass_d1(x) / m


def seed_solution(model: PdmModel, n: int, beta: float, grid: Grid) -> SampledFunction:
    """The solution of the mass-weighted equation at energy E_n - beta that
    decays to the left, for any model.

    u'' = m (V - E) u + (m'/m) u' has the local exponents m'/(2m) +- kappa,
    kappa^2 = (m'/(2m))^2 + m (V - E).  The march starts left of x_min, on
    the grid's spacing, at the first node from which the damping exponent
    (the integral of 2 kappa up to x_min) reaches ln(1/eps), but at most one
    window width out.  It starts from u = 1, u' = (m'/(2m) + kappa) u and runs
    rightward, which damps the admixture of the solution that grows to the
    left by that exponent before x_min.

    The result is generally non-normalizable; only its logarithmic derivative
    matters downstream, so its overall scale is arbitrary.
    """
    e = model.energy(n) - beta
    width = grid.n_points - 1
    # x_min, x_min - h, ..., x_min - width h
    lattice, h = grid.substep_lattice(-width, 1)
    back = lattice[2 * width::-2]
    # the model's closed forms may overflow beyond the window, and a
    # non-finite coefficient never reaches the damping exponent
    with np.errstate(all="ignore"):
        c1, c2 = _seed_coefficients(model, back, e)
        kappa2 = 0.25 * c2 * c2 + c1
        kappa = np.sqrt(np.maximum(kappa2, 0.0))
        damping = np.cumsum(h * (kappa[:-1] + kappa[1:]))
    reached = damping >= _SEED_DAMPING
    start = int(np.argmax(reached)) + 1 if reached.any() else width
    if not kappa2[start] > 0.0:
        raise DomainError(
            f"seed energy {e} makes the equation oscillate at the march's start"
            f" x = {back[start]:.6g}, left of x_min = {grid.x_min}: no auxiliary"
            " solution decays there"
        )
    xs, hs = grid.substep_lattice(-start, _SEED_SUBSTEPS)
    with np.errstate(all="ignore"):
        c1, c2 = _seed_coefficients(model, xs, e)
    slope = 0.5 * c2[0] + math.sqrt(kappa2[start])
    u = _integrate_linear2(1.0, slope, hs, c1, c2, _SEED_SUBSTEPS, start + grid.n_points)
    return SampledFunction(grid, u[start:])


# the model catalog: CLI identifier -> model class; the CLI's --model
# choices and parameter flags (one per field) are read from this table, and
# a flag not given takes the field's default
MODELS = {model.name: model for model in (Ex1, Ex2, HarmonicOscillator, Box)}


def catalog(name: str, **params) -> PdmModel:
    """Build a model by CLI identifier; a keyword it has no field for is refused."""
    if name not in MODELS:
        raise ConfigurationError(f"unknown model {name!r} (expected one of {', '.join(MODELS)})")
    names = {f.name for f in fields(MODELS[name])}
    unknown = [key for key in params if key not in names]
    if unknown:
        raise ConfigurationError(f"model {name} takes no parameter {', '.join(unknown)}")
    return MODELS[name](**params)
