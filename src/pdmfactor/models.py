"""Catalog of exactly solvable position-dependent-mass models.

Each model bundles a mass profile m(x) > 0 (with first and second derivative
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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError
from .grids import Grid, SampledFunction, derivative
from .specfun import HypergeometricParams, gauss_2f1, hermite, jacobi

__all__ = [
    "PdmModel",
    "Ex1Params",
    "Ex2Params",
    "model_ex1",
    "model_ex2",
    "model_constant_mass_ho",
    "model_box",
    "seed_solution_ex2",
    "catalog",
    "weighted_defect",
]


@dataclass(frozen=True)
class PdmModel:
    """A solvable mass/potential pair with closed-form spectrum."""

    name: str
    mass: Callable[[np.ndarray], np.ndarray]
    mass_d1: Callable[[np.ndarray], np.ndarray]
    mass_d2: Callable[[np.ndarray], np.ndarray]
    potential: Callable[[np.ndarray], np.ndarray]
    energy: Callable[[int], float]
    eigenstate: Callable[[int], Callable[[np.ndarray], np.ndarray]]
    recommended_grid: Grid
    spectrum_tolerance: float
    seed_solution: Optional[Callable[[int, float, Grid], SampledFunction]] = field(default=None)

    def eigenstate_samples(self, k: int, grid: Grid | None = None) -> SampledFunction:
        g = grid or self.recommended_grid
        return SampledFunction(g, self.eigenstate(k)(g.points()))

    def potential_samples(self, grid: Grid | None = None) -> SampledFunction:
        g = grid or self.recommended_grid
        return SampledFunction(g, self.potential(g.points()))


def weighted_defect(model: PdmModel, potential: SampledFunction,
                    psi: SampledFunction, energy: float) -> np.ndarray:
    """-psi'' + (m'/m) psi' + m (V - E) psi: the PDM equation times m.

    This is the package's one application of the operator, with 4th-order
    stencils.  The m-weighted form keeps every coefficient O(1) where the
    mass vanishes at the truncation wings; divide by m for the residual of
    -(1/m) psi'' + (m'/m^2) psi' + (V - E) psi.
    """
    x = psi.x
    m = model.mass(x)
    d1 = derivative(psi)
    d2 = derivative(d1)
    return -d2.values + (model.mass_d1(x) / m) * d1.values + m * (
        potential.values - energy
    ) * psi.values


@dataclass(frozen=True)
class Ex1Params:
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class Ex2Params:
    a: float = 1.0
    b: float = 5.0
    c: float = 4.0

    def __post_init__(self):
        if not self.c > 0.5:
            raise DomainError(f"need c > 1/2, got c={self.c}")
        if not self.a + self.b - self.c + 0.5 > 0.0:
            raise DomainError("need a + b - c + 1/2 > 0")


def model_ex1(p: Ex1Params = Ex1Params()) -> PdmModel:
    """Oscillator-like model with m(x) = 1/(1 + alpha^2 x^2) and E_k = 2k + 1.

    Bound states are Hermite-Gaussian in the stretched coordinate
    s = arcsinh(alpha x)/alpha; they decay only like exp(-arcsinh(x)^2/2), so
    the recommended grid is very wide.
    """
    al = p.alpha
    al2 = al * al

    def mass(x):
        return 1.0 / (1.0 + al2 * x * x)

    def mass_d1(x):
        return -2.0 * al2 * x / (1.0 + al2 * x * x) ** 2

    def mass_d2(x):
        u = 1.0 + al2 * x * x
        return (-2.0 * al2 * u + 8.0 * al2 * al2 * x * x) / u ** 3

    def potential(x):
        s = np.arcsinh(al * x) / al
        return s * s - 0.25 * al2 * (2.0 + al2 * x * x) / (1.0 + al2 * x * x)

    def energy(k: int) -> float:
        return 2.0 * k + 1.0

    def eigenstate(k: int):
        # In the stretched coordinate s = arcsinh(alpha x)/alpha the problem
        # is exactly the unit harmonic oscillator; psi = m^(1/4) u_k(s) with
        # u_k the standard normalized oscillator state, for every alpha.
        norm = math.sqrt(1.0 / (2.0 ** k * math.factorial(k))) * math.pi ** -0.25

        def psi(x):
            s = np.arcsinh(al * x) / al
            return norm * np.exp(-0.5 * s * s) / (1.0 + al2 * x * x) ** 0.25 * hermite(k, s)

        return psi

    return PdmModel(
        name="ex1",
        mass=mass,
        mass_d1=mass_d1,
        mass_d2=mass_d2,
        potential=potential,
        energy=energy,
        eigenstate=eigenstate,
        recommended_grid=Grid(-250.0, 250.0, 8001),
        spectrum_tolerance=1e-3,
    )


def model_ex2(p: Ex2Params = Ex2Params()) -> PdmModel:
    """Model with m(x) = sech^2(x/2)/4 and E_n = n^2 + n(a+b) + c(a+b-c+1)/2.

    Bound states carry a Jacobi polynomial in t = (1 - e^x)/(1 + e^x); the
    overall sign is fixed so each state decays to zero from above as
    x -> +infinity.  Normalization is left to quadrature downstream.
    """
    a, b, c = p.a, p.b, p.c

    def mass(x):
        return 0.25 / np.cosh(0.5 * x) ** 2

    def mass_d1(x):
        return -0.25 * np.tanh(0.5 * x) / np.cosh(0.5 * x) ** 2

    def mass_d2(x):
        t = np.tanh(0.5 * x)
        return 0.125 * (2.0 * t * t - (1.0 - t * t)) / np.cosh(0.5 * x) ** 2

    def potential(x):
        return ((a + b - c) ** 2 - 1.0) / 4.0 * np.exp(x) + c * (c - 2.0) / 4.0 * np.exp(-x)

    def energy(n: int) -> float:
        return n * n + n * (a + b) + c * (a + b - c + 1.0) / 2.0

    def eigenstate(n: int):
        def psi(x):
            t = (1.0 - np.exp(x)) / (1.0 + np.exp(x))
            v = np.exp(0.5 * c * x) / (1.0 + np.exp(x)) ** (0.5 * (a + b + 1.0)) * jacobi(
                n, c - 1.0, a + b - c, t
            )
            # Jacobi value at t -> -1 carries sign (-1)^n; flip so the
            # right-hand tail approaches zero from positive values
            return v if n % 2 == 0 else -v

        return psi

    def seed_solution(n: int, beta: float, grid: Grid) -> SampledFunction:
        return seed_solution_ex2(p, n, beta, grid)

    return PdmModel(
        name="ex2",
        mass=mass,
        mass_d1=mass_d1,
        mass_d2=mass_d2,
        potential=potential,
        energy=energy,
        eigenstate=eigenstate,
        recommended_grid=Grid(-14.0, 14.0, 4001),
        spectrum_tolerance=1e-2,
        seed_solution=seed_solution,
    )


def model_constant_mass_ho() -> PdmModel:
    """Constant-mass harmonic oscillator, V = x^2 - 1, so that E_k = 2k."""

    def mass(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def potential(x):
        return x * x - 1.0

    def energy(k: int) -> float:
        return 2.0 * k

    def eigenstate(k: int):
        norm = (2.0 ** k * math.factorial(k) * math.sqrt(math.pi)) ** -0.5

        def psi(x):
            return norm * np.exp(-0.5 * x * x) * hermite(k, np.asarray(x, dtype=float))

        return psi

    return PdmModel(
        name="ho",
        mass=mass,
        mass_d1=zero,
        mass_d2=zero,
        potential=potential,
        energy=energy,
        eigenstate=eigenstate,
        recommended_grid=Grid(-8.0, 8.0, 1601),
        spectrum_tolerance=1e-5,
    )


def model_box() -> PdmModel:
    """Particle in a box on [0, 1]: the textbook sanity check for the solver."""

    def mass(x):
        return np.ones_like(np.asarray(x, dtype=float))

    def zero(x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def energy(k: int) -> float:
        return ((k + 1) * math.pi) ** 2

    def eigenstate(k: int):
        def psi(x):
            return math.sqrt(2.0) * np.sin((k + 1) * math.pi * np.asarray(x, dtype=float))

        return psi

    return PdmModel(
        name="box",
        mass=mass,
        mass_d1=zero,
        mass_d2=zero,
        potential=zero,
        energy=energy,
        eigenstate=eigenstate,
        recommended_grid=Grid(0.0, 1.0, 2001),
        spectrum_tolerance=1e-2,
    )


# ---------------------------------------------------------------------------
# Auxiliary (non-normalizable) solutions for the sech^2-mass model
# ---------------------------------------------------------------------------

_SEED_SERIES_CUT = 2.0
_SEED_SUBSTEPS = 4


def _seed_closed_form(p: Ex2Params, n: int, beta: float, x: np.ndarray) -> np.ndarray:
    """Closed-form solution at energy E_n - beta, valid for moderate x.

    Written via the Pfaff transform as a series in w = e^x/(1 + e^x), which
    converges for w < 1, i.e. everywhere left of x ~ 6.9; the form is even in
    the sign of the auxiliary exponent P, so the root choice is immaterial.
    As x -> -infinity the solution decays like exp(c x / 2).
    """
    a, b, c = p.a, p.b, p.c
    e = _seed_energy(p, n, beta)
    p2 = (a + b) ** 2 - 2.0 * c * (a + b - c + 1.0) + 4.0 * e
    if p2 < 0.0:
        raise DomainError(
            f"oscillatory auxiliary solution (P^2 = {p2} < 0); no construction is defined"
        )
    P = math.sqrt(p2)
    params = HypergeometricParams(0.5 * (a + b + P), 0.5 * (a + b - P), c)
    w = 1.0 / (1.0 + np.exp(-x))
    pref = np.exp(0.5 * c * x) / (1.0 + np.exp(x)) ** (0.5 * (a + b + 1.0))
    return pref * gauss_2f1(params, w)


def _seed_energy(p: Ex2Params, n: int, beta: float) -> float:
    return n * n + n * (p.a + p.b) + p.c * (p.a + p.b - p.c + 1.0) / 2.0 - beta


def _integrate_linear2(y0, dy0, hs, c1, c2, nsub, n_nodes):
    """RK4 march of u'' = c1(x) u + c2(x) u' from node 0 to node n_nodes-1,
    with nsub substeps per interval.

    c1 and c2 are sampled on the half-substep lattice along the marching
    direction: index 2*s is the start of substep s, 2*s + 1 its midpoint.
    The march runs on Python floats, which round exactly as numpy float64
    scalars do but cost far less per operation.
    """
    c1 = c1.tolist()
    c2 = c2.tolist()
    out = np.empty(n_nodes)
    y = float(y0)
    dy = float(dy0)
    out[0] = y0
    s = 0
    for node in range(1, n_nodes):
        for _ in range(nsub):
            j0 = 2 * s
            k1y = dy
            k1d = c1[j0] * y + c2[j0] * dy
            y2 = y + 0.5 * hs * k1y
            d2 = dy + 0.5 * hs * k1d
            k2y = d2
            k2d = c1[j0 + 1] * y2 + c2[j0 + 1] * d2
            y3 = y + 0.5 * hs * k2y
            d3 = dy + 0.5 * hs * k2d
            k3y = d3
            k3d = c1[j0 + 1] * y3 + c2[j0 + 1] * d3
            y4 = y + hs * k3y
            d4 = dy + hs * k3d
            k4y = d4
            k4d = c1[j0 + 2] * y4 + c2[j0 + 2] * d4
            y = y + hs * (k1y + 2.0 * k2y + 2.0 * k3y + k4y) / 6.0
            dy = dy + hs * (k1d + 2.0 * k2d + 2.0 * k3d + k4d) / 6.0
            s += 1
        out[node] = y
    return out


def seed_solution_ex2(p: Ex2Params, n: int, beta: float, grid: Grid) -> SampledFunction:
    """Solution of the mass-weighted Schrodinger equation at energy E_n - beta.

    Closed form where the hypergeometric series converges (x below the cut),
    then a fixed-step RK4 continuation of the equation
    psi'' = m (V - E) psi + (m'/m) psi' toward the right edge, started from
    the closed-form value and derivative at the matching node and checked
    against the closed form at the adjacent node.

    The result is generally non-normalizable; only its logarithmic derivative
    matters downstream, so the overall scale is fixed by the closed form.
    """
    model = model_ex2(p)
    x = grid.points()
    e = _seed_energy(p, n, beta)
    values = np.empty(grid.n_points)
    icut = int(np.searchsorted(x, _SEED_SERIES_CUT))
    icut = min(max(icut, 3), grid.n_points - 1)
    values[: icut + 1] = _seed_closed_form(p, n, beta, x[: icut + 1])

    if icut < grid.n_points - 1:
        x0 = x[icut]
        dd = 1e-6
        stencil = _seed_closed_form(
            p, n, beta, np.array([x0 - 2 * dd, x0 - dd, x0 + dd, x0 + 2 * dd])
        )
        dpsi0 = (stencil[0] - 8.0 * stencil[1] + 8.0 * stencil[2] - stencil[3]) / (12.0 * dd)
        nsub = _SEED_SUBSTEPS
        hs = grid.h / nsub
        n_right = grid.n_points - icut
        # coefficient tables on the half-substep lattice of the marched region
        xs = x0 + 0.5 * hs * np.arange(2 * nsub * (n_right - 1) + 1)
        m = model.mass(xs)
        c1 = m * (model.potential(xs) - e)
        c2 = model.mass_d1(xs) / m
        marched = _integrate_linear2(values[icut], dpsi0, hs, c1, c2, nsub, n_right)
        values[icut:] = marched
        # consistency between the two evaluation routes at the matching nodes
        if icut + 1 < grid.n_points and x[icut + 1] < 4.0:
            ref = _seed_closed_form(p, n, beta, x[icut + 1 : icut + 2])[0]
            if abs(marched[1] - ref) > 1e-6 * max(abs(ref), 1.0):
                raise ConfigurationError(
                    "closed-form and integrated auxiliary solutions disagree at the "
                    f"matching node ({marched[1]} vs {ref})"
                )
    return SampledFunction(grid, values)


def catalog(name: str, **params) -> PdmModel:
    """Look up a model by CLI identifier."""
    if name == "ex1":
        return model_ex1(Ex1Params(alpha=params.get("alpha", 1.0)))
    if name == "ex2":
        return model_ex2(
            Ex2Params(a=params.get("a", 1.0), b=params.get("b", 5.0), c=params.get("c", 4.0))
        )
    if name == "ho":
        return model_constant_mass_ho()
    if name == "box":
        return model_box()
    raise ConfigurationError(f"unknown model {name!r} (expected ex1, ex2, ho or box)")
