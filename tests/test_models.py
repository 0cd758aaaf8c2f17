import re

import numpy as np
import pytest

from pdmfactor.errors import ConfigurationError, DomainError
from pdmfactor.grids import Grid, SampledFunction, definite_integral, derivative
import pdmfactor.models
from pdmfactor.models import (
    _integrate_linear2,
    Box,
    Ex1,
    Ex2,
    MODELS,
    catalog,
    seed_solution,
)
from pdmfactor.spectra import count_nodes, solve_spectrum
from tests.hypergeometric import ex2_seed_closed_form
from tests.ladder import weighted_defect

SEED_GRID = Grid(-12.0, 14.0, 32001)


def pdmse_residual(model, psi, energy):
    """Direct defect of -(1/m) psi'' + (m'/m^2) psi' + V psi = E psi."""
    v = model.potential_samples(psi.grid)
    res = weighted_defect(model, v, psi, energy) / model.mass(psi.x)
    return np.max(np.abs(res[4:-4])) / np.max(np.abs(psi.values))


class TestEx1:
    def test_params(self):
        with pytest.raises(DomainError):
            Ex1(alpha=-1.0)

    def test_energies(self, ex1):
        assert ex1.energy(0) == 1.0
        assert ex1.energy(3) == 7.0

    def test_first_excited_vanishes_only_at_origin(self, ex1):
        psi = ex1.eigenstate_samples(1)
        x = psi.x
        v = psi.values
        zero_set = np.abs(v) < 1e-12
        assert np.all(np.abs(x[zero_set]) < 1e-12)
        assert count_nodes(psi) == 1

    def test_ground_state_normalized(self, ex1):
        psi = ex1.eigenstate_samples(0)
        norm2 = definite_integral(psi.with_values(psi.values**2))
        assert abs(norm2 - 1.0) < 1e-6

    def test_states_solve_equation(self, ex1):
        # the 4th-order stencil needs a fine grid to push the sup of the
        # residual below 1e-5 for the k = 4 state
        grid = Grid(-250.0, 250.0, 64001)
        for k in range(5):
            psi = ex1.eigenstate_samples(k, grid)
            assert pdmse_residual(ex1, psi, ex1.energy(k)) <= 1e-5

    def test_mass_positive(self, ex1):
        assert np.all(ex1.mass(ex1.recommended_grid.points()) > 0.0)

    def test_general_alpha_states_still_solve(self):
        model = Ex1(alpha=0.5)
        grid = Grid(-400.0, 400.0, 64001)
        for k in (0, 2):
            psi = model.eigenstate_samples(k, grid)
            assert pdmse_residual(model, psi, model.energy(k)) <= 1e-5


class TestEx2:
    def test_params(self):
        with pytest.raises(DomainError):
            Ex2(a=1.0, b=5.0, c=0.4)
        with pytest.raises(DomainError):
            Ex2(a=-3.0, b=1.0, c=4.0)

    @pytest.mark.parametrize("c", [0.4, 0.9, 1.0, 1.0 + 2**-52, 1.25, 4.0])
    @pytest.mark.parametrize("a, b", [(-3.0, 1.0), (-1.0, 5.0), (0.5, 0.5), (1.0, 1.0),
                                      (0.5, 2.0), (1.0, 5.0)])
    def test_refused_exactly_where_no_window_answers(self, a, b, c):
        if c > 1.0 and a + b > c:
            assert Ex2(a=a, b=b, c=c).c == c
        else:
            need = "need c > 1," if c <= 1.0 else "need a + b > c,"
            with pytest.raises(DomainError, match=re.escape(need)):
                Ex2(a=a, b=b, c=c)

    @pytest.mark.parametrize("a, b, c, message", [
        (1.0, 1.0, 1.0, "need c > 1, got a=1.0, b=1.0, c=1.0: at the left end (x -> -inf)"
         " nu = |c - 1| = 0, and Dirichlet windows approach the closed form only like"
         " 1/ln(1/delta)"),
        (1.0, 1.0, 0.75, "need c > 1, got a=1.0, b=1.0, c=0.75: at the left end (x -> -inf)"
         " nu = |c - 1| = 0.25, and the closed form is not the principal solution there, the"
         " one Dirichlet windows approach"),
        (-1.0, 5.0, 4.0, "need a + b > c, got a=-1.0, b=5.0, c=4.0: at the right end"
         " (x -> +inf) nu = |a + b - c| = 0, and Dirichlet windows approach the closed form"
         " only like 1/ln(1/delta)"),
        (1.0, 1.0, 2.25, "need a + b > c, got a=1.0, b=1.0, c=2.25: at the right end"
         " (x -> +inf) nu = |a + b - c| = 0.25, and the closed form is not the principal"
         " solution there, the one Dirichlet windows approach"),
    ])
    def test_refusal_names_the_end_and_nu(self, a, b, c, message):
        with pytest.raises(DomainError) as exc:
            Ex2(a=a, b=b, c=c)
        assert str(exc.value) == message

    def test_energies(self, ex2):
        assert ex2.energy(0) == 6.0
        assert ex2.energy(1) == 13.0
        assert ex2.energy(2) == 22.0

    def test_states_solve_equation(self, ex2):
        for n in range(4):
            psi = ex2.eigenstate_samples(n)
            assert pdmse_residual(ex2, psi, ex2.energy(n)) <= 1e-5

    def test_state_that_overflows_is_refused(self):
        # (1 + e^x)^((a + b + 1)/2) overflows for x > 1e-49 with b = 5.7e51
        with pytest.raises(DomainError, match="state 4 of ex2 overflows on the grid"):
            Ex2(a=-1.1, b=5.7e51).eigenstate_samples(4)

    def test_mass_positive(self, ex2):
        assert np.all(ex2.mass(ex2.recommended_grid.points()) > 0.0)


class TestConstantMass:
    def test_energy_shift_convention(self, ho):
        assert ho.energy(0) == 0.0

    def test_node_theorem(self, ho):
        assert count_nodes(ho.eigenstate_samples(2)) == 2

    def test_numerical_spectrum(self, ho):
        rep = solve_spectrum(ho, ho.potential_samples(), 4)
        assert np.max(np.abs(rep.eigenvalues - np.array([0.0, 2.0, 4.0, 6.0]))) < 1e-5


class TestCatalog:
    def test_parameters_reach_the_model(self):
        assert catalog("ex2", b=8.0) == Ex2(a=1.0, b=8.0, c=4.0)
        assert catalog("ex1") == Ex1(alpha=1.0)

    @pytest.mark.parametrize("name, params, message", [
        ("ho", {"alpha": 5.0}, "model ho takes no parameter alpha"),
        ("ex1", {"alpha": 2.0, "c": 4.0}, "model ex1 takes no parameter c"),
        ("nope", {}, "unknown model 'nope'"),
    ])
    def test_refusals(self, name, params, message):
        with pytest.raises(ConfigurationError, match=message):
            catalog(name, **params)


class TestCatalogInvariants:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    def test_solver_reproduces_energies(self, name):
        model = catalog(name)
        rep = solve_spectrum(model, model.potential_samples(), 5)
        exact = np.array([model.energy(k) for k in range(5)])
        assert np.max(np.abs(rep.eigenvalues - exact)) <= model.spectrum_tolerance

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho"])
    def test_node_counts_in_order(self, name):
        model = catalog(name)
        for k in range(5):
            assert count_nodes(model.eigenstate_samples(k)) == k


def pdmse_residual_weighted(model, psi, energy):
    """Defect of -psi'' + (m'/m) psi' + m (V - E) psi = 0 (all terms O(1))."""
    res = weighted_defect(model, model.potential_samples(psi.grid), psi, energy)
    return np.max(np.abs(res[4:-4])) / np.max(np.abs(psi.values))


def numpy_scalar_march(y0, dy0, hs, c1, c2, nsub, n_nodes):
    """The RK4 march substep by substep, on numpy scalars and indexed tables:
    the reference that _integrate_linear2's transfer matrices must match to
    rounding."""
    out = np.empty(n_nodes)
    y = y0
    dy = dy0
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


class TestSeedMarch:
    def test_rk4_matches_sine(self):
        # u'' = -u, u(0) = 0, u'(0) = 1 -> sin
        n_nodes, nsub = 201, 4
        h = np.pi / (n_nodes - 1)
        width = 2 * nsub * (n_nodes - 1) + 1
        got = _integrate_linear2(0.0, 1.0, h / nsub, -np.ones(width), np.zeros(width),
                                 nsub, n_nodes)
        x = np.linspace(0.0, np.pi, n_nodes)
        assert np.max(np.abs(got - np.sin(x))) < 1e-10

    @staticmethod
    def assert_matches_numpy_scalar_march(args):
        # the transfer matrices round in another order than the substep
        # march: measured up to 5.2e-15 of max|u| on the seed tables and
        # 1.8e-14 on the random ones; the bound is 1e-13
        ref = numpy_scalar_march(*args)
        got = _integrate_linear2(*args)
        assert got.shape == ref.shape and got[0] == ref[0]
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("n, beta", [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)])
    def test_matches_numpy_scalar_march_on_seed_tables(self, monkeypatch, n, beta):
        calls = []

        def record(*args):
            calls.append(args)
            return _integrate_linear2(*args)

        monkeypatch.setattr(pdmfactor.models, "_integrate_linear2", record)
        seed_solution(Ex2(), n, beta, Ex2.recommended_grid)
        (args,) = calls
        self.assert_matches_numpy_scalar_march(args)

    # one interval, and node counts at the edges of the 1024-node march blocks
    @pytest.mark.parametrize("n_nodes", [2, 1024, 1025, 2049])
    @pytest.mark.parametrize("nsub", [1, 3, 4])
    def test_matches_numpy_scalar_march_on_random_tables(self, n_nodes, nsub):
        rng = np.random.default_rng(7)
        width = 2 * nsub * (n_nodes - 1) + 1
        c1, c2 = rng.uniform(-2.0, 2.0, (2, width))
        self.assert_matches_numpy_scalar_march(
            (np.float64(0.3), np.float64(-1.7), 0.01, c1, c2, nsub, n_nodes))


class TestSeedSolution:
    def test_solves_equation(self, ex2):
        # raw-form residual where 1/m stays moderate; the sup over the full
        # grid is checked in the weighted form, since 1/m ~ e^|x| at the wings
        # amplifies pure float64 stencil noise past any fixed tolerance
        seed = seed_solution(Ex2(), 1, 1.0, SEED_GRID)
        assert pdmse_residual_weighted(ex2, seed, ex2.energy(1) - 1.0) <= 1e-6
        x = SEED_GRID.points()
        window = np.abs(x) <= 6.0
        v = ex2.potential_samples(SEED_GRID)
        raw = weighted_defect(ex2, v, seed, ex2.energy(1) - 1.0) / ex2.mass(x)
        assert np.max(np.abs(raw[window])) <= 1e-6 * np.max(np.abs(seed.values))

    def test_node_structure(self):
        # at energy E_n - beta between the (n-1)-th and n-th levels, every
        # solution oscillates; the left-decaying one has exactly n sign changes
        for n in (1, 2):
            seed = seed_solution(Ex2(), n, 1.0, SEED_GRID)
            assert count_nodes(seed) == n

    @pytest.mark.parametrize("model, n, beta", [(Ex2(), 1, -1e300), (Box(), 1, 1.0)])
    def test_energy_oscillatory_at_the_start_is_refused(self, model, n, beta):
        # no solution decays to the left where the energy lies above m V
        with pytest.raises(DomainError, match="^seed energy .* no auxiliary solution decays"):
            seed_solution(model, n, beta, model.recommended_grid)

    def test_scale_invariance_downstream(self, ex2, fac_ex2_n1):
        # doubling the seed leaves the deformation function unchanged
        from pdmfactor.factor import auxiliary_f

        grid = fac_ex2_n1.grid
        seed = seed_solution(Ex2(), 1, 1.0, grid)
        doubled = seed.with_values(2.0 * seed.values)
        f2 = auxiliary_f(doubled, ex2, fac_ex2_n1.W_n, 1.0)
        ref = fac_ex2_n1.f_n.values.values
        assert np.max(np.abs(f2.values.values - ref)) <= 1e-10 * np.max(np.abs(ref))


class TestSeedOracle:
    """The march against ex2's closed form, left of x = 4 where its series
    converges quickly."""

    @pytest.mark.parametrize("grid", [
        Grid(-14.0, 14.0, 2001), Grid(-14.0, 14.0, 4001), SEED_GRID, Grid(0.0, 14.0, 4001),
    ], ids=["[-14,14]x2001", "[-14,14]x4001", "[-12,14]x32001", "[0,14]x4001"])
    @pytest.mark.parametrize("n, beta", [(1, 1.0), (2, 0.5)])
    def test_march_matches_closed_form(self, grid, n, beta):
        left = grid.points() <= 4.0
        closed = ex2_seed_closed_form(Ex2(), n, beta, grid.points()[left])
        marched = seed_solution(Ex2(), n, beta, grid).values[left]
        # the scale is arbitrary: match it at the peak; relative errors are
        # taken against |closed| floored at 1e-6 of the peak, which keeps
        # the seed's sign changes and deep left tail from dividing by ~0
        peak = int(np.argmax(np.abs(closed)))
        marched = marched * (closed[peak] / marched[peak])
        scale = np.maximum(np.abs(closed), 1e-6 * abs(closed[peak]))
        assert np.max(np.abs(marched - closed) / scale) <= 1e-7


@pytest.mark.parametrize("name", list(MODELS))
def test_mass_derivatives_match_the_stencil(name):
    # mass_d1 and mass_d2 are closed forms; the 4th-order stencil of the
    # mass samples on the default grid checks both (ex1's coarse default
    # grid reads 3.6e-4 on mass_d2, and a 1 % error in one of its terms 4e-3)
    model = MODELS[name]()
    grid = model.recommended_grid
    x = grid.points()
    d1 = derivative(SampledFunction(grid, model.mass(x)))
    d2 = derivative(d1)
    for exact, stencil in ((model.mass_d1(x), d1.values), (model.mass_d2(x), d2.values)):
        assert np.max(np.abs(stencil - exact)) <= 1e-3 * np.max(np.abs(exact))
