import numpy as np
import pytest

from pdmfactor.errors import DomainError
from pdmfactor.grids import Grid, definite_integral
import pdmfactor.models
from pdmfactor.models import (
    _integrate_linear2,
    weighted_defect,
    Ex1Params,
    Ex2Params,
    catalog,
    model_box,
    model_constant_mass_ho,
    model_ex1,
    model_ex2,
    seed_solution_ex2,
)
from pdmfactor.spectra import count_nodes, solve_spectrum

SEED_GRID = Grid(-12.0, 14.0, 32001)


def pdmse_residual(model, psi, energy):
    """Direct defect of -(1/m) psi'' + (m'/m^2) psi' + V psi = E psi."""
    v = model.potential_samples(psi.grid)
    res = weighted_defect(model, v, psi, energy) / model.mass(psi.x)
    return np.max(np.abs(res[4:-4])) / np.max(np.abs(psi.values))


class TestEx1:
    def test_params(self):
        with pytest.raises(DomainError):
            Ex1Params(alpha=-1.0)

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
        model = model_ex1(Ex1Params(alpha=0.5))
        grid = Grid(-400.0, 400.0, 64001)
        for k in (0, 2):
            psi = model.eigenstate_samples(k, grid)
            assert pdmse_residual(model, psi, model.energy(k)) <= 1e-5


class TestEx2:
    def test_params(self):
        with pytest.raises(DomainError):
            Ex2Params(a=1.0, b=5.0, c=0.4)
        with pytest.raises(DomainError):
            Ex2Params(a=-3.0, b=1.0, c=4.0)

    def test_energies(self, ex2):
        assert ex2.energy(0) == 6.0
        assert ex2.energy(1) == 13.0
        assert ex2.energy(2) == 22.0

    def test_right_tail_sign_convention(self, ex2):
        x = ex2.recommended_grid.points()
        for n in range(4):
            tail = ex2.eigenstate(n)(x[-50:])
            assert np.all(tail > 0.0)

    def test_states_solve_equation(self, ex2):
        for n in range(4):
            psi = ex2.eigenstate_samples(n)
            assert pdmse_residual(ex2, psi, ex2.energy(n)) <= 1e-5

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
    """The RK4 march on numpy scalars and indexed tables; _integrate_linear2
    must reproduce it bit for bit."""
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

    @pytest.mark.parametrize("n, beta", [(1, 0.5), (1, 1.0), (2, 0.5), (2, 1.0)])
    def test_matches_numpy_scalar_march_on_seed_tables(self, monkeypatch, n, beta):
        calls = []

        def record(*args):
            calls.append(args)
            return _integrate_linear2(*args)

        monkeypatch.setattr(pdmfactor.models, "_integrate_linear2", record)
        seed_solution_ex2(Ex2Params(), n, beta, model_ex2().recommended_grid)
        (args,) = calls
        assert isinstance(args[0], np.float64)
        assert np.array_equal(_integrate_linear2(*args), numpy_scalar_march(*args))

    def test_matches_numpy_scalar_march_from_float64_start(self):
        rng = np.random.default_rng(7)
        n_nodes, nsub = 301, 3
        width = 2 * nsub * (n_nodes - 1) + 1
        c1, c2 = rng.uniform(-2.0, 2.0, (2, width))
        y0, dy0 = np.float64(0.3), np.float64(-1.7)
        got = _integrate_linear2(y0, dy0, 0.01, c1, c2, nsub, n_nodes)
        assert np.array_equal(got, numpy_scalar_march(y0, dy0, 0.01, c1, c2, nsub, n_nodes))


class TestSeedSolution:
    def test_solves_equation(self, ex2):
        # raw-form residual where 1/m stays moderate; the sup over the full
        # grid is checked in the weighted form, since 1/m ~ e^|x| at the wings
        # amplifies pure float64 stencil noise past any fixed tolerance
        seed = seed_solution_ex2(Ex2Params(), 1, 1.0, SEED_GRID)
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
            seed = seed_solution_ex2(Ex2Params(), n, 1.0, SEED_GRID)
            assert count_nodes(seed) == n

    def test_oscillatory_regime_rejected(self):
        with pytest.raises(DomainError):
            seed_solution_ex2(Ex2Params(), 1, 20.0, SEED_GRID)

    def test_scale_invariance_downstream(self, ex2, fac_ex2_n1):
        # doubling the seed leaves the deformation function unchanged
        from pdmfactor.factor import auxiliary_f

        grid = fac_ex2_n1.grid
        seed = seed_solution_ex2(Ex2Params(), 1, 1.0, grid)
        doubled = seed.with_values(2.0 * seed.values)
        f2 = auxiliary_f(doubled, fac_ex2_n1.psi_n, ex2, fac_ex2_n1.W_n, 1.0)
        ref = fac_ex2_n1.f_n.values.values
        assert np.max(np.abs(f2.values.values - ref)) <= 1e-10 * np.max(np.abs(ref))
