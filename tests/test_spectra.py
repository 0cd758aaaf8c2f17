import numpy as np
import pytest

import pdmfactor.spectra
from pdmfactor.errors import ConfigurationError, DomainError, SolverError
from pdmfactor.grids import Grid, SampledFunction
from pdmfactor.models import catalog, model_box, model_constant_mass_ho, model_ex1, model_ex2
from pdmfactor.spectra import (
    _TINY,
    _bisect_lowest,
    _inverse_iteration,
    _tridiag_solve_pivot,
    count_nodes,
    discretize,
    lowest_eigenpairs,
    solve_spectrum,
)


def plain_bisect(diag, off2, k, lo0, hi0, tol, maxit):
    """Reference bisection, one Sturm sweep per round; also returns the rounds."""
    lo = np.full(k, lo0)
    hi = np.full(k, hi0)
    targets = np.arange(k)
    rounds = 0
    for _ in range(maxit):
        if np.max(hi - lo) <= tol:
            break
        mid = 0.5 * (lo + hi)
        d = diag[0] - mid
        d[d == 0.0] = _TINY
        counts = (d < 0.0).astype(np.int64)
        for i in range(1, diag.shape[0]):
            d = diag[i] - mid - off2[i - 1] / d
            d[d == 0.0] = _TINY
            counts += d < 0.0
        above = counts > targets
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        rounds += 1
    return 0.5 * (lo + hi), rounds


def random_tridiagonal(rng, n):
    return rng.uniform(-5.0, 5.0, n), rng.uniform(-3.0, 3.0, n - 1) ** 2


class TestDiscretize:
    def test_constant_mass_stencil(self, ho):
        g = Grid(-1.0, 1.0, 11)
        v = SampledFunction(g, np.arange(11, dtype=float))
        prob = discretize(ho, v)
        h2 = g.h**2
        assert np.allclose(prob.diag, 2.0 / h2 + v.values[1:-1])
        assert np.allclose(prob.off, -1.0 / h2)

    def test_box_ground_state(self):
        box = model_box()
        prob = discretize(box, box.potential_samples())
        rep = lowest_eigenpairs(prob, 1)
        assert abs(rep.eigenvalues[0] - np.pi**2) < 1e-2

    def test_masked_potential_rejected(self, ho):
        g = ho.recommended_grid
        mask = np.zeros(g.n_points, bool)
        mask[5] = True
        v = SampledFunction(g, np.zeros(g.n_points), mask)
        with pytest.raises(DomainError):
            discretize(ho, v)

    def test_symmetry(self, ex2):
        # one off-diagonal array serves as both sub- and superdiagonal
        prob = discretize(ex2, ex2.potential_samples())
        w = np.ones(len(prob.diag))
        forward = prob.matrix_action(w)
        # T w for symmetric tridiagonal: row sums match column sums
        assert np.allclose(forward, prob.diag + np.r_[prob.off, 0] + np.r_[0, prob.off])


class TestLowestEigenpairs:
    def test_constant_mass_ho(self, ho):
        grid = Grid(-8.0, 8.0, 12801)
        prob = discretize(ho, ho.potential_samples(grid))
        rep = lowest_eigenpairs(prob, 4)
        assert np.max(np.abs(rep.eigenvalues - np.array([0.0, 2.0, 4.0, 6.0]))) < 1e-5

    def test_ex1_recommended_grid(self, ex1):
        rep = solve_spectrum(ex1, ex1.potential_samples(), 4)
        assert np.max(np.abs(rep.eigenvalues - np.array([1.0, 3.0, 5.0, 7.0]))) <= 1e-3

    def test_ex2_recommended_grid(self, ex2):
        rep = solve_spectrum(ex2, ex2.potential_samples(), 3)
        assert np.max(np.abs(rep.eigenvalues - np.array([6.0, 13.0, 22.0]))) <= 1e-2

    def test_too_many_levels(self, ho):
        g = Grid(-8.0, 8.0, 101)
        prob = discretize(ho, ho.potential_samples(g))
        with pytest.raises(ConfigurationError):
            lowest_eigenpairs(prob, 11)

    def test_coarse_grid_refuses_levels_the_fine_grid_holds(self, ho):
        # 150 <= 2001 // 10, but the every-second-node subgrid holds only 100
        v = ho.potential_samples(Grid(-8.0, 8.0, 2001))
        with pytest.raises(ConfigurationError, match="requested 150 eigenpairs"):
            solve_spectrum(ho, v, 150)

    def test_residual_cap_triggers(self, ho, monkeypatch):
        monkeypatch.setattr(pdmfactor.spectra, "_RESIDUAL_SCALE", 1e-300)
        prob = discretize(ho, ho.potential_samples())
        with pytest.raises(SolverError):
            lowest_eigenpairs(prob, 2)

    def test_eigenvector_residuals_small(self, ho):
        prob = discretize(ho, ho.potential_samples())
        rep = lowest_eigenpairs(prob, 4)
        cap = 1e-6 * np.max(np.abs(prob.diag))
        assert all(r <= cap for r in rep.residuals)

    def test_oscillation_theorem(self):
        for model in (model_ex1(), model_ex2(), model_constant_mass_ho()):
            rep = solve_spectrum(model, model.potential_samples(), 5)
            assert rep.node_counts == [0, 1, 2, 3, 4]

    def test_box_convergence_order(self):
        box = model_box()

        def err(n):
            g = Grid(0.0, 1.0, n)
            prob = discretize(box, box.potential_samples(g))
            rep = lowest_eigenpairs(prob, 1)
            return abs(rep.eigenvalues[0] - np.pi**2)

        ratio = err(501) / err(1001)
        assert 3.0 < ratio < 5.0


class TestSolveSpectrum:
    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    def test_matches_two_full_solves(self, name, monkeypatch):
        # reference: the full solve on both grids, eigenvectors and all
        model = catalog(name)
        v = model.potential_samples()
        coarse_v = SampledFunction(v.grid.coarsened(), v.values[::2])
        fine = lowest_eigenpairs(discretize(model, v), 4)
        coarse = lowest_eigenpairs(discretize(model, coarse_v), 4)
        calls = []

        def counted(prob, k):
            calls.append(prob.grid)
            return lowest_eigenpairs(prob, k)

        monkeypatch.setattr(pdmfactor.spectra, "lowest_eigenpairs", counted)
        rep = solve_spectrum(model, v, 4)
        assert calls == [v.grid]
        assert np.array_equal(rep.eigenvalues, (4.0 * fine.eigenvalues - coarse.eigenvalues) / 3.0)
        assert rep.node_counts == fine.node_counts
        assert np.array_equal(rep.residuals, fine.residuals)


class TestAgainstDenseOracle:
    def test_random_problems_match_scipy(self, rng):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        for _ in range(5):
            n = 200
            diag = rng.uniform(1.0, 10.0, n)
            off = rng.uniform(-3.0, -0.5, n - 1)
            eigs = _bisect_lowest(diag, off**2, 4, -50.0, 50.0, 1e-13, 120)
            ref = scipy_linalg.eigh_tridiagonal(
                diag, off, select="i", select_range=(0, 3), eigvals_only=True
            )
            assert np.max(np.abs(eigs - ref)) < 1e-10

    def test_ex1_spectrum_matches_scipy(self, ex1):
        # both solvers bottom out at a few ulps of the matrix scale (~1e8 here)
        scipy_linalg = pytest.importorskip("scipy.linalg")
        prob = discretize(ex1, ex1.potential_samples())
        rep = lowest_eigenpairs(prob, 5)
        ref = scipy_linalg.eigh_tridiagonal(
            prob.diag, prob.off, select="i", select_range=(0, 4), eigvals_only=True
        )
        assert np.max(np.abs(rep.eigenvalues - ref)) < 5e-7


class TestMultisection:
    """_bisect_lowest walks a bisection tree; it must match plain bisection bit for bit."""

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_matches_plain_bisection(self, rng, k):
        diag, off2 = random_tridiagonal(rng, 150)
        ref, _ = plain_bisect(diag, off2, k, -30.0, 30.0, 1e-13, 120)
        assert np.array_equal(_bisect_lowest(diag, off2, k, -30.0, 30.0, 1e-13, 120), ref)

    def test_tol_reached_inside_a_sweep(self, rng):
        diag, off2 = random_tridiagonal(rng, 120)
        tol = 64.0 * 2.0**-21  # the bracket width after exactly 21 rounds
        ref, rounds = plain_bisect(diag, off2, 4, -32.0, 32.0, tol, 120)
        assert rounds == 21
        assert np.array_equal(_bisect_lowest(diag, off2, 4, -32.0, 32.0, tol, 120), ref)

    @pytest.mark.parametrize("maxit", [1, 7, 50, 120])
    def test_maxit_caps_the_rounds(self, rng, maxit):
        diag, off2 = random_tridiagonal(rng, 100)
        # tol = 0 is never met, so maxit alone stops both
        ref, rounds = plain_bisect(diag, off2, 2, -30.0, 30.0, 0.0, maxit)
        assert rounds == maxit
        assert np.array_equal(_bisect_lowest(diag, off2, 2, -30.0, 30.0, 0.0, maxit), ref)

    def test_zero_pivot_is_nudged(self, rng):
        diag, off2 = random_tridiagonal(rng, 60)
        # 1x1 blocks whose entry is a shift: the first, 0.5 * (lo + hi) = 2, or
        # the level-1 shift 0.5 * (-14 + 2).  Their pivots are exactly zero and
        # the next coupling is zero too, so without the nudge 0 / 0 poisons the
        # rest of the sweep.
        diag[[0, 20, 40]] = 2.0
        diag[30] = -6.0
        off2[[0, 19, 20, 29, 30, 39, 40]] = 0.0
        ref, _ = plain_bisect(diag, off2, 5, -14.0, 18.0, 1e-12, 120)
        eigs = _bisect_lowest(diag, off2, 5, -14.0, 18.0, 1e-12, 120)
        assert np.array_equal(eigs, ref)
        assert np.all(np.isfinite(eigs))


class TestPivotedSolve:
    def test_matches_dense_solve(self, rng):
        n = 300
        diag = rng.uniform(2.0, 4.0, n)
        off = rng.uniform(-1.0, 1.0, n - 1)
        rhs = rng.standard_normal(n)
        out = np.empty(n)
        _tridiag_solve_pivot(off, diag, off, rhs, out)
        T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        ref = np.linalg.solve(T, rhs)
        assert np.max(np.abs(out - ref)) < 1e-9

    def test_row_swaps_match_dense_solve(self, rng):
        n = 200
        # |sub| > |diag| on every row, so at least the first step swaps rows
        diag = rng.uniform(-0.5, 0.5, n)
        sub = rng.uniform(1.0, 2.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        sup = rng.uniform(-1.0, 1.0, n - 1)
        rhs = rng.standard_normal(n)
        out = np.empty(n)
        _tridiag_solve_pivot(sub, diag, sup, rhs, out)
        T = np.diag(diag) + np.diag(sup, 1) + np.diag(sub, -1)
        ref = np.linalg.solve(T, rhs)
        assert np.max(np.abs(out - ref)) < 1e-9 * np.max(np.abs(ref))


class TestInverseIteration:
    def test_start_vector_is_the_uint64_xorshift(self):
        n = 500
        ref = np.empty(n)
        state = np.uint64(88172645463325252)
        for i in range(n):
            state ^= state << np.uint64(13)
            state ^= state >> np.uint64(7)
            state ^= state << np.uint64(17)
            ref[i] = (np.float64(state % np.uint64(2000003)) / 1000001.5) - 1.0
        off = np.zeros(n - 1)
        assert np.array_equal(_inverse_iteration(off, np.ones(n), off, 0.0, 0), ref)


class TestCountNodes:
    def test_ground_states(self):
        for model in (model_ex1(), model_ex2(), model_constant_mass_ho()):
            assert count_nodes(model.eigenstate_samples(0)) == 0

    def test_ex1_third_state(self, ex1):
        assert count_nodes(ex1.eigenstate_samples(3)) == 3

    def test_noise_floor(self):
        g = Grid(0.0, 1.0, 101)
        v = np.ones(101)
        v[50] = -1e-12  # below the floor: not a node
        assert count_nodes(SampledFunction(g, v)) == 0
