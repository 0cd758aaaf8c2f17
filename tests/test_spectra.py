import numpy as np
import pytest

import pdmfactor.spectra
from pdmfactor.errors import ConfigurationError, DomainError, SolverError
from pdmfactor.grids import Grid, SampledFunction
from pdmfactor.models import catalog, model_box, model_constant_mass_ho, model_ex1, model_ex2
from pdmfactor.spectra import (
    _SWEEP_ROWS,
    _TINY,
    SturmLiouvilleProblem,
    _bisect_lowest,
    _eigenvalues_only,
    _gershgorin,
    _sturm_counts,
    count_nodes,
    discretize,
    lowest_eigenpairs,
    solve_spectrum,
)


def plain_sturm_counts(diag, off2, shifts):
    """Reference Sturm counts, one row at a time, each zero pivot nudged to
    _TINY; also returns the number of zero pivots met."""
    counts = np.zeros(shifts.size, np.int64)
    zeros = 0
    d = np.ones(shifts.size)
    # a nudged pivot may overflow the next one to -inf, which still counts
    with np.errstate(over="ignore"):
        for i in range(diag.shape[0]):
            d = diag[i] - shifts - (off2[i - 1] / d if i else 0.0)
            zeros += np.count_nonzero(d == 0.0)
            d[d == 0.0] = _TINY
            counts += d < 0.0
    return counts, zeros


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
        above = plain_sturm_counts(diag, off2, mid)[0] > targets
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        rounds += 1
    return 0.5 * (lo + hi), rounds


def random_tridiagonal(rng, n):
    return rng.uniform(-5.0, 5.0, n), rng.uniform(-3.0, 3.0, n - 1) ** 2


def dense_eigh(prob):
    return np.linalg.eigh(np.diag(prob.diag) + np.diag(prob.off, 1) + np.diag(prob.off, -1))


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
        # reference: the cold full solve on the grid, eigenvalues on the subgrid
        model = catalog(name)
        v = model.potential_samples()
        coarse_v = SampledFunction(v.grid.coarsened(), v.values[::2])
        fine = lowest_eigenpairs(discretize(model, v), 4)
        coarse = _eigenvalues_only(discretize(model, coarse_v), 4)
        calls = []

        def counted(prob, k, **hints):
            calls.append(prob.grid)
            return lowest_eigenpairs(prob, k, **hints)

        monkeypatch.setattr(pdmfactor.spectra, "lowest_eigenpairs", counted)
        rep = solve_spectrum(model, v, 4)
        assert calls == [v.grid]
        # the coarse eigenvalues seed the fine bisection's brackets, so the fine
        # eigenvalues agree with the cold solve's within the stop tolerance
        tol = _gershgorin(discretize(model, v))[2]
        ref = (4.0 * fine.eigenvalues - coarse) / 3.0
        assert np.max(np.abs(rep.eigenvalues - ref)) <= 4.0 / 3.0 * tol
        assert rep.node_counts == fine.node_counts
        for state, cold in zip(rep.eigenstates, fine.eigenstates):
            assert np.max(np.abs(state.values - cold.values)) < 1e-8 * np.max(np.abs(cold.values))


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


class TestBlockSweep:
    """One zero-pivot check per block gives the row-by-row counts bit for bit."""

    def test_box_matches_row_by_row(self, monkeypatch):
        # the box's constant stencil meets exact zero pivots at bisection shifts
        box = model_box()
        prob = discretize(box, box.potential_samples())
        sweeps = []

        def recorded(diag, off2, shifts):
            counts = _sturm_counts(diag, off2, shifts)
            sweeps.append((shifts, counts))
            return counts

        monkeypatch.setattr(pdmfactor.spectra, "_sturm_counts", recorded)
        _eigenvalues_only(prob, 5)
        zero_pivots = 0
        for shifts, counts in sweeps:
            ref, zeros = plain_sturm_counts(prob.diag, prob.off * prob.off, shifts)
            assert np.array_equal(counts, ref)
            zero_pivots += zeros
        assert zero_pivots > 0

    def test_zero_pivot_in_last_row_of_a_block(self, rng):
        diag, off2 = random_tridiagonal(rng, 3 * _SWEEP_ROWS)
        last = _SWEEP_ROWS - 1
        # row `last` decouples from the rows above, so its pivot is exactly
        # diag[last] - shift; with off2[last] = 0 too, an un-nudged zero pivot
        # would make the next block's first row 0 / 0
        diag[last] = 1.5
        off2[[last - 1, last]] = 0.0
        shifts = np.array([-7.0, 1.5, 0.25, 1.5, 9.0])
        counts = _sturm_counts(diag, off2, shifts)
        ref, zeros = plain_sturm_counts(diag, off2, shifts)
        assert zeros == 2
        assert np.array_equal(counts, ref)


class TestTwistedVectors:
    """Eigenvectors from the twisted factorization against dense numpy.linalg.eigh."""

    def test_random_tridiagonals(self, rng):
        for _ in range(5):
            n = 200
            off = rng.uniform(0.5, 3.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
            prob = SturmLiouvilleProblem(Grid(0.0, 1.0, n + 2), rng.uniform(-5.0, 5.0, n), off)
            rep = lowest_eigenpairs(prob, 5)
            _, vecs = dense_eigh(prob)
            for j, state in enumerate(rep.eigenstates):
                v = state.values[1:-1]
                assert abs(v @ vecs[:, j]) / np.linalg.norm(v) >= 1.0 - 1e-10

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    def test_models_at_small_n(self, name):
        model = catalog(name)
        g = model.recommended_grid
        prob = discretize(model, model.potential_samples(Grid(g.x_min, g.x_max, 401)))
        rep = lowest_eigenpairs(prob, 4)
        _, vecs = dense_eigh(prob)
        for j, state in enumerate(rep.eigenstates):
            v = state.values[1:-1]
            assert abs(v @ vecs[:, j]) / np.linalg.norm(v) >= 1.0 - 1e-10


class TestWarmBrackets:
    """A wrong hint costs Sturm sweeps, never a wrong eigenvalue."""

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    def test_hints_many_spacings_off(self, name):
        model = catalog(name)
        prob = discretize(model, model.potential_samples())
        tol = _gershgorin(prob)[2]
        cold = _eigenvalues_only(prob, 4)
        spacing = cold[1] - cold[0]
        for hints in (cold + 10.0 * spacing, cold - 3.0 * spacing, cold[::-1].copy()):
            warm = _eigenvalues_only(prob, 4, hints)
            assert np.max(np.abs(warm - cold)) <= tol

    def test_zero_level_of_ho(self):
        # the deformed oscillator's ground level is 0; its bracket must not
        # shrink to a point there
        ho = model_constant_mass_ho()
        prob = discretize(ho, ho.potential_samples())
        tol = _gershgorin(prob)[2]
        cold = _eigenvalues_only(prob, 3)
        for hints in (np.array([0.0, 2.0, 4.0]), np.zeros(3)):
            warm = _eigenvalues_only(prob, 3, hints)
            assert np.max(np.abs(warm - cold)) <= tol
            rep = lowest_eigenpairs(prob, 3, _hints=hints)
            assert np.max(np.abs(rep.eigenvalues - cold)) <= tol

    def test_good_hints_save_sweeps(self, ex1, monkeypatch):
        prob = discretize(ex1, ex1.potential_samples())
        cold = _eigenvalues_only(prob, 4)
        sweeps = []

        def counted(diag, off2, shifts):
            sweeps.append(shifts.size)
            return _sturm_counts(diag, off2, shifts)

        monkeypatch.setattr(pdmfactor.spectra, "_sturm_counts", counted)
        _eigenvalues_only(prob, 4)
        n_cold = len(sweeps)
        sweeps.clear()
        _eigenvalues_only(prob, 4, cold * (1.0 + 1e-3))
        # one verifying sweep of 2k shifts, then fewer bisection sweeps
        assert sweeps[0] == 8
        assert len(sweeps) < n_cold


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

    def test_nan_samples_are_skipped(self):
        # a crossing whose bracketing samples are NaN still counts once, and a
        # NaN peak does not set the floor
        g = Grid(-1.0, 1.0, 201)
        mask = np.zeros(201, bool)
        mask[95:106] = True
        assert count_nodes(SampledFunction(g, g.points(), mask)) == 1
        v = np.sin(3.0 * np.pi * g.points())
        v[10] = np.inf
        assert count_nodes(SampledFunction(g, v)) == 5
