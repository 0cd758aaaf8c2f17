import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmfactor.spectra
from pdmfactor.errors import ConfigurationError, DomainError, SolverError
from pdmfactor.grids import Grid, SampledFunction
from pdmfactor.models import Box, Ex1, Ex2, HarmonicOscillator, catalog
from pdmfactor.spectra import (
    _TINY,
    SturmLiouvilleProblem,
    _count,
    _eigenvalues_only,
    _gershgorin,
    _pivots,
    _rows,
    _twisted_vector,
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


def random_tridiagonal(rng, n):
    return rng.uniform(-5.0, 5.0, n), rng.uniform(-3.0, 3.0, n - 1) ** 2


def tridiagonal_problem(diag, off):
    """A SturmLiouvilleProblem holding the given matrix on an arbitrary grid."""
    return SturmLiouvilleProblem(Grid(0.0, 1.0, len(diag) + 2), np.asarray(diag), np.asarray(off))


def certified(prob, j, lam):
    """The certificate count(lam - tol/2) <= j < count(lam + tol/2)."""
    half = 0.5 * _gershgorin(prob)[2]
    diag, off2 = prob.diag.tolist(), [0.0] + (prob.off * prob.off).tolist()
    return _count(diag, off2, lam - half) <= j < _count(diag, off2, lam + half)


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
        box = Box()
        prob = discretize(box, box.potential_samples())
        rep = lowest_eigenpairs(prob, 1)
        assert abs(rep.eigenvalues[0] - np.pi**2) < 1e-2

    def test_masked_potential_rejected(self, ho):
        g = ho.recommended_grid
        values = np.zeros(g.n_points)
        values[5] = np.nan
        v = SampledFunction(g, values)
        with pytest.raises(DomainError):
            discretize(ho, v)

    @pytest.mark.parametrize("profile", [lambda x: x * x, lambda x: x * x - 0.25],
                             ids=["zero", "negative"])
    def test_non_positive_mass_rejected(self, profile):
        # the midpoints of this grid are the integers -4 .. 4; the zero mass
        # at x = 0 raises only the DomainError, with no division warning
        @dataclasses.dataclass(frozen=True)
        class Model(HarmonicOscillator):
            mass = staticmethod(profile)

        v = SampledFunction(Grid(-4.5, 4.5, 10), np.zeros(10))
        with pytest.raises(DomainError, match="inverse mass must be positive and finite"):
            discretize(Model(), v)

    @pytest.mark.parametrize("x_min, x_max", [(-700.0, 700.0), (0.0, 1.8e-136)])
    def test_matrix_beyond_the_double_range_rejected(self, ex2, x_min, x_max):
        # the mass falls to 1e-304 at the wings, or h^2 is 5e-276: off^2
        # would overflow in the Sturm counts
        v = ex2.potential_samples(Grid(x_min, x_max, 79))
        with pytest.raises(DomainError, match="exceeds the double range"):
            discretize(ex2, v)

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

    def test_matrix_far_inside_the_tolerance_is_refused(self):
        # on [0, 1e100] the box matrix spans 6.4e-195 against tol 1e-13, so
        # the twist sits far from every eigenvalue and z overflows
        box = Box()
        prob = discretize(box, box.potential_samples(Grid(0.0, 1e100, 401)))
        with pytest.raises(SolverError, match="eigenvector 0 overflows"):
            lowest_eigenpairs(prob, 1)

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
        for model in (Ex1(), Ex2(), HarmonicOscillator()):
            rep = solve_spectrum(model, model.potential_samples(), 5)
            assert rep.node_counts == [0, 1, 2, 3, 4]

    def test_box_convergence_order(self):
        box = Box()

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
            eigs = _eigenvalues_only(tridiagonal_problem(diag, off), 4)
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


class TestSturmCount:
    """The scalar count is the negatives among _pivots, row by row."""

    def test_random_tridiagonals_match_row_by_row(self, rng):
        for _ in range(5):
            diag, off2 = random_tridiagonal(rng, 150)
            shifts = rng.uniform(-12.0, 12.0, 40)
            ref, _ = plain_sturm_counts(diag, off2, shifts)
            lead = [0.0] + off2.tolist()
            assert [_count(diag.tolist(), lead, x) for x in shifts.tolist()] == ref.tolist()

    def test_box_matches_row_by_row(self, monkeypatch):
        # the box's constant stencil meets exact zero pivots, first at the
        # midpoint of its Gershgorin bracket
        box = Box()
        prob = discretize(box, box.potential_samples())
        counts = []

        def recorded(diag, off2, x):
            counts.append((x, _count(diag, off2, x)))
            return counts[-1][1]

        monkeypatch.setattr(pdmfactor.spectra, "_count", recorded)
        _eigenvalues_only(prob, 5)
        shifts = np.array([x for x, _ in counts])
        ref, zeros = plain_sturm_counts(prob.diag, prob.off * prob.off, shifts)
        assert [c for _, c in counts] == ref.tolist()
        assert zeros > 0

    def test_count_is_the_negative_pivots(self, rng):
        box = Box()
        diag, off2 = random_tridiagonal(rng, 150)
        # the box meets an exact zero pivot in the first row at the midpoint of
        # its Gershgorin bracket
        for prob in (discretize(box, box.potential_samples()),
                     tridiagonal_problem(diag, np.sqrt(off2))):
            rows = _rows(prob)
            diag, lead = rows[:2]
            lo, hi, _ = _gershgorin(prob)
            for x in [0.5 * (lo + hi), *rng.uniform(lo, lo + 0.1 * (hi - lo), 20).tolist()]:
                negatives = int(np.count_nonzero(_pivots(diag, lead, x, len(diag)) < 0.0))
                assert _count(diag, lead, x) == negatives
                assert _twisted_vector(prob, rows, x)[2] == negatives


def twist_problems(rng):
    """The box, whose first pivot is an exact zero at its Gershgorin midpoint,
    and three random tridiagonals."""
    box = Box()
    yield discretize(box, box.potential_samples())
    for _ in range(3):
        diag, off2 = random_tridiagonal(rng, 150)
        yield tridiagonal_problem(diag, np.sqrt(off2))


def twist_shifts(rng, prob):
    lo, hi, _ = _gershgorin(prob)
    return [0.5 * (lo + hi), *rng.uniform(lo, hi, 20).tolist()]


class TestOneSidedTwist:
    """A twist at a given index r runs one pivot pass, D+ down to r and D- up
    to r; its count is the inertia of the twisted factorization."""

    def test_count_is_the_sturm_count(self, rng):
        for prob in twist_problems(rng):
            rows = _rows(prob)
            diag, lead = rows[:2]
            n = len(diag)
            for x in twist_shifts(rng, prob):
                for r in (0, int(rng.integers(n)), n - 1):
                    assert _twisted_vector(prob, rows, x, r)[2] == _count(diag, lead, x)

    def test_full_twist_index_gives_the_same_bits(self, rng):
        for prob in twist_problems(rng):
            rows = _rows(prob)
            n = len(rows[0])
            for x in twist_shifts(rng, prob):
                dp = _pivots(rows[0], rows[1], x, n)
                dm = _pivots(rows[2], rows[3], x, n)[::-1]
                r = int(np.argmin(np.abs(dp + dm - (prob.diag - x))))
                z, gamma, _ = _twisted_vector(prob, rows, x)
                z_r, gamma_r, _ = _twisted_vector(prob, rows, x, r)
                assert z_r.tobytes() == z.tobytes()
                assert np.float64(gamma_r).tobytes() == np.float64(gamma).tobytes()


class TestCertifiedIteration:
    """Each eigenvalue is certified by two Sturm counts, whatever its steps did."""

    @given(
        st.integers(min_value=30, max_value=120),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from([1e-3, 1.0, 1e3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_tridiagonals_match_scipy(self, n, seed, scale):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        rng = np.random.default_rng(seed)
        diag = scale * rng.uniform(-5.0, 5.0, n)
        off = scale * rng.uniform(0.5, 3.0, n - 1) * rng.choice([-1.0, 1.0], n - 1)
        prob = tridiagonal_problem(diag, off)
        k = len(diag) // 10
        eigs = _eigenvalues_only(prob, k)
        ref = scipy_linalg.eigh_tridiagonal(
            diag, off, select="i", select_range=(0, k - 1), eigvals_only=True
        )
        assert np.max(np.abs(eigs - ref)) <= _gershgorin(prob)[2]
        assert all(certified(prob, j, lam) for j, lam in enumerate(eigs))

    def test_decoupled_blocks_with_a_triple_eigenvalue(self, rng):
        # three 1x1 blocks hold -20, a zero coupling on each side, so -20 is
        # the Gershgorin lower bound and a triple lowest level; no bracket
        # isolates it, and brackets at most tol wide certify it
        scipy_linalg = pytest.importorskip("scipy.linalg")
        diag, off2 = random_tridiagonal(rng, 60)
        diag[[0, 20, 40]] = -20.0
        off2[[0, 19, 20, 39, 40]] = 0.0
        off = np.sqrt(off2)
        prob = tridiagonal_problem(diag, off)
        ref = scipy_linalg.eigh_tridiagonal(diag, off, select="i", select_range=(0, 5),
                                            eigvals_only=True)
        assert np.array_equal(ref[:3], [-20.0] * 3)
        eigs = _eigenvalues_only(prob, 6)
        assert np.max(np.abs(eigs - ref)) <= _gershgorin(prob)[2]
        assert all(certified(prob, j, lam) for j, lam in enumerate(eigs))

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    @pytest.mark.parametrize("factor", [-1.0, 0.0, 0.5, 1e6])
    def test_sabotaged_rayleigh_step_falls_back_to_bisection(self, name, factor, monkeypatch):
        model = catalog(name)
        g = model.recommended_grid
        prob = discretize(model, model.potential_samples(Grid(g.x_min, g.x_max, 401)))
        cold = _eigenvalues_only(prob, 4)

        # every twist, full or one-sided, goes through the one twist function
        def sabotaged(prob, rows, lam, r=None):
            z, gamma, count = _twisted_vector(prob, rows, lam, r)
            return z, factor * gamma, count

        monkeypatch.setattr(pdmfactor.spectra, "_twisted_vector", sabotaged)
        for hints in (None, cold + 0.1 * (cold[1] - cold[0])):
            eigs = _eigenvalues_only(prob, 4, hints)
            assert np.max(np.abs(eigs - cold)) <= _gershgorin(prob)[2]
            assert all(certified(prob, j, lam) for j, lam in enumerate(eigs))

    def test_never_certified_raises(self, ho, monkeypatch):
        prob = discretize(ho, ho.potential_samples(Grid(-8.0, 8.0, 201)))
        # with tol = 0 no bracket is narrow enough and count(lam) <= 0 <
        # count(lam) never holds, so the step bound ends the search
        gershgorin = _gershgorin
        monkeypatch.setattr(pdmfactor.spectra, "_gershgorin",
                            lambda prob: (*gershgorin(prob)[:2], 0.0))
        with pytest.raises(SolverError, match="eigenvalue 0 not certified"):
            _eigenvalues_only(prob, 1)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    def test_good_hints_bound_the_pivot_passes(self, name, monkeypatch):
        # a pass is one pivot recurrence over the matrix: a count and a
        # one-sided twist take one, a full twist two; with the coarse
        # eigenvalues as hints, a level takes one full twist, a one-sided one
        # or two, whose counts bracket it, one certifying count and a final
        # full twist
        model = catalog(name)
        v = model.potential_samples()
        coarse = _eigenvalues_only(
            discretize(model, SampledFunction(v.grid.coarsened(), v.values[::2])), 5
        )
        counts, twists = [], []

        def twist(prob, rows, lam, r=None):
            twists.append(2 if r is None else 1)
            return _twisted_vector(prob, rows, lam, r)

        monkeypatch.setattr(pdmfactor.spectra, "_count",
                            lambda *a: counts.append(1) or _count(*a))
        monkeypatch.setattr(pdmfactor.spectra, "_twisted_vector", twist)
        lowest_eigenpairs(discretize(model, v), 5, _hints=coarse)
        assert len(counts) == 5
        assert twists.count(2) == 2 * 5
        assert len(counts) + sum(twists) <= 7 * 5

    @pytest.mark.parametrize("name, most", [("ex1", 16), ("ex2", 22)])
    def test_cold_start_counts_at_the_smallest_diagonal(self, name, most, monkeypatch):
        # lambda_0 <= min(diag), so one count there cuts the Gershgorin bracket,
        # whose top lies 1e4 to 1e9 above the lowest levels
        model = catalog(name)
        prob = discretize(model, model.potential_samples())
        shifts = []
        monkeypatch.setattr(pdmfactor.spectra, "_count",
                            lambda *a: shifts.append(a[2]) or _count(*a))
        _eigenvalues_only(prob, 4)
        assert float(np.min(prob.diag)) in shifts
        assert len(shifts) <= most


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
    """A wrong hint costs at most one Rayleigh-quotient run, never a wrong
    eigenvalue: the level then bisects and iterates as without hints."""

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

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    def test_hints_one_level_up(self, name):
        # level j's first twist lands on level j + 1, so the carried twist
        # index starts at that level's peak; the counts still decide each level
        model = catalog(name)
        prob = discretize(model, model.potential_samples())
        tol = _gershgorin(prob)[2]
        cold = _eigenvalues_only(prob, 5)
        hints = cold[1:]
        warm = _eigenvalues_only(prob, 4, hints)
        assert np.max(np.abs(warm - cold[:4])) <= tol
        assert all(certified(prob, j, lam) for j, lam in enumerate(warm))
        rep = lowest_eigenpairs(prob, 4, _hints=hints)
        assert np.max(np.abs(rep.eigenvalues - cold[:4])) <= tol
        assert all(certified(prob, j, lam) for j, lam in enumerate(rep.eigenvalues))
        assert rep.node_counts == [0, 1, 2, 3]

    def test_zero_level_of_ho(self):
        # the deformed oscillator's ground level is 0; its bracket must not
        # shrink to a point there
        ho = HarmonicOscillator()
        prob = discretize(ho, ho.potential_samples())
        tol = _gershgorin(prob)[2]
        cold = _eigenvalues_only(prob, 3)
        for hints in (np.array([0.0, 2.0, 4.0]), np.zeros(3)):
            warm = _eigenvalues_only(prob, 3, hints)
            assert np.max(np.abs(warm - cold)) <= tol
            rep = lowest_eigenpairs(prob, 3, _hints=hints)
            assert np.max(np.abs(rep.eigenvalues - cold)) <= tol


class TestCountNodes:
    def test_ground_states(self):
        for model in (Ex1(), Ex2(), HarmonicOscillator()):
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
        v = g.points().copy()
        v[95:106] = np.nan
        assert count_nodes(SampledFunction(g, v)) == 1
        v = np.sin(3.0 * np.pi * g.points())
        v[10] = np.inf
        assert count_nodes(SampledFunction(g, v)) == 5

    def test_all_nan_state_is_refused(self):
        state = SampledFunction(Grid(0.0, 1.0, 8), np.full(8, np.nan))
        with pytest.raises(DomainError, match="no finite sample"):
            count_nodes(state)
