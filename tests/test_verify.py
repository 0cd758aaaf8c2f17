import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmfactor.errors import ConfigurationError, DomainError
from pdmfactor.factor import LAMBDA_SHIFT, bernoulli_f, factorize, scan_lambda
from pdmfactor.grids import Grid, SampledFunction, cumulative_integral, derivative, normalize_state
from pdmfactor.models import catalog
from pdmfactor.verify import check_isospectral, riccati_residual
from tests.conftest import EX1_FINE_GRID
from tests.ladder import intertwining_residual, ladder_pair


class TestCheckIsospectral:
    def test_ex1_level_one(self, fac_ex1):
        rep = check_isospectral(fac_ex1, 5)
        assert rep.tolerance == fac_ex1.model.spectrum_tolerance
        assert rep.passed
        assert rep.max_gap <= 1e-3
        deformed = [b for _, b, _ in rep.pairs]
        assert np.max(np.abs(np.array(deformed) - np.array([-2.0, 0.0, 2.0, 4.0, 6.0]))) <= 1e-3
        assert rep.node_match

    def test_huge_lambda_gaps_tiny(self, ex1):
        fac = factorize(ex1, 1, lam=1e6)
        rep = check_isospectral(fac, 4)
        assert rep.max_gap <= 1e-4

    def test_singular_precondition(self, ex1):
        fac = factorize(ex1, 1, lam=-0.5)
        with pytest.raises(DomainError):
            check_isospectral(fac, 4)

    def test_ex2_beta_zero_fully_isospectral(self, ex2):
        fac = factorize(ex2, 1, lam=1.0)
        rep = check_isospectral(fac, 4)
        assert rep.passed

    def test_ex2_shifted_factorization_deletes_level_n(self, ex2, fac_ex2_n1):
        # with a nonzero shift the deformed problem loses exactly the level
        # used in the factorization: its spectrum is {E_k - E_n + beta, k != n},
        # and the check pairs deformed level j with the j-th level other than n
        rep = check_isospectral(fac_ex2_n1, 4)
        assert rep.passed
        assert rep.deleted_level == 1
        assert rep.original_levels == [0, 2, 3, 4]
        deformed = [b for _, b, _ in rep.pairs]
        expected = [ex2.energy(k) - ex2.energy(1) + 1.0 for k in (0, 2, 3, 4)]
        assert np.max(np.abs(np.array(deformed) - np.array(expected))) <= 1e-2

    @pytest.mark.parametrize("kwargs", [{"lam": 1.0}, {"beta": 0.5}],
                             ids=["lambda-1", "beta-0.5"])
    def test_partner_that_matches_neither_pairing_fails(self, ho, kwargs):
        # V~_n- built with 2.01 f'/sqrt(m) in place of 2 f'/sqrt(m): its
        # spectrum is neither the full shifted ladder nor the ladder without n
        fac = factorize(ho, 1, **kwargs)
        base = fac.V_n_minus.values + fac.spectrum_shift
        scaled = base + 1.005 * (fac.V_tilde_minus.values - base)
        wrong = dataclasses.replace(fac, V_tilde_minus=fac.V_tilde_minus.with_values(scaled))
        assert check_isospectral(fac, 3).passed
        rep = check_isospectral(wrong, 3)
        assert rep.deleted_level == fac.deleted_level
        assert rep.max_gap > rep.tolerance and not rep.passed


# lambdas at and next to the window edges, the subnormals above 0 and the
# double range's ends
EDGE_LAMBDAS = [5e-324, -5e-324, 0.0, -0.0, 1e-310, -1e-310, 1e308, -1e308]


def _window_points(F):
    """The window's edges -max F and -min F, their float neighbours, and
    -F_j at a few nodes."""
    lo, hi = -np.max(F), -np.min(F)
    neighbours = [np.nextafter(v, d) for v in (lo, hi) for d in (-np.inf, np.inf)]
    return [float(v) for v in [lo, hi, *neighbours, *-F[::F.size // 4]]]


class TestScanLambda:
    def test_normalized_window_flags(self, ex1):
        rep = scan_lambda(ex1, 1, [-1.5, -0.5, 0.5, 1.5])
        assert rep.singular_flags == [False, True, False, False]

    def test_normalized_window_boundaries(self, ex1):
        rep = scan_lambda(ex1, 1, np.linspace(-2.0, 1.0, 31))
        assert len(rep.boundaries) == 2
        assert abs(rep.boundaries[0] - (-1.0)) <= 1e-3
        assert abs(rep.boundaries[1] - 0.0) <= 1e-3

    def test_figure_convention_critical_value(self, ex1):
        rep = scan_lambda(ex1, 1, np.linspace(0.0, 1.0, 101), convention="paper-ex1")
        assert rep.critical_lambda is not None
        assert abs(rep.critical_lambda - 0.5) <= 1e-3

    def test_boundaries_are_the_discrete_edges(self, ex1):
        _, _, F = _state_and_running_norm("ex1", 1)
        up = scan_lambda(ex1, 1, np.linspace(-2.0, 1.0, 31))
        assert up.boundaries == [-np.max(F), -np.min(F)]
        assert math.copysign(1.0, up.boundaries[1]) == 1.0  # +0.0, not -0.0
        down = scan_lambda(ex1, 1, np.linspace(1.0, -2.0, 31))
        assert down.boundaries == up.boundaries[::-1]
        paper = scan_lambda(ex1, 1, np.linspace(0.0, 1.0, 11), convention="paper-ex1")
        assert paper.critical_lambda == -np.min(F) + 0.5

    def test_huge_lambda_nonsingular(self, ex1):
        rep = scan_lambda(ex1, 1, [1e6])
        assert rep.singular_flags == [False]
        assert rep.critical_lambda is None

    def test_flags_monotone_outside_window(self, ex1):
        lams = np.linspace(-3.0, 2.0, 51)
        rep = scan_lambda(ex1, 1, lams)
        flags = np.array(rep.singular_flags)
        switches = np.sum(flags[1:] != flags[:-1])
        assert switches == 2  # one window, no reentrant singularity

    def test_empty_range(self, ex1):
        with pytest.raises(ConfigurationError):
            scan_lambda(ex1, 1, [])

    @given(
        name=st.sampled_from(["ex1", "ex2", "ho", "box"]),
        n=st.sampled_from([1, 2, 3]),
        convention=st.sampled_from(list(LAMBDA_SHIFT)),
        lams=st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                      min_size=1, max_size=8),
        at_edges=st.booleans(),
    )
    @example(name="ex1", n=1, convention="normalized", lams=EDGE_LAMBDAS, at_edges=True)
    @example(name="ex2", n=1, convention="normalized", lams=EDGE_LAMBDAS, at_edges=True)
    @example(name="ho", n=2, convention="normalized", lams=EDGE_LAMBDAS, at_edges=True)
    @example(name="box", n=3, convention="normalized", lams=EDGE_LAMBDAS, at_edges=True)
    @example(name="ex1", n=1, convention="paper-ex1", lams=EDGE_LAMBDAS, at_edges=True)
    @settings(max_examples=100, deadline=None)
    def test_flags_match_bernoulli_f(self, name, n, convention, lams, at_edges):
        # the window rule and its overflow fallback flag exactly the lambdas
        # that the per-lambda construction flags
        model, psi, F = _state_and_running_norm(name, n)
        shift = LAMBDA_SHIFT[convention]
        if at_edges:
            lams = lams + [v + shift for v in _window_points(F)]
        expected = [bernoulli_f(psi, model, lam - shift).is_singular for lam in lams]
        assert scan_lambda(model, n, lams, convention=convention).singular_flags == expected

    def test_flags_run_bernoulli_f_only_where_the_bound_overflows(self, ex1, monkeypatch):
        # the lambda-independent terms are built once per scan, and once more
        # by each fallback call; counted through the names that
        # pdmfactor.factor looks up
        import pdmfactor.factor as factor

        calls = {"_bernoulli_terms": 0, "bernoulli_f": 0}

        def counting(name):
            fn = getattr(factor, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(factor, name, counting(name))
        rep = scan_lambda(ex1, 1, np.linspace(-2.0, 1.0, 31))
        assert calls == {"_bernoulli_terms": 1, "bernoulli_f": 0}
        assert len(rep.singular_flags) == 31
        # 5e-324 lies above the window, but max psi^2 / (min sqrt(m) 5e-324)
        # overflows, so the construction itself decides
        calls.update(_bernoulli_terms=0, bernoulli_f=0)
        assert scan_lambda(ex1, 1, [5e-324]).singular_flags == [True]
        assert calls == {"_bernoulli_terms": 2, "bernoulli_f": 1}

    @pytest.mark.parametrize("lams, flags", [([5e-324, 1.0], [True, False]),
                                             ([-2.0, 5e-324], [False, True])])
    def test_overflow_transition_reports_no_boundary(self, ex1, lams, flags):
        # both lambdas lie outside the window, so no edge lies between them
        rep = scan_lambda(ex1, 1, lams)
        assert rep.singular_flags == flags
        assert rep.boundaries == []
        assert rep.critical_lambda is None

    def test_boundary_lies_between_its_lambdas(self, ex1):
        _, _, F = _state_and_running_norm("ex1", 1)
        up = scan_lambda(ex1, 1, [-2.0, -0.5, 1.0])
        assert up.singular_flags == [False, True, False]
        assert up.boundaries == [-np.max(F), -np.min(F)]
        down = scan_lambda(ex1, 1, [1.0, -0.5, -2.0])
        assert down.boundaries == [-np.min(F), -np.max(F)]
        assert down.critical_lambda == -np.max(F)
        for rep in (up, down):
            lams = rep.lambda_values
            for a, b, edge in zip(lams, lams[1:], rep.boundaries):
                assert min(a, b) < edge < max(a, b)

    def test_iterations_thread_safe(self, ex1):
        # each lambda is an independent pure computation; running them in
        # parallel must reproduce the serial flags
        from concurrent.futures import ThreadPoolExecutor

        lams = list(np.linspace(-1.6, 0.6, 12))
        serial = scan_lambda(ex1, 1, lams).singular_flags
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(
                pool.map(lambda v: scan_lambda(ex1, 1, [v]).singular_flags[0], lams)
            )
        assert parallel == serial


@functools.lru_cache(maxsize=None)
def _state_and_running_norm(name, n):
    model = catalog(name)
    psi = normalize_state(model.eigenstate_samples(n))
    return model, psi, cumulative_integral(psi.with_values(psi.values**2)).values


class TestWindowRule:
    """bernoulli_f is singular on [-max F, -min F] and, outside it, only
    where f itself overflows."""

    @given(
        name=st.sampled_from(["ex1", "ex2", "ho", "box"]),
        n=st.sampled_from([1, 2, 3]),
        lam=st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    )
    @example(name="ex1", n=1, lam=5e-324)
    @example(name="ex2", n=1, lam=5e-324)
    @example(name="ex1", n=1, lam=-0.0)
    @settings(max_examples=200, deadline=None)
    def test_window_implies_singular(self, name, n, lam):
        model, psi, F = _state_and_running_norm(name, n)
        singular = bernoulli_f(psi, model, lam).is_singular
        if -np.max(F) <= lam <= -np.min(F):
            assert singular
        elif singular:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                f = psi.values**2 / (np.sqrt(model.mass(psi.x)) * (lam + F))
            assert not np.all(np.isfinite(f))

    def test_tiny_lambda_overflows_outside_window(self, ex1):
        # lambda = 5e-324 lies just above the window, yet f overflows at x_min
        _, psi, F = _state_and_running_norm("ex1", 1)
        assert 5e-324 > -np.min(F)
        assert bernoulli_f(psi, ex1, 5e-324).is_singular


class TestIntertwining:
    @pytest.mark.parametrize("k", [0, 2])
    def test_ex1(self, ex1, fac_ex1_fine, k):
        psi_k = ex1.eigenstate_samples(k, EX1_FINE_GRID)
        res = intertwining_residual(fac_ex1_fine, psi_k, k)
        assert res <= 1e-3

    def test_constant_mass(self, ho, fac_ho):
        psi0 = ho.eigenstate_samples(0)
        res = intertwining_residual(fac_ho, psi0, 0)
        assert res <= 1e-4

    def test_scale_invariance(self, ho, fac_ho):
        # the ratio is scale-free; the residual itself sits at its roundoff
        # floor, so invariance holds to a few percent of that floor
        psi0 = ho.eigenstate_samples(0)
        a = intertwining_residual(fac_ho, psi0, 0)
        b = intertwining_residual(fac_ho, psi0.with_values(3.0 * psi0.values), 0)
        assert abs(a - b) <= 1e-10 + 0.05 * max(a, b)

    @pytest.mark.parametrize("name, node", [("ho", 800), ("ex1", 4000)])
    def test_composite_is_nan_only_at_the_node(self, name, node):
        # A~_1- A_1+ psi_0 is finite through W_1's band; only the sample
        # where psi_1 is exactly zero (x = 0) is NaN
        model = catalog(name)
        fac = factorize(model, 1, lam=1.0)
        psi0 = model.eigenstate_samples(0, fac.grid)
        K = ladder_pair(psi0, fac.W_n, fac.f_n, model, "A_plus", "Atilde_minus")
        assert fac.grid.points()[node] == 0.0
        assert np.flatnonzero(K.singular_mask).tolist() == [node]


class TestConstantMassLimit:
    def test_shifted_ladder(self, fac_ho):
        rep = check_isospectral(fac_ho, 4)
        assert rep.passed
        deformed = [b for _, b, _ in rep.pairs]
        assert np.max(np.abs(np.array(deformed) - np.array([-2.0, 0.0, 2.0, 4.0]))) <= 1e-4

    def test_node_preservation(self, fac_ho):
        rep = check_isospectral(fac_ho, 4)
        assert rep.node_match

    def test_riccati(self, fac_ho):
        assert riccati_residual(fac_ho) <= 1e-6


class TestRiccatiResidual:
    def test_w_band_is_excluded(self, ex1):
        # -psi_n'/(sqrt(m) psi_n) is finite in W_n's guard band apart from
        # the exact node at x = 0, and on this coarse ex1 grid the largest
        # defect sits there; the NaN that W_n writes over the band is the only
        # thing that keeps it out of the maximum
        grid = Grid(-100.0, 100.0, 2001)
        fac = factorize(ex1, 1, lam=-1.27598, grid=grid)
        w = fac.W_n
        band = w.values.singular_mask
        sqm = np.sqrt(ex1.mass(grid.points()))
        with np.errstate(divide="ignore"):
            exact = -w.state_d1 / (sqm * w.state.values)
        unflagged = SampledFunction(grid, np.where(band, exact, w.values.values))
        no_band = dataclasses.replace(fac, W_n=dataclasses.replace(w, values=unflagged))
        assert band.sum() == 7
        assert np.flatnonzero(unflagged.singular_mask).tolist() == [grid.n_points // 2]
        assert riccati_residual(fac) < riccati_residual(no_band)

    @pytest.mark.parametrize("profile", ["W_n", "V_tilde_minus"])
    @pytest.mark.parametrize("name, kwargs", [
        pytest.param("ho", {"lam": 1.0}, id="ho-lambda-1"),
        pytest.param("ex2", {"lam": 1.0}, id="ex2-lambda-1"),
        pytest.param("ex2", {"beta": 0.5}, id="ex2-beta-0.5"),
    ])
    def test_residual_reads_the_exported_profiles(self, name, kwargs, profile):
        # the constraint is checked against the W_n and V~_n- that construct
        # writes, so a 1 % error in W_n shows, and so does V~_n- built with
        # 2.01 f'/sqrt(m) in place of 2 f'/sqrt(m) (by 1e4 to 1e6 on these runs)
        fac = factorize(catalog(name), 1, **kwargs)
        if profile == "W_n":
            w = fac.W_n.values
            wrong = dataclasses.replace(
                fac, W_n=dataclasses.replace(fac.W_n, values=w.with_values(1.01 * w.values)))
        else:
            base = fac.V_n_minus.values + fac.spectrum_shift
            scaled = base + 1.005 * (fac.V_tilde_minus.values - base)
            wrong = dataclasses.replace(fac, V_tilde_minus=fac.V_tilde_minus.with_values(scaled))
        assert riccati_residual(wrong) >= 100.0 * riccati_residual(fac)

    @pytest.mark.parametrize("name, kwargs", [
        pytest.param("ho", {"lam": 1.0}, id="ho-lambda-1"),
        pytest.param("ex1", {"lam": 1.0}, id="ex1-lambda-1"),
        pytest.param("ex2", {"lam": 1.0}, id="ex2-lambda-1"),
        pytest.param("ex2", {"beta": 0.5}, id="ex2-beta-0.5"),
        pytest.param("ex2", {"lam": 1.0, "grid": Grid(-20.0, 20.0, 4001)}, id="ex2-wide"),
    ])
    def test_exported_deformation_term_is_the_stencil_derivative(self, name, kwargs):
        # the residual reads f'/sqrt(m) back from V~_n- as (V_n- + beta - V~_n-)/2;
        # it is the 4th-order stencil derivative of f to the rounding of the
        # two sums that built V~_n- and the two that take it apart
        fac = factorize(catalog(name), 1, **kwargs)
        beta = fac.spectrum_shift
        v, vt = fac.V_n_minus.values, fac.V_tilde_minus.values
        sqm = np.sqrt(fac.model.mass(fac.grid.points()))
        reference = derivative(fac.f_n.values).values / sqm
        read_back = 0.5 * (v + beta - vt)
        both = np.isfinite(reference) & np.isfinite(read_back)
        assert both.sum() > fac.grid.n_points // 2
        bound = 2.0 * np.finfo(float).eps * (np.abs(v) + np.abs(vt) + abs(beta))
        assert np.all(np.abs(read_back - reference)[both] <= bound[both])
