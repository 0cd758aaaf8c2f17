import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmfactor.errors import ConfigurationError, DomainError
from pdmfactor.factor import bernoulli_f, factorize
from pdmfactor.grids import cumulative_integral, normalize_state
from pdmfactor.models import catalog
from pdmfactor.verify import (
    check_isospectral,
    constant_mass_limit_check,
    intertwining_residual,
    riccati_residual,
    scan_lambda,
)
from tests.conftest import EX1_FINE_GRID


class TestCheckIsospectral:
    def test_ex1_level_one(self, ex1, fac_ex1):
        rep = check_isospectral(ex1, 1, fac_ex1, 5, 1e-3)
        assert rep.passed
        assert rep.max_gap <= 1e-3
        deformed = [b for _, b, _ in rep.pairs]
        assert np.max(np.abs(np.array(deformed) - np.array([-2.0, 0.0, 2.0, 4.0, 6.0]))) <= 1e-3
        assert rep.node_match

    def test_huge_lambda_gaps_tiny(self, ex1):
        fac = factorize(ex1, 1, lam=1e6)
        rep = check_isospectral(ex1, 1, fac, 4, 1e-4)
        assert rep.max_gap <= 1e-4

    def test_singular_precondition(self, ex1):
        fac = factorize(ex1, 1, lam=-0.5)
        with pytest.raises(DomainError):
            check_isospectral(ex1, 1, fac, 4, 1e-3)

    def test_ex2_beta_zero_fully_isospectral(self, ex2):
        fac = factorize(ex2, 1, lam=1.0)
        rep = check_isospectral(ex2, 1, fac, 4, 1e-2)
        assert rep.passed

    def test_ex2_shifted_factorization_deletes_level_n(self, ex2, fac_ex2_n1):
        # with a nonzero shift the deformed problem loses exactly the level
        # used in the factorization: its spectrum is {E_k - E_n + beta, k != n}
        rep = check_isospectral(ex2, 1, fac_ex2_n1, 4, 1e-2)
        assert not rep.passed  # the full shifted ladder comparison must fail
        deformed = [b for _, b, _ in rep.pairs]
        expected = [ex2.energy(k) - ex2.energy(1) + 1.0 for k in (0, 2, 3, 4)]
        assert np.max(np.abs(np.array(deformed) - np.array(expected))) <= 1e-2

    def test_report_json_fields(self, ex1, fac_ex1):
        rep = check_isospectral(ex1, 1, fac_ex1, 3, 1e-3)
        d = rep.to_json_dict()
        assert set(d) == {
            "levels_checked",
            "pairs",
            "max_gap",
            "node_match",
            "tolerance",
            "passed",
        }
        assert d["max_gap"] == max(p[2] for p in d["pairs"])


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
        res = intertwining_residual(
            ex1, 1, fac_ex1_fine, psi_k, ex1.energy(k) - ex1.energy(1)
        )
        assert res <= 1e-3

    def test_constant_mass(self, ho, fac_ho):
        psi0 = ho.eigenstate_samples(0)
        res = intertwining_residual(ho, 1, fac_ho, psi0, ho.energy(0) - ho.energy(1))
        assert res <= 1e-4

    def test_scale_invariance(self, ho, fac_ho):
        # the ratio is scale-free; the residual itself sits at its roundoff
        # floor, so invariance holds to a few percent of that floor
        psi0 = ho.eigenstate_samples(0)
        a = intertwining_residual(ho, 1, fac_ho, psi0, -2.0)
        b = intertwining_residual(
            ho, 1, fac_ho, psi0.with_values(3.0 * psi0.values), -2.0
        )
        assert abs(a - b) <= 1e-10 + 0.05 * max(a, b)


class TestConstantMassLimit:
    def test_shifted_ladder(self):
        rep = constant_mass_limit_check()
        assert rep.passed
        deformed = [b for _, b, _ in rep.pairs]
        assert np.max(np.abs(np.array(deformed) - np.array([-2.0, 0.0, 2.0, 4.0]))) <= 1e-4

    def test_node_preservation(self):
        rep = constant_mass_limit_check()
        assert rep.node_match

    def test_riccati(self, fac_ho):
        assert riccati_residual(fac_ho) <= 1e-6
