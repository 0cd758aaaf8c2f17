import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmfactor.errors import ConfigurationError, DomainError
from pdmfactor.grids import (
    Grid,
    SampledFunction,
    cumulative_integral,
    definite_integral,
    derivative,
    write_csv,
)
from tests.conftest import read_csv


def sample(fn, grid):
    return SampledFunction(grid, fn(grid.points()))


class TestGrid:
    def test_invariants(self):
        with pytest.raises(ConfigurationError):
            Grid(1.0, -1.0, 100)
        with pytest.raises(ConfigurationError):
            Grid(0.0, 1.0, 4)

    @given(
        x_min=st.floats(-1e3, 1e3),
        width=st.floats(1e-3, 1e3),
        n=st.integers(8, 5000),
        i=st.integers(0, 4999),
    )
    @settings(max_examples=200, deadline=None)
    def test_point_reproducible(self, x_min, width, n, i):
        g = Grid(x_min, x_min + width, n)
        i = i % n
        assert g.points()[i] == x_min + i * g.h

    def test_coarsened_shares_endpoints(self):
        g = Grid(-2.0, 3.0, 101)
        c = g.coarsened()
        assert (c.x_min, c.x_max, c.n_points) == (-2.0, 3.0, 51)
        assert np.array_equal(c.points(), g.points()[::2])


class TestDerivative:
    def test_quadratic_exact(self):
        g = Grid(-1.0, 1.0, 101)
        d = derivative(sample(lambda x: x**2, g))
        i = np.argmin(np.abs(g.points() - 1.0))
        assert abs(d.values[i] - 2.0) < 1e-8

    def test_constant_is_zero(self):
        g = Grid(-5.0, 5.0, 64)
        d = derivative(sample(lambda x: 3.7 * np.ones_like(x), g))
        assert np.max(np.abs(d.values)) < 1e-12

    def test_sin_matches_cos(self):
        g = Grid(-4.0, 4.0, 801)
        d = derivative(sample(np.sin, g))
        assert np.max(np.abs(d.values - np.cos(g.points()))) <= 1e-8

    def test_halving_h_improves_by_order_four(self):
        def err(n):
            g = Grid(-4.0, 4.0, n)
            d = derivative(sample(np.sin, g))
            return np.max(np.abs(d.values - np.cos(g.points()))[5:-5])

        assert err(401) / err(801) >= 8.0

    def test_mask_propagates_to_stencil_reach(self):
        g = Grid(0.0, 1.0, 64)
        mask = np.zeros(64, bool)
        mask[30] = True
        d = derivative(SampledFunction(g, np.ones(64), mask))
        assert d.singular_mask[28:33].all()
        assert not d.singular_mask[27] and not d.singular_mask[33]

    def test_too_small_grid(self):
        g = Grid(0.0, 1.0, 8)
        f = sample(lambda x: x, g)
        # 8 nodes is fine; the guard triggers below 5
        derivative(f)
        with pytest.raises(ConfigurationError):
            Grid(0.0, 1.0, 3)


class TestQuadrature:
    def test_zero(self):
        g = Grid(0.0, 1.0, 32)
        F = cumulative_integral(sample(lambda x: 0.0 * x, g))
        assert np.all(F.values == 0.0)

    def test_gaussian(self):
        g = Grid(-8.0, 8.0, 2001)
        F = cumulative_integral(sample(lambda x: np.exp(-(x**2)), g))
        assert abs(F.values[-1] - math.sqrt(math.pi)) < 1e-8

    def test_anchor(self):
        g = Grid(0.0, 1.0, 32)
        F = cumulative_integral(sample(lambda x: np.ones_like(x), g))
        assert F.values[0] == 0.0
        assert abs(F.values[-1] - 1.0) < 1e-12

    def test_definite_constant(self):
        g = Grid(0.0, 1.0, 64)
        assert abs(definite_integral(sample(lambda x: np.ones_like(x), g)) - 1.0) < 1e-12

    def test_definite_odd_symmetric(self):
        g = Grid(-3.0, 3.0, 301)
        assert abs(definite_integral(sample(lambda x: x**3 - 2 * x, g))) < 1e-12

    def test_definite_parabola(self):
        g = Grid(0.0, 1.0, 1001)
        assert abs(definite_integral(sample(lambda x: x**2, g)) - 1.0 / 3.0) < 1e-9

    def test_masked_input_rejected(self):
        g = Grid(0.0, 1.0, 32)
        mask = np.zeros(32, bool)
        mask[3] = True
        f = SampledFunction(g, np.ones(32), mask)
        with pytest.raises(DomainError):
            cumulative_integral(f)
        with pytest.raises(DomainError):
            definite_integral(f)

    def test_cumulative_norm_of_bound_state(self):
        from pdmfactor.models import model_ex1

        ex1 = model_ex1()
        psi1 = ex1.eigenstate_samples(1)
        F = cumulative_integral(psi1.with_values(psi1.values**2))
        assert abs(F.values[-1] - 1.0) < 1e-6

    def test_derivative_of_cumulative_recovers(self):
        g = Grid(-4.0, 4.0, 2001)
        f = sample(lambda x: np.exp(-(x**2) / 2) * np.cos(x), g)
        d = derivative(cumulative_integral(f))
        assert np.max(np.abs(d.values[5:-5] - f.values[5:-5])) <= 1e-6

    @given(
        a=st.floats(0.1, 3.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(0.0, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_monotone_for_nonnegative_smooth(self, a, b, c):
        # smooth nonnegative family: shifted gaussian bumps plus a constant
        g = Grid(-6.0, 6.0, 601)
        f = sample(lambda x: a * np.exp(-((x - b) ** 2)) + c, g)
        F = cumulative_integral(f)
        assert np.all(np.diff(F.values) >= -1e-15)


def reference_write_csv(f, path):
    """The per-row csv.writer serializer that write_csv must match byte for byte."""
    x = f.x
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "value", "singular"])
        for i in range(f.grid.n_points):
            w.writerow([f"{x[i]:.17g}", f"{f.values[i]:.17g}", int(f.singular_mask[i])])


class TestCsv:
    def test_roundtrip(self, tmp_path):
        g = Grid(-1.0, 2.0, 64)
        mask = np.zeros(64, bool)
        mask[10] = True
        vals = np.sin(g.points())
        vals[10] = np.nan
        f = SampledFunction(g, vals, mask)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        back = read_csv(path)
        ok = ~mask
        assert np.array_equal(back.singular_mask, mask)
        assert np.array_equal(back.values[ok], f.values[ok])

    def test_header(self, tmp_path):
        g = Grid(0.0, 1.0, 8)
        path = tmp_path / "f.csv"
        write_csv(sample(lambda x: x, g), path)
        assert open(path).readline().strip() == "x,value,singular"

    @pytest.mark.parametrize("n", [8, 4096, 4097, 2 * 4096 + 3])
    def test_bytes_match_the_csv_module(self, tmp_path, n):
        # first, exact and partial 4096-row blocks, with every special double
        rng = np.random.default_rng(n)
        vals = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
        special = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]
        vals[: len(special)] = special
        vals[rng.integers(0, n, len(special))] = special
        mask = rng.random(n) < 0.25
        g = Grid(-1.0 / 3.0, 1e5 * math.pi, n)
        for f in (SampledFunction(g, vals, mask), SampledFunction(g, vals)):
            write_csv(f, tmp_path / "new.csv")
            reference_write_csv(f, tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
