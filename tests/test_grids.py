import csv
import io
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pdmfactor import grids
from pdmfactor.cli import main
from pdmfactor.errors import ConfigurationError, DegenerateStateError, DomainError
from pdmfactor.grids import (
    Grid,
    SampledFunction,
    _crossings,
    cumulative_integral,
    definite_integral,
    derivative,
    normalize_state,
    write_csv,
)
from tests.conftest import read_csv, save_csv


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

    def test_non_finite_width_refused(self):
        # both ends finite, but x_max - x_min and so h overflow to inf
        with pytest.raises(ConfigurationError, match="overflows"):
            Grid(-1e308, 1e308, 100)
        with pytest.raises(ConfigurationError, match="overflows"):
            Grid(-math.inf, 0.0, 100)
        # the width is finite, but x_min + 7 h rounds past the double range
        with pytest.raises(ConfigurationError, match="overflows"):
            Grid(-1.7976931348623157e308, 14.0, 8)

    def test_coarsened_shares_endpoints(self):
        g = Grid(-2.0, 3.0, 101)
        c = g.coarsened()
        assert (c.x_min, c.x_max, c.n_points) == (-2.0, 3.0, 51)
        assert np.array_equal(c.points(), g.points()[::2])

    def test_coarsening_an_even_grid_refused(self):
        with pytest.raises(ConfigurationError, match="odd number"):
            Grid(0.0, 1.0, 10).coarsened()

    def test_normalizing_a_zero_state_refused(self):
        g = Grid(0.0, 1.0, 11)
        with pytest.raises(DegenerateStateError, match="vanishing norm"):
            normalize_state(SampledFunction(g, np.zeros(g.n_points)))

    @pytest.mark.parametrize("lead, lead_sign", [(1e-3, 1.0), (1e-9, -1.0)],
                             ids=["lobe-above-threshold", "lobe-below-threshold"])
    def test_sign_set_by_the_first_sample_above_threshold(self, lead, lead_sign):
        # a negative leading lobe of height lead on [0, 1], then a positive
        # lobe of height 1: the leading lobe decides the sign only when it
        # rises above 1e-8 of the peak
        g = Grid(0.0, 2.0, 201)
        x = g.points()
        values = np.where(x < 1.0, -lead, 1.0) * np.abs(np.sin(np.pi * x))
        out = normalize_state(SampledFunction(g, values)).values
        assert np.sign(out[50]) == lead_sign
        assert np.sign(out[150]) == -lead_sign
        big = np.abs(out) > 1e-8 * np.max(np.abs(out))
        assert out[np.argmax(big)] > 0.0
        negated = normalize_state(SampledFunction(g, -values)).values
        assert np.array_equal(negated, out)

    def test_divergence_stencil_of_unit_coefficient(self):
        g = Grid(-2.0, 3.0, 101)
        diag, off = g.divergence_stencil(np.ones(g.n_points - 1))
        assert diag.shape == (99,) and off.shape == (98,)
        assert np.all(diag == 2.0 / (g.h * g.h))
        assert np.all(off == -1.0 / (g.h * g.h))

    @pytest.mark.parametrize("name", ["box", "ho"])
    def test_discretize_is_the_stencil_plus_the_potential(self, name):
        from pdmfactor.models import catalog
        from pdmfactor.spectra import discretize

        model = catalog(name)
        g = Grid(model.recommended_grid.x_min, model.recommended_grid.x_max, 201)
        v = model.potential_samples(g)
        problem = discretize(model, v)
        diag, off = g.divergence_stencil(np.ones(g.n_points - 1))
        assert np.array_equal(problem.diag, diag + v.values[1:-1])
        assert np.array_equal(problem.off, off)

    @pytest.mark.parametrize("start, nsub", [(0, 1), (3, 4), (97, 2), (100, 4)])
    def test_substep_lattice(self, start, nsub):
        g = Grid(-2.0, 3.0, 101)
        xs, hs = g.substep_lattice(start, nsub)
        assert hs == g.h / nsub
        assert xs.shape == (2 * nsub * (g.n_points - 1 - start) + 1,)
        assert xs[0] == g.points()[start]
        assert np.allclose(np.diff(xs), 0.5 * hs, rtol=1e-12, atol=0.0)
        # every 2 nsub-th entry is a node
        assert np.allclose(xs[:: 2 * nsub], g.points()[start:], rtol=0.0, atol=1e-12)


class TestMaskRule:
    def test_inf_is_stored_as_flagged_nan(self):
        g = Grid(0.0, 1.0, 8)
        vals = np.arange(8.0)
        vals[[1, 4, 6]] = [np.inf, -np.inf, np.nan]
        f = SampledFunction(g, vals)
        assert np.isnan(f.values[[1, 4, 6]]).all()
        assert np.array_equal(f.singular_mask, np.isin(np.arange(8), [1, 4, 6]))
        assert np.array_equal(f.values[~f.singular_mask], [0.0, 2.0, 3.0, 5.0, 7.0])
        assert np.isinf(vals[1])  # the caller's array is left alone

    def test_clean_array_is_kept_bit_for_bit(self):
        g = Grid(0.0, 1.0, 8)
        vals = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.5, 1e-300, 3.0])
        before = vals.tobytes()
        f = SampledFunction(g, vals)
        assert f.values.tobytes() == before
        assert f.singular_mask.shape == (8,) and not f.singular_mask.any()
        assert not f.is_singular
        # the caller's array is left alone
        assert f.values is not vals and vals.flags.writeable
        assert vals.tobytes() == before

    def test_mask_is_read_from_the_values(self):
        # the NaN samples are the only record: there is no mask to set, and
        # the stored values cannot be written after construction
        g = Grid(0.0, 1.0, 8)
        vals = np.ones(8)
        vals[[2, 5]] = np.nan
        f = SampledFunction(g, vals)
        assert np.flatnonzero(f.singular_mask).tolist() == [2, 5]
        assert f.is_singular
        with pytest.raises(AttributeError):
            f.singular_mask = np.zeros(8, bool)
        with pytest.raises(ValueError):
            f.values[2] = 1.0

    def test_values_length_checked(self):
        with pytest.raises(ConfigurationError):
            SampledFunction(Grid(0.0, 1.0, 8), np.ones(7))

    @pytest.mark.parametrize("node", [0, 2, 4, 30, 59, 61, 63])
    def test_derivative_flags_match_values(self, node):
        # edge stencils reach five nodes, central ones two on each side
        g = Grid(0.0, 1.0, 64)
        values = np.ones(64)
        values[node] = np.nan
        d = derivative(SampledFunction(g, values))
        reach = np.zeros(64, bool)
        reach[max(0, node - 2) : node + 3] = True
        if node < 5:
            reach[:2] = True
        if node > 58:
            reach[-2:] = True
        assert np.array_equal(d.singular_mask, reach)


def reference_crossings(values, floor):
    """The sign rule as an index gather and np.sign over the determinate entries."""
    idx = np.where(np.abs(values) > floor)[0]
    if idx.size < 2:
        return []
    signs = np.sign(values[idx])
    where = np.where(signs[1:] != signs[:-1])[0]
    return [(int(idx[j]), int(idx[j + 1])) for j in where]


@st.composite
def sign_rule_inputs(draw):
    """Arrays of 0-3, 4-60 or up to 3000 entries holding NaN, signed zeros,
    infinities and values at, just above and just below the floor."""
    floor = draw(st.sampled_from([0.0, 5e-324, 1e-9, 1.0]) | st.floats(0.0, 1e3))
    edges = [floor, np.nextafter(floor, np.inf), np.nextafter(floor, 0.0)]
    specials = [np.nan, 0.0, np.inf] + edges
    specials += [-v for v in specials]
    element = st.sampled_from(specials) | st.floats(-10.0, 10.0) | st.floats()
    size = draw(st.sampled_from(["small", "medium", "large"]))
    if size != "large":
        lo, hi = (0, 3) if size == "small" else (4, 60)
        return np.array(draw(st.lists(element, min_size=lo, max_size=hi)), dtype=float), floor
    n = draw(st.integers(4, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=n) * draw(st.sampled_from([2.0 * floor, 1.0, 1e3]))
    hits = rng.random(n) < draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    values[hits] = rng.choice(specials, size=int(hits.sum()))
    return values, floor


class TestCrossings:
    """``_crossings`` is the package's one sign-change rule."""

    @given(sign_rule_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, case):
        values, floor = case
        before = values.tobytes()
        got = _crossings(values, floor)
        assert got == reference_crossings(values, floor)
        assert all(type(i) is int for pair in got for i in pair)
        assert values.tobytes() == before

    def test_all_determinate(self):
        values = np.array([1.0, -2.0, -3.0, 4.0, np.inf, -np.inf, 5e-324])
        assert _crossings(values, 0.0) == [(0, 1), (2, 3), (4, 5), (5, 6)]
        assert _crossings(values, 0.0) == reference_crossings(values, 0.0)

    def test_mixed(self):
        # zeros, NaN and values at or below the floor are skipped
        values = np.array([1.0, 0.0, -0.0, np.nan, -1.0, 1e-12, -1e-9, 2.0, 2.0])
        assert _crossings(values, 1e-9) == [(0, 4), (4, 7)]
        assert _crossings(values, 1e-9) == reference_crossings(values, 1e-9)

    @pytest.mark.parametrize("values", [[], [-1.0], [np.nan, np.nan], [0.0, -0.0]])
    def test_fewer_than_two_determinate_entries(self, values):
        assert _crossings(np.array(values), 0.0) == []


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
        values = np.ones(64)
        values[30] = np.nan
        d = derivative(SampledFunction(g, values))
        assert d.singular_mask[28:33].all()
        assert not d.singular_mask[27] and not d.singular_mask[33]

    def test_overflowing_stencil_is_singular(self):
        # 12 h < 1, so every stencil that reaches y[0] = 1e308 overflows
        g = Grid(0.0, 1.0, 64)
        values = np.zeros(64)
        values[0] = 1e308
        d = derivative(SampledFunction(g, values))
        assert np.flatnonzero(d.singular_mask).tolist() == [0, 1, 2]

    def test_too_small_grid(self):
        # Grid refuses fewer than 8 nodes, so every grid covers the 5-node
        # edge stencils of derivative, which checks no size of its own
        with pytest.raises(ConfigurationError, match="n_points must be >= 8, got 7"):
            Grid(0.0, 1.0, 7)
        d = derivative(sample(lambda x: x, Grid(0.0, 1.0, 8)))
        np.testing.assert_allclose(d.values, 1.0, rtol=1e-12)


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
        values = np.ones(32)
        values[3] = np.nan
        f = SampledFunction(g, values)
        with pytest.raises(DomainError):
            cumulative_integral(f)
        with pytest.raises(DomainError):
            definite_integral(f)

    def test_cumulative_norm_of_bound_state(self):
        from pdmfactor.models import Ex1

        ex1 = Ex1()
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


def exact_tie(v):
    """Whether the 17-digit %.17g rounding of v is an exact tie."""
    if not math.isfinite(v) or v == 0.0:
        return False
    scaled = Fraction(abs(v)) * Fraction(10) ** (16 - Decimal(v).adjusted())
    return scaled - math.floor(scaled) == Fraction(1, 2)


def near_power_of_ten(v, ulps=2):
    """Whether |v| lies within ulps units in the last place of a power of ten."""
    a = abs(v)
    k = Decimal(a).adjusted()
    return any(abs(Fraction(a) - Fraction(10) ** j) <= ulps * Fraction(math.ulp(a))
               for j in (k, k + 1))


class TestCsv:
    def test_roundtrip(self, tmp_path):
        g = Grid(-1.0, 2.0, 64)
        vals = np.sin(g.points())
        vals[10] = np.nan
        f = SampledFunction(g, vals)
        path = tmp_path / "f.csv"
        save_csv(f, path)
        back = read_csv(path)
        assert np.flatnonzero(back.singular_mask).tolist() == [10]
        assert np.array_equal(back.values, f.values, equal_nan=True)

    def test_formats_into_the_file_it_is_handed(self, tmp_path):
        # write_csv opens nothing: an in-memory binary file gets the bytes
        f = SampledFunction(Grid(-1.0, 2.0, 9), np.linspace(0.0, 1.0, 9))
        buffer = io.BytesIO()
        write_csv(f, buffer)
        reference_write_csv(f, tmp_path / "ref.csv")
        assert buffer.getvalue() == (tmp_path / "ref.csv").read_bytes()

    def test_header(self, tmp_path):
        g = Grid(0.0, 1.0, 8)
        path = tmp_path / "f.csv"
        save_csv(sample(lambda x: x, g), path)
        with open(path) as f:
            assert f.readline().strip() == "x,value,singular"

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
        for f in (SampledFunction(g, np.where(mask, np.nan, vals)), SampledFunction(g, vals)):
            save_csv(f, tmp_path / "new.csv")
            reference_write_csv(f, tmp_path / "ref.csv")
            assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @staticmethod
    def assert_reference_bytes(f, tmp_path):
        save_csv(f, tmp_path / "new.csv")
        reference_write_csv(f, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_many_functions_on_one_grid(self, tmp_path):
        # the x text of one Grid serves every file written on it, and an
        # equal but distinct Grid writes the same bytes
        g = Grid(-7.25, 3.0, 4096 + 5)
        x = g.points()
        for vals in (np.sin(x), 1e200 * np.exp(-x * x), -x / 3.0, np.where(x > 0.0, np.nan, x)):
            self.assert_reference_bytes(SampledFunction(g, vals), tmp_path)
        twin = Grid(-7.25, 3.0, 4096 + 5)
        assert twin == g and twin is not g
        self.assert_reference_bytes(SampledFunction(twin, np.cos(x)), tmp_path)

    def test_singular_rows_at_the_block_edges(self, tmp_path):
        # NaN of either sign at the first and last row of the file and of a
        # block, and an infinity inside a block
        n = 2 * 4096 + 3
        g = Grid(-1.0, 1.0, n)
        vals = np.cos(g.points())
        vals[[0, 4095, n - 1]] = np.nan
        vals[4096] = -np.nan
        vals[5000] = -np.inf
        f = SampledFunction(g, vals)
        self.assert_reference_bytes(f, tmp_path)
        back = read_csv(tmp_path / "new.csv")
        assert np.flatnonzero(back.singular_mask).tolist() == [0, 4095, 4096, 5000, n - 1]

    @pytest.mark.parametrize("flagged", [[17, 2 * 4096 + 50], []])
    def test_flags_set_only_in_blocks_with_nan(self, tmp_path, flagged):
        # three blocks, with NaN in the first and last but not the middle
        # one, or in none
        g = Grid(-2.0, 5.0, 2 * 4096 + 100)
        vals = np.exp(-g.points())
        vals[flagged] = np.nan
        self.assert_reference_bytes(SampledFunction(g, vals), tmp_path)
        assert np.flatnonzero(read_csv(tmp_path / "new.csv").singular_mask).tolist() == flagged

    @pytest.mark.parametrize("x_min, x_max, first", [(-3e-7, -1e-7, "-2.9999999999999999e-07"),
                                                     (-1e20, 1e21, "-1e+20")])
    def test_x_text_with_exponent_and_sign(self, tmp_path, x_min, x_max, first):
        g = Grid(x_min, x_max, 4096 + 1)
        self.assert_reference_bytes(SampledFunction(g, np.linspace(-1.0, 1.0, 4096 + 1)), tmp_path)
        assert (tmp_path / "new.csv").read_text().splitlines()[1].startswith(first + ",")

    def test_x_text_built_once_per_grid(self, tmp_path, monkeypatch):
        # write_csv takes x from the Grid's text cache alone and builds it on
        # the first write; x and values are formatted in 4096-row blocks
        builds, kernel_rows = [], []
        points, kernel = Grid.points, grids._g17_text
        monkeypatch.setattr(Grid, "points", lambda self: builds.append(self) or points(self))
        monkeypatch.setattr(grids, "_g17_text",
                            lambda v, out: kernel_rows.append(len(v)) or kernel(v, out))
        g = Grid(0.0, 1.0, 3 * 4096)
        funcs = [SampledFunction(g, np.full(g.n_points, c)) for c in (1.0, 2.0, np.nan)]
        save_csv(funcs[0], tmp_path / "a.csv")
        x_text = g._x_text
        for k, f in enumerate(funcs[1:]):
            save_csv(f, tmp_path / f"{k}.csv")
        assert builds == [g]
        assert g._x_text is x_text and len(x_text) == 3 * 4096
        assert kernel_rows == [4096] * (3 + 3 * 3)
        save_csv(SampledFunction(Grid(0.0, 1.0, 3 * 4096), funcs[0].values), tmp_path / "b.csv")
        assert len(builds) == 2
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_edge_doubles_match_the_csv_module(self, tmp_path, monkeypatch):
        # 10^k and its two neighbours for every decimal exponent, the ends of
        # the double range, integers near 2^53 and 2^62, and two exact ties,
        # each with both signs; Python formats every exact tie, and otherwise
        # only values within 2 ulps of a power of ten
        exact = []
        monkeypatch.setattr(grids, "_exact_text",
                            lambda v, text=grids._exact_text: exact.append(v) or text(v))
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        ties = [1.0 + 2.0**-17, 0.5 + 2.0**-18]
        edges = np.concatenate([
            powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
            [0.0, 5e-324, 1.7976931348623157e308, np.nan],
            2.0**53 + np.arange(-3.0, 4.0), 2.0**62 + 1024.0 * np.arange(-3.0, 4.0), ties,
        ])
        vals = np.concatenate([edges, -edges])
        self.assert_reference_bytes(SampledFunction(Grid(-1.0, 1.0, len(vals)), vals), tmp_path)
        assert set(ties) <= set(exact)
        assert {v for v in vals if exact_tie(v)} <= set(exact)
        assert all(exact_tie(v) or near_power_of_ten(v) for v in exact)

    @pytest.mark.parametrize("miss", [-1e-9, 1e-9])
    def test_missed_exponents_match_the_csv_module(self, tmp_path, monkeypatch, miss):
        # a log10 a hair off picks k one too high just below a power of ten,
        # or one too low at it, where rounding reaches 10^17; Python formats
        # those rows
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda a: log10(a) + miss)
        powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
        vals = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        self.assert_reference_bytes(SampledFunction(Grid(-1.0, 1.0, len(vals)), vals), tmp_path)

    @pytest.mark.parametrize("argv", [
        ["--model", "ex2", "--n", "2", "--lambda", "1"],
        ["--model", "ex1", "--n", "1", "--convention", "paper-ex1", "--lambda", "1"],
        ["--model", "ex2", "--n", "1", "--beta", "1"],
        ["--model", "ho", "--n", "2", "--lambda", "0.3"],
    ])
    def test_profiles_take_no_exact_fallback(self, tmp_path, monkeypatch, argv):
        # the kernel settles every row of the construction's profiles on the
        # default grids, x column included
        exact = []
        monkeypatch.setattr(grids, "_exact_text",
                            lambda v, text=grids._exact_text: exact.append(v) or text(v))
        assert main(["construct", *argv, "--out", str(tmp_path)]) == 0
        assert any(tmp_path.glob("*.csv"))
        assert exact == []

    def test_tables_built_on_first_write(self, tmp_path):
        # importing the command line builds no table of the kernel; the first
        # CSV write builds each once
        src = str(Path(grids.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys\n"
            "import pdmfactor.cli\n"
            "from pdmfactor import grids\n"
            "def sizes():\n"
            "    print(grids._powers_of_ten.cache_info().currsize,\n"
            "          grids._text_tables.cache_info().currsize)\n"
            "sizes()\n"
            "g = grids.Grid(0.0, 1.0, 8)\n"
            "with open(sys.argv[1], 'wb') as fh:\n"
            "    grids.write_csv(grids.SampledFunction(g, g.points()), fh)\n"
            "sizes()\n"
        )
        out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "f.csv")], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines() == ["0 0", "1 1"]

    @given(values=arrays(np.float64, st.integers(4096 - 8, 4096 + 8), elements=st.floats(),
                         fill=st.floats()),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_any_doubles_match_the_csv_module(self, tmp_path, values, seed):
        # hypothesis's doubles in every odd row, random bit patterns in every
        # even one; NaN and infinities are stored as NaN
        bits = np.random.default_rng(seed).integers(0, 2**64, len(values), np.uint64)
        values[::2] = bits.view(np.float64)[::2]
        self.assert_reference_bytes(SampledFunction(Grid(-3.0, 7.0, len(values)), values), tmp_path)
