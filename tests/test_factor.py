import dataclasses

import numpy as np
import pytest

from pdmfactor.errors import (
    ConfigurationError,
    DegenerateStateError,
    DomainError,
    InconsistentInputError,
    NonNormalizableError,
)
from pdmfactor.factor import (
    auxiliary_f,
    bernoulli_f,
    deformed_partner,
    factorize,
    map_eigenstate,
    partner_minus,
    partner_plus,
    superpotential,
    zero_mode,
    DEFAULT_GUARD_BAND,
    DeformationFunction,
)
from pdmfactor.grids import (
    Grid,
    SampledFunction,
    cumulative_integral,
    definite_integral,
    derivative,
    normalize_state,
)
from pdmfactor.models import HarmonicOscillator, catalog, seed_solution
from pdmfactor.spectra import count_nodes
from scipy.special import erf

from tests.ladder import apply_ladder, ladder_pair, node_positions

EX1_FINE_GRID = Grid(-250.0, 250.0, 32001)


def _linf_after_norm(a: SampledFunction, b: SampledFunction) -> float:
    return float(np.max(np.abs(normalize_state(a).values - normalize_state(b).values)))


def _closed_form_states_ex1(grid, lam_paper):
    """Closed-form ground and zero-energy states of the lambda-deformed
    arcsinh-oscillator at level one (figure-convention lambda)."""
    x = grid.points()
    s = np.arcsinh(x)
    den = (
        2.0 * np.sqrt(np.pi) * lam_paper * np.exp(s**2)
        - 2.0 * s
        + np.sqrt(np.pi) * np.exp(s**2) * erf(s)
    )
    psi0 = np.pi**0.25 * (2.0 * lam_paper + erf(s)) * np.exp(s**2 / 2) / (
        (1.0 + x**2) ** 0.25 * den
    )
    psi1 = np.pi**0.25 * np.sqrt(8.0 * lam_paper**2 - 2.0) * np.exp(s**2 / 2) * s / (
        (1.0 + x**2) ** 0.25 * den
    )
    return SampledFunction(grid, psi0), SampledFunction(grid, psi1)


def _reference_deformed_potential_ex1(grid, lam_paper):
    """Analytic V~_1- of the arcsinh-oscillator, derived by differentiating
    the closed-form deformation term (checked symbolically and spectrally)."""
    x = grid.points()
    s = np.arcsinh(x)
    D = np.sqrt(np.pi) * np.exp(s**2) * (2.0 * lam_paper + erf(s)) - 2.0 * s
    return SampledFunction(
        grid,
        s**2
        - 3.0
        - (2.0 + x**2) / (4.0 * (1.0 + x**2))
        - (16.0 * s - 16.0 * s**3) / D
        + 32.0 * s**4 / D**2,
    )


HO_FINE_GRID = Grid(-8.0, 8.0, 3201)


class TestSuperpotential:
    def test_constant_mass_gaussian(self, ho):
        psi0 = normalize_state(ho.eigenstate_samples(0, HO_FINE_GRID))
        w = superpotential(psi0, ho, 0)
        x = psi0.x
        inner = np.abs(x) < 6.0
        assert np.max(np.abs(w.values.values[inner] - x[inner])) < 1e-6
        assert not w.values.is_singular

    def test_ex1_ground_odd(self, ex1):
        psi0 = normalize_state(ex1.eigenstate_samples(0))
        w = superpotential(psi0, ex1, 0)
        i0 = np.argmin(np.abs(psi0.x))
        assert abs(w.values.values[i0]) < 1e-10

    def test_ex1_level_one_masked_at_origin(self, fac_ex1):
        w = fac_ex1.W_n
        runs = np.where(w.values.singular_mask)[0]
        assert runs.size > 0
        x = w.values.x
        assert np.all(np.abs(x[runs]) < 0.5)
        positions = node_positions(w)
        assert len(positions) == 1
        assert abs(positions[0]) < 1e-8

    def test_wrong_level_rejected(self, ex1):
        psi1 = normalize_state(ex1.eigenstate_samples(1))
        with pytest.raises(InconsistentInputError):
            superpotential(psi1, ex1, 0)


class TestPartnerPotentials:
    def test_minus_is_shift(self, ex1):
        v0 = ex1.potential_samples()
        v1 = partner_minus(v0, 3.0)
        assert np.array_equal(v1.values, v0.values - 3.0)
        v_same = partner_minus(v0, 0.0)
        assert np.array_equal(v_same.values, v0.values)

    def test_minus_shift_ex2(self, ex2):
        v0 = ex2.potential_samples()
        v1 = partner_minus(v0, ex2.energy(1))
        assert np.max(np.abs(v1.values - (v0.values - 13.0))) < 1e-10

    def test_constant_mass_partner(self, ho):
        psi0 = normalize_state(ho.eigenstate_samples(0, HO_FINE_GRID))
        w = superpotential(psi0, ho, 0)
        v0 = ho.potential_samples(HO_FINE_GRID)
        vp = partner_plus(w, ho, partner_minus(v0, 0.0))
        x = v0.x
        inner = np.abs(x) < 6.0
        assert np.max(np.abs(vp.values[inner] - (x[inner] ** 2 + 1.0))) < 1e-6
        assert not vp.is_singular

    def test_ex1_level_one_singular_at_node(self, ex1, fac_ex1):
        vp = fac_ex1.V_n_plus
        assert vp.is_singular
        x = vp.x
        assert np.all(np.abs(x[vp.singular_mask]) < 0.5)

    def test_constant_mass_curvature_term_vanishes(self, ho):
        # for m = 1 the partner is V- + 2 W'/sqrt(m) exactly; the reference
        # side differences W across its pole, so stay well away from the node
        fac = factorize(ho, 1, lam=1.0, grid=HO_FINE_GRID)
        w = fac.W_n
        vm = fac.V_n_minus
        vp = fac.V_n_plus
        dw = derivative(w.values)
        x = vp.x
        ok = ~(vp.singular_mask | dw.singular_mask) & (np.abs(x) < 6.0) & (np.abs(x) > 0.5)
        assert np.max(np.abs(vp.values[ok] - (vm.values[ok] + 2.0 * dw.values[ok]))) < 1e-6


def _guard_band(den):
    """Nodes within the guard band of a sign change of den (zeros skipped)."""
    band = np.zeros(den.size, dtype=bool)
    nz = np.flatnonzero(den != 0.0)
    signs = np.sign(den[nz])
    for j in np.flatnonzero(signs[1:] != signs[:-1]):
        lo, hi = nz[j], nz[j + 1]
        band[max(0, lo - DEFAULT_GUARD_BAND + 1) : hi + DEFAULT_GUARD_BAND] = True
    return band


class TestBernoulli:
    def test_large_lambda_kills_f(self, ex1):
        psi1 = normalize_state(ex1.eigenstate_samples(1))
        f = bernoulli_f(psi1, ex1, 1e6)
        scale = np.max(psi1.values**2 / np.sqrt(ex1.mass(psi1.x)))
        assert np.max(np.abs(f.values.values)) <= 2e-6 * scale

    def test_unit_lambda_unmasked(self, ex1):
        psi1 = normalize_state(ex1.eigenstate_samples(1))
        f = bernoulli_f(psi1, ex1, 1.0)
        assert not f.is_singular

    def test_negative_lambda_masked(self, ex1):
        psi1 = normalize_state(ex1.eigenstate_samples(1))
        f = bernoulli_f(psi1, ex1, -0.5)
        assert f.is_singular

    def test_riccati_residual(self, fac_ex1_fine):
        from pdmfactor.verify import riccati_residual

        assert riccati_residual(fac_ex1_fine) <= 1e-6

    def test_requires_normalized_state(self, ex1):
        psi1 = normalize_state(ex1.eigenstate_samples(1))
        with pytest.raises(InconsistentInputError):
            bernoulli_f(psi1.with_values(2.0 * psi1.values), ex1, 1.0)

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ho", "box"])
    @pytest.mark.parametrize("lam", [-0.5, -0.0, 5e-324, 1.0, 1e6])
    def test_split_matches_the_formula(self, name, lam):
        # the deformation for one lambda gives, bit for bit,
        # den = lambda + F and f = psi^2/(sqrt(m) den), NaN on the band and
        # wherever f is not finite (the package's one mask rule)
        model = catalog(name)
        psi = normalize_state(model.eigenstate_samples(1))
        f = bernoulli_f(psi, model, lam)
        F = cumulative_integral(psi.with_values(psi.values**2)).values
        den = lam + F
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ref = psi.values**2 / (np.sqrt(model.mass(psi.x)) * den)
        ref[_guard_band(den) | ~np.isfinite(ref)] = np.nan
        assert np.array_equal(f.den, den)
        assert np.array_equal(f.values.values, ref, equal_nan=True)
        assert np.array_equal(f.q, psi.values)
        assert f.lam == lam

    @pytest.mark.parametrize("convention,lam", [("normalized", 1.0), ("paper-ex1", 0.7)])
    def test_factorize_uses_the_split(self, ex1, convention, lam):
        fac = factorize(ex1, 1, lam=lam, convention=convention)
        shift = 0.5 if convention == "paper-ex1" else 0.0
        f = bernoulli_f(fac.W_n.state, ex1, lam - shift)
        assert np.array_equal(fac.f_n.values.values, f.values.values, equal_nan=True)
        assert np.array_equal(fac.f_n.values.singular_mask, f.values.singular_mask)
        assert np.array_equal(fac.f_n.den, f.den)
        assert np.array_equal(fac.f_n.q, f.q)
        assert fac.f_n.lam == f.lam


class TestAuxiliary:
    def test_riccati_residual(self, fac_ex2_n1_fine):
        from pdmfactor.verify import riccati_residual

        assert riccati_residual(fac_ex2_n1_fine) <= 1e-5

    def test_window_cut_where_the_seed_has_not_decayed(self, ex2):
        # psi_1 seed decays on the left only: on [0, 14] chi is anchored at
        # the peak of |psi_1 seed|, not at either edge
        from pdmfactor.verify import riccati_residual

        fac = factorize(ex2, 1, beta=1.0, grid=Grid(0.0, 14.0, 4001))
        assert riccati_residual(fac) <= 1e-5

    def test_nonsingular_for_reference_parameters(self, fac_ex2_n1, fac_ex2_n2):
        assert not fac_ex2_n1.f_n.is_singular
        assert not fac_ex2_n2.f_n.is_singular

    def test_chi_recorded(self, fac_ex2_n1):
        chi = fac_ex2_n1.f_n.den
        assert not np.any(np.sign(chi[1:]) != np.sign(chi[:-1]))

    def test_bad_seed_rejected(self, ex2, fac_ex2_n1):
        grid = fac_ex2_n1.grid
        fake = SampledFunction(grid, np.exp(-grid.points() ** 2))
        with pytest.raises(InconsistentInputError):
            auxiliary_f(fake, ex2, fac_ex2_n1.W_n, 1.0)

    def test_seed_on_another_grid_rejected(self, ex2, fac_ex2_n1):
        grid = fac_ex2_n1.grid
        other = Grid(grid.x_min, grid.x_max, grid.n_points + 2)
        seed = SampledFunction(other, np.exp(-other.points() ** 2))
        with pytest.raises(InconsistentInputError, match="different grids"):
            auxiliary_f(seed, ex2, fac_ex2_n1.W_n, 1.0)

    def test_non_finite_seed_rejected(self, ex2, fac_ex2_n1):
        # a non-finite sample is refused before chi is built; the refusal
        # names the window, where too wide a one overflows a marched seed
        grid = fac_ex2_n1.grid
        values = fac_ex2_n1.f_n.q.copy()  # beta * seed, with beta = 1
        values[grid.n_points // 2] = np.inf
        with pytest.raises(InconsistentInputError,
                           match=r"not finite on the window \[-14.0, 14.0\]"):
            auxiliary_f(SampledFunction(grid, values), ex2, fac_ex2_n1.W_n, 1.0)

    @pytest.mark.parametrize("name, n, beta", [
        ("ho", 1, 0.5), ("ho", 1, -0.5), ("ho", 2, 1.0), ("ex1", 1, 0.5), ("ex1", 2, 1.0),
    ])
    def test_every_model_deletes_level_n(self, name, n, beta):
        # a marched seed serves every model: the zero mode psi_n/chi is not
        # normalizable, so the deformed spectrum is {E_k - E_n + beta : k != n}
        from pdmfactor.spectra import solve_spectrum

        model = catalog(name)
        rep = solve_spectrum(model, factorize(model, n, beta=beta).V_tilde_minus, 4)
        want = [model.energy(k) - model.energy(n) + beta for k in range(5) if k != n]
        assert np.max(np.abs(rep.eigenvalues - want)) <= model.spectrum_tolerance
        assert rep.node_counts == [0, 1, 2, 3]

    @pytest.mark.parametrize("name, n, beta, grid", [
        ("ho", 1, 1.0, None), ("ho", 2, 0.5, None), ("ex1", 2, 1.0, None),
        ("ex2", 1, 0.5, None), ("ex2", 1, 1.0, Grid(0.0, 14.0, 4001)),
    ], ids=["ho-n1", "ho-n2", "ex1-n2", "ex2-n1", "ex2-n1-anchored"])
    def test_seed_at_the_wrong_energy_is_refused(self, monkeypatch, name, n, beta, grid):
        # chi' = beta psi_n seed holds only at E_n - beta, so the direct
        # Wronskian disagrees with chi for a seed marched at E_n - 1.01 beta.
        # On [0, 14] psi_1 seed has not decayed at x_min, chi is anchored at
        # the integrand's peak, and the two are compared at chi's peak instead
        model = catalog(name)
        factorize(model, n, beta=beta, grid=grid)
        monkeypatch.setattr("pdmfactor.factor.seed_solution",
                            lambda m, k, b, g: seed_solution(m, k, 1.01 * b, g))
        with pytest.raises(InconsistentInputError, match="wronskian mismatch"):
            factorize(model, n, beta=beta, grid=grid)


class TestDeformedPartner:
    def test_zero_deformation_is_shift(self, ho):
        v = ho.potential_samples()
        f0 = DeformationFunction(
            values=SampledFunction(v.grid, np.zeros(v.grid.n_points)),
            den=np.ones(v.grid.n_points),
            q=np.zeros(v.grid.n_points),
            lam=1.0,
        )
        vt = deformed_partner(v, f0, ho, 0.7)
        assert np.max(np.abs(vt.values - (v.values + 0.7))) < 1e-12

    def test_matches_reference_form(self, ex1):
        for lam_paper in (1.0, 0.7):
            fac = factorize(ex1, 1, lam=lam_paper, convention="paper-ex1",
                            grid=EX1_FINE_GRID)
            ref = _reference_deformed_potential_ex1(EX1_FINE_GRID, lam_paper)
            assert np.max(np.abs(fac.V_tilde_minus.values - ref.values)) <= 1e-5

    def test_two_lambdas_distinct_but_isospectral(self, ex1):
        from pdmfactor.spectra import solve_spectrum

        fac_a = factorize(ex1, 1, lam=1.0, convention="paper-ex1")
        fac_b = factorize(ex1, 1, lam=0.7, convention="paper-ex1")
        assert np.max(np.abs(fac_a.V_tilde_minus.values - fac_b.V_tilde_minus.values)) > 0.01
        ea = solve_spectrum(ex1, fac_a.V_tilde_minus, 4).eigenvalues
        eb = solve_spectrum(ex1, fac_b.V_tilde_minus, 4).eigenvalues
        assert np.max(np.abs(ea - eb)) <= 1e-3


class TestLadder:
    def test_annihilation_of_defining_state(self, ho):
        psi0 = normalize_state(ho.eigenstate_samples(0))
        w = superpotential(psi0, ho, 0)
        out = apply_ladder(psi0, w, None, ho, "A_plus")
        ok = ~out.singular_mask
        assert np.max(np.abs(out.values[ok])) <= 1e-5 * np.max(np.abs(psi0.values))

    def test_constant_mass_lowering(self, ho):
        psi0 = normalize_state(ho.eigenstate_samples(0))
        psi1 = normalize_state(ho.eigenstate_samples(1))
        w = superpotential(psi0, ho, 0)
        out = apply_ladder(psi1, w, None, ho, "A_plus")
        assert count_nodes(out) == 0
        assert _linf_after_norm(out, psi0) < 1e-6

    def test_deformed_annihilates_zero_mode(self, ex1, fac_ex1_fine):
        zm = zero_mode(fac_ex1_fine)
        out = apply_ladder(zm, fac_ex1_fine.W_n, fac_ex1_fine.f_n, ex1, "Atilde_plus")
        ok = ~out.singular_mask
        assert np.max(np.abs(out.values[ok])) <= 1e-4 * np.max(np.abs(zm.values))

    def test_closed_form_zero_energy_state_annihilated(self, ex1, fac_ex1_fine):
        _, psi1_cf = _closed_form_states_ex1(EX1_FINE_GRID, 1.0)
        out = apply_ladder(psi1_cf, fac_ex1_fine.W_n, fac_ex1_fine.f_n, ex1, "Atilde_plus")
        ok = ~out.singular_mask
        assert np.max(np.abs(out.values[ok])) <= 1e-4 * np.max(np.abs(psi1_cf.values))

    def test_flag_consistency(self, ho, fac_ho):
        psi0 = normalize_state(ho.eigenstate_samples(0))
        with pytest.raises(ConfigurationError):
            apply_ladder(psi0, fac_ho.W_n, None, ho, "Atilde_plus")
        with pytest.raises(ConfigurationError):
            apply_ladder(psi0, fac_ho.W_n, fac_ho.f_n, ho, "A_plus")
        with pytest.raises(ConfigurationError):
            apply_ladder(psi0, fac_ho.W_n, None, ho, "B_plus")

    def test_pair_needs_f_for_a_deformed_operator(self, ho, fac_ho):
        psi0 = normalize_state(ho.eigenstate_samples(0))
        with pytest.raises(ConfigurationError):
            ladder_pair(psi0, fac_ho.W_n, None, ho, "A_plus", "Atilde_minus")

    @pytest.mark.parametrize("pair", [False, True])
    def test_state_on_another_grid(self, ho, fac_ho, pair):
        psi0 = normalize_state(ho.eigenstate_samples(0, Grid(-8.0, 8.0, 801)))
        with pytest.raises(InconsistentInputError):
            if pair:
                ladder_pair(psi0, fac_ho.W_n, fac_ho.f_n, ho, "A_plus", "Atilde_minus")
            else:
                apply_ladder(psi0, fac_ho.W_n, None, ho, "A_plus")

    def test_genuine_pole_stays_masked(self, ex1, fac_ex1):
        # psi_0 does not vanish at the node of psi_1, so A_1+ psi_0 has a pole
        psi0 = normalize_state(ex1.eigenstate_samples(0))
        out = apply_ladder(psi0, fac_ex1.W_n, None, ex1, "A_plus")
        assert out.is_singular
        # the whole guard band, whose W values are finite, stays flagged
        assert np.array_equal(out.singular_mask, fac_ex1.W_n.values.singular_mask)

    @pytest.mark.parametrize("name", ["ho", "ex1"])
    def test_flags_exactly_the_guard_band(self, name):
        # A_1+ annihilates psi_1; the output is NaN on W_1's guard band and
        # nowhere else, because the band is flagged, not interpolated
        model = catalog(name)
        fac = factorize(model, 1, lam=1.0)
        out = apply_ladder(fac.W_n.state, fac.W_n, None, model, "A_plus")
        band = fac.W_n.values.singular_mask
        assert np.count_nonzero(band) == 7
        assert np.array_equal(out.singular_mask, band)


class TestFactorizationIdentities:
    def test_ground_state_factorization(self, ho, ex1):
        # assembled operator action equals A0- A0+ on smooth test states
        for model in (ho, ex1):
            grid = Grid(-30.0, 30.0, 12001) if model.name == "ex1" else model.recommended_grid
            psi0 = normalize_state(model.eigenstate_samples(0, grid))
            w0 = superpotential(psi0, model, 0)
            x = grid.points()
            test = SampledFunction(grid, np.exp(-(x**2) / 4.0) * (1.0 + 0.3 * x))
            composite = ladder_pair(test, w0, None, model, "A_plus", "A_minus")
            m = model.mass(x)
            d1 = derivative(test)
            d2 = derivative(d1)
            shifted = model.potential(x) - model.energy(0)
            direct = -(1.0 / m) * d2.values + (model.mass_d1(x) / m**2) * d1.values + (
                shifted
            ) * test.values
            inner = slice(8, -8)
            scale = np.max(np.abs(direct[inner]))
            assert np.max(np.abs(composite.values[inner] - direct[inner])) <= 1e-5 * scale

    def test_factorization_nonuniqueness(self, ex1, fac_ex1_fine):
        # (A_n+ A_n- + beta) psi = A~_n+ A~_n- psi away from the pole bands
        grid = fac_ex1_fine.grid
        x = grid.points()
        test = SampledFunction(grid, np.exp(-(x**2) / 8.0) * (1.0 + 0.2 * x + 0.05 * x**2))
        plain = ladder_pair(test, fac_ex1_fine.W_n, None, ex1, "A_minus", "A_plus")
        tilde = ladder_pair(test, fac_ex1_fine.W_n, fac_ex1_fine.f_n, ex1,
                            "Atilde_minus", "Atilde_plus")
        beta = 0.0
        i0 = np.argmin(np.abs(x))
        away = np.ones(grid.n_points, bool)
        away[: 8] = False
        away[-8:] = False
        away[i0 - 12 : i0 + 13] = False
        diff = np.abs(tilde.values - plain.values - beta * test.values)
        scale = np.max(np.abs(plain.values[away]))
        assert np.max(diff[away]) <= 1e-5 * scale


class TestMapEigenstate:
    def test_matches_closed_form_ground_state(self, ex1, fac_ex1_fine):
        mapped = map_eigenstate(0, fac_ex1_fine)
        ref, _ = _closed_form_states_ex1(EX1_FINE_GRID, 1.0)
        assert _linf_after_norm(mapped, ref) <= 1e-3

    def test_node_preservation_ex1(self, ex1, fac_ex1):
        for k in range(5):
            assert count_nodes(map_eigenstate(k, fac_ex1)) == k

    def test_mapped_state_solves_deformed_problem(self, ex1, fac_ex1_fine):
        for k in (0, 2):
            mapped = map_eigenstate(k, fac_ex1_fine)
            x = mapped.x
            m = ex1.mass(x)
            d1 = derivative(mapped)
            d2 = derivative(d1)
            e_def = ex1.energy(k) - ex1.energy(1)
            res = (
                -(1.0 / m) * d2.values
                + (ex1.mass_d1(x) / m**2) * d1.values
                + (fac_ex1_fine.V_tilde_minus.values - e_def) * mapped.values
            )
            assert np.max(np.abs(res[8:-8])) <= 1e-4 * np.max(np.abs(mapped.values))

    def test_level_n_routes_to_zero_mode(self, ex1, fac_ex1):
        mapped = map_eigenstate(1, fac_ex1)
        zm = zero_mode(fac_ex1)
        assert np.max(np.abs(mapped.values - zm.values)) < 1e-14

    @pytest.mark.parametrize("name, n, kwargs, grid, bound", [
        ("ho", 1, dict(lam=1.0), None, 1e-6),
        ("ho", 2, dict(lam=1.0), None, 1e-6),
        ("ex2", 1, dict(lam=1.0), None, 1e-6),
        ("ex2", 1, dict(beta=0.5), None, 1e-6),
        ("ex2", 1, dict(beta=1.0), None, 1e-6),
        # on ex1's default grid the two differ by up to 3.5e-4
        ("ex1", 1, dict(lam=1.0, convention="paper-ex1"), EX1_FINE_GRID, 1e-5),
    ])
    def test_reduced_form_matches_literal_composite(self, name, n, kwargs, grid, bound):
        # the pole-free reduced form against A~_n- A_n+ composed literally,
        # scaled onto the mapped state, away from the grid edges and from
        # W_n's guard band, where the literal stencils are not clean
        model = catalog(name)
        fac = factorize(model, n, grid=grid, **kwargs)
        ok = np.ones(fac.grid.n_points, dtype=bool)
        ok[:8] = False
        ok[-8:] = False
        for i in np.flatnonzero(fac.W_n.values.singular_mask):
            ok[max(0, i - 6) : i + 7] = False
        for k in (k for k in range(4) if k != n):
            psi_k = model.eigenstate_samples(k, fac.grid)
            mapped = map_eigenstate(k, fac).values
            K = ladder_pair(psi_k, fac.W_n, fac.f_n, model, "A_plus", "Atilde_minus").values
            scaled = K[ok] * (K[ok] @ mapped[ok]) / (K[ok] @ K[ok])
            assert np.max(np.abs(scaled - mapped[ok])) <= bound * np.max(np.abs(mapped))


    def test_singular_deformation_refused(self, ho):
        fac = factorize(ho, 1, lam=-0.5)
        assert fac.f_n.is_singular
        with pytest.raises(DomainError, match="no mapping"):
            map_eigenstate(0, fac)

    def test_collapsed_state_refused(self):
        # a level-0 closed form that is all zeros maps to zero for k != n
        @dataclasses.dataclass(frozen=True)
        class Model(HarmonicOscillator):
            def eigenstate(self, k, x):
                return 0.0 * x if k == 0 else super().eigenstate(k, x)

        fac = factorize(Model(), 1, lam=1.0)
        with pytest.raises(DegenerateStateError,
                           match="mapped state is numerically zero for k != n"):
            map_eigenstate(0, fac)


class TestZeroMode:
    def test_normalization_constant(self, ex1):
        # for the (normalized-convention) lambda = 1 run the closed-form norm
        # constant is sqrt(lambda (lambda + 1)) = sqrt(2)
        fac = factorize(ex1, 1, lam=1.0)
        raw = fac.W_n.state.values / fac.f_n.den
        const = 1.0 / np.sqrt(
            definite_integral(SampledFunction(fac.grid, raw**2))
        )
        assert abs(const - np.sqrt(2.0)) < 1e-4

    def test_matches_closed_form(self, fac_ex1_fine):
        _, ref = _closed_form_states_ex1(EX1_FINE_GRID, 1.0)
        zm = zero_mode(fac_ex1_fine)
        assert _linf_after_norm(zm, ref) <= 1e-3
        assert count_nodes(zm) == 1

    def test_huge_lambda_limit(self, ex1):
        fac = factorize(ex1, 1, lam=1e6)
        zm = zero_mode(fac)
        assert _linf_after_norm(zm, fac.W_n.state) <= 1e-4

    def test_auxiliary_route_non_normalizable(self, fac_ex2_n1):
        with pytest.raises(NonNormalizableError):
            zero_mode(fac_ex2_n1)

    def test_singular_deformation_refused(self, ho):
        fac = factorize(ho, 1, lam=-0.5)
        with pytest.raises(DomainError, match="no zero mode"):
            zero_mode(fac)


class TestFactorizeDriver:
    def test_flag_validation(self, ex1):
        with pytest.raises(ConfigurationError):
            factorize(ex1, 1)  # beta = 0 needs lambda
        with pytest.raises(ConfigurationError):
            factorize(ex1, 1, beta=1.0, lam=1.0)
        with pytest.raises(ConfigurationError):
            factorize(ex1, 1, lam=1.0, convention="bogus")

    def test_paper_convention_shift(self, ex1):
        fac = factorize(ex1, 1, lam=1.0, convention="paper-ex1")
        assert fac.f_n.lam == 0.5

    def test_pointwise_identity_v_minus(self, fac_ex1, ex1):
        v0 = ex1.potential_samples()
        assert np.max(np.abs(fac_ex1.V_n_minus.values - (v0.values - 3.0))) < 1e-10


def _sampled_functions(obj):
    """Every SampledFunction held by obj or, recursively, its dataclass fields."""
    if isinstance(obj, SampledFunction):
        yield obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for fld in dataclasses.fields(obj):
            yield from _sampled_functions(getattr(obj, fld.name))


class TestMaskRule:
    @pytest.mark.parametrize("name, kwargs, singular", [
        ("ex1", dict(lam=1.0), False),
        ("ex1", dict(lam=-0.5), True),
        ("ho", dict(lam=1.0), False),
        ("ho", dict(lam=-0.5), True),
        ("ex2", dict(beta=1.0), False),
    ])
    def test_flag_is_nan_in_every_result(self, name, kwargs, singular):
        fac = factorize(catalog(name), 1, **kwargs)
        found = list(_sampled_functions(fac))
        # W_n and its state psi_n, V_n-, V_n+, V~_n- and f_n
        assert len(found) >= 6
        for sf in found:
            assert not np.isinf(sf.values).any()
        assert fac.f_n.is_singular == singular
        assert fac.W_n.values.is_singular  # the guard band around the node

    @pytest.mark.parametrize("name", ["ho", "ex1"])
    def test_guard_bands_are_written_into_the_values(self, name):
        # psi_1 and the denominator of f_1 are finite across their sign
        # changes, so the guard bands of W_1, V_1+ and f_1 are flagged by the
        # NaN written into their values and by nothing else
        fac = factorize(catalog(name), 1, lam=-0.5)
        w_band = np.flatnonzero(fac.W_n.values.singular_mask)
        f_band = np.flatnonzero(fac.f_n.values.singular_mask)
        assert np.isfinite(fac.W_n.state.values[w_band]).all()
        assert np.isfinite(fac.f_n.den[f_band]).all()
        # psi_1's node is a sample, the band reaches DEFAULT_GUARD_BAND nodes
        # past it on each side; f_1's sign change lies between two samples
        assert np.array_equal(np.diff(w_band), np.ones(2 * DEFAULT_GUARD_BAND, int))
        assert np.array_equal(np.diff(f_band), np.ones(2 * DEFAULT_GUARD_BAND - 1, int))
        # V_n+ copies W_n's NaN samples
        assert np.array_equal(fac.V_n_plus.singular_mask, fac.W_n.values.singular_mask)
