import numpy as np
import pytest

from pdmfactor.errors import (
    ConfigurationError,
    DomainError,
    InconsistentInputError,
    NonNormalizableError,
)
from pdmfactor.factor import (
    apply_ladder,
    auxiliary_f,
    bernoulli_f,
    count_nodes,
    deformed_partner,
    factorize,
    ladder_pair,
    map_eigenstate,
    partner_minus,
    partner_plus,
    spectrum_map,
    superpotential,
    zero_mode,
    DeformationFunction,
)
from pdmfactor.grids import Grid, SampledFunction, definite_integral, derivative, normalize_state
from pdmfactor.models import Ex2Params, model_ex1, seed_solution_ex2
from scipy.special import erf

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
        assert len(w.node_positions) == 1
        assert abs(w.node_positions[0]) < 1e-8

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


class TestAuxiliary:
    def test_riccati_residual(self, fac_ex2_n1_fine):
        from pdmfactor.verify import riccati_residual

        assert riccati_residual(fac_ex2_n1_fine) <= 1e-5

    def test_nonsingular_for_reference_parameters(self, fac_ex2_n1, fac_ex2_n2):
        assert not fac_ex2_n1.f_n.is_singular
        assert not fac_ex2_n2.f_n.is_singular

    def test_chi_recorded(self, fac_ex2_n1):
        chi = fac_ex2_n1.f_n.chi
        assert chi is not None
        assert not np.any(np.sign(chi.values[1:]) != np.sign(chi.values[:-1]))

    def test_bad_seed_rejected(self, ex2, fac_ex2_n1):
        grid = fac_ex2_n1.grid
        fake = SampledFunction(grid, np.exp(-grid.points() ** 2))
        with pytest.raises(InconsistentInputError):
            auxiliary_f(fake, fac_ex2_n1.psi_n, ex2, fac_ex2_n1.W_n, 1.0)


class TestDeformedPartner:
    def test_zero_deformation_is_shift(self, ho):
        v = ho.potential_samples()
        f0 = DeformationFunction(
            values=SampledFunction(v.grid, np.zeros(v.grid.n_points)),
            beta=0.7,
            route="bernoulli",
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

    def test_genuine_pole_stays_masked(self, ex1, fac_ex1):
        # psi_0 does not vanish at the node of psi_1, so A_1+ psi_0 has a pole
        psi0 = normalize_state(ex1.eigenstate_samples(0))
        out = apply_ladder(psi0, fac_ex1.W_n, None, ex1, "A_plus")
        assert out.is_singular


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
        psi0 = ex1.eigenstate_samples(0, EX1_FINE_GRID)
        mapped = map_eigenstate(psi0, fac_ex1_fine)
        ref, _ = _closed_form_states_ex1(EX1_FINE_GRID, 1.0)
        assert _linf_after_norm(mapped, ref) <= 1e-3

    def test_node_preservation_ex1(self, ex1, fac_ex1):
        for k in range(5):
            psi_k = ex1.eigenstate_samples(k)
            assert count_nodes(map_eigenstate(psi_k, fac_ex1)) == k

    def test_mapped_state_solves_deformed_problem(self, ex1, fac_ex1_fine):
        for k in (0, 2):
            psi_k = ex1.eigenstate_samples(k, EX1_FINE_GRID)
            mapped = map_eigenstate(psi_k, fac_ex1_fine)
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
        psi1 = ex1.eigenstate_samples(1)
        mapped = map_eigenstate(psi1, fac_ex1)
        zm = zero_mode(fac_ex1)
        assert np.max(np.abs(mapped.values - zm.values)) < 1e-14


class TestZeroMode:
    def test_normalization_constant(self, ex1):
        # for the (normalized-convention) lambda = 1 run the closed-form norm
        # constant is sqrt(lambda (lambda + 1)) = sqrt(2)
        fac = factorize(ex1, 1, lam=1.0)
        raw = fac.psi_n.values / (1.0 + fac.f_n.cumulative_norm.values)
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
        assert _linf_after_norm(zm, fac.psi_n) <= 1e-4

    def test_auxiliary_route_non_normalizable(self, fac_ex2_n1):
        with pytest.raises(NonNormalizableError):
            zero_mode(fac_ex2_n1)


class TestSpectrumMap:
    def test_ex1_level_one(self):
        levels = [2 * k + 1 for k in range(5)]
        assert spectrum_map(levels, 3.0, 0.0) == [2 * k - 2 for k in range(5)]

    def test_ex2_level_one(self):
        levels = [k * k + 6 * k + 6 for k in range(4)]
        assert spectrum_map(levels, 13.0, 1.0) == [k * k + 6 * k - 6 for k in range(4)]

    def test_ex2_level_two(self):
        levels = [k * k + 6 * k + 6 for k in range(4)]
        assert spectrum_map(levels, 22.0, 1.0) == [k * k + 6 * k - 15 for k in range(4)]


class TestFactorizeDriver:
    def test_flag_validation(self, ex1, ho):
        with pytest.raises(ConfigurationError):
            factorize(ex1, 1)  # beta = 0 needs lambda
        with pytest.raises(ConfigurationError):
            factorize(ex1, 1, beta=1.0, lam=1.0)
        with pytest.raises(ConfigurationError):
            factorize(ho, 1, beta=1.0)  # no auxiliary solutions for ho
        with pytest.raises(ConfigurationError):
            factorize(ex1, 1, lam=1.0, convention="bogus")

    def test_paper_convention_shift(self, ex1):
        fac = factorize(ex1, 1, lam=1.0, convention="paper-ex1")
        assert fac.f_n.lam == 0.5
        assert fac.convention == "paper-ex1"

    def test_pointwise_identity_v_minus(self, fac_ex1, ex1):
        v0 = ex1.potential_samples()
        assert np.max(np.abs(fac_ex1.V_n_minus.values - (v0.values - 3.0))) < 1e-10
