"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two sub-criteria are expected failures (strict xfail): for a nonzero
spectral shift the deformed operator provably loses the level used in the
factorization (checked numerically and by oscillation counting), so the full
shifted ladder and the node counts above that level cannot be reproduced.
The xfail reasons and the README carry the analysis.
"""

import time

import numpy as np
import pytest

from pdmfactor.factor import (
    factorize,
    map_eigenstate,
    scan_lambda,
    zero_mode,
)
from pdmfactor.grids import Grid, normalize_state
from pdmfactor.spectra import count_nodes, solve_spectrum
from pdmfactor.verify import check_isospectral, riccati_residual
from tests.conftest import EX1_FINE_GRID, EX2_TAIL_SAFE_GRID, read_csv
from tests.ladder import intertwining_residual
from tests.test_factor import (
    _closed_form_states_ex1,
    _reference_deformed_potential_ex1,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


class TestAcceptance:
    def test_01_base_spectrum_and_runtime(self, ex1):
        # a small warm-up solve first, so the timing below measures the
        # N = 8001 solve rather than first-call overhead
        small = Grid(-20.0, 20.0, 1001)
        solve_spectrum(ex1, ex1.potential_samples(small), 2)
        t0 = time.perf_counter()
        rep = solve_spectrum(ex1, ex1.potential_samples(), 6)
        elapsed = time.perf_counter() - t0
        errs = np.abs(rep.eigenvalues - (2.0 * np.arange(6) + 1.0))
        ok = bool(np.max(errs) <= 1e-3 and elapsed <= 10.0)
        report("1", ok, f"max|E_k - (2k+1)| = {np.max(errs):.2e} (tol 1e-3), "
                        f"solve at N=8001 took {elapsed:.2f}s (cap 10s)")
        assert np.max(errs) <= 1e-3
        assert elapsed <= 10.0

    def test_02_deformed_spectrum(self, fac_ex1):
        rep = check_isospectral(fac_ex1, 6)
        deformed = np.array([b for _, b, _ in rep.pairs])
        errs = np.abs(deformed - (2.0 * np.arange(6) - 2.0))
        ok = bool(np.max(errs) <= 1e-3 and rep.max_gap <= 1e-3)
        report("2", ok, f"max|E~_k - (2k-2)| = {np.max(errs):.2e}, "
                        f"degeneracy gap = {rep.max_gap:.2e} (tol 1e-3)")
        assert np.max(errs) <= 1e-3
        assert rep.max_gap <= 1e-3

    def test_03_closed_form_states(self, ex1, fac_ex1_fine):
        ref0, ref1 = _closed_form_states_ex1(EX1_FINE_GRID, 1.0)
        mapped0 = map_eigenstate(0, fac_ex1_fine)
        zm = zero_mode(fac_ex1_fine)
        d0 = np.max(np.abs(mapped0.values - normalize_state(ref0).values))
        d1 = np.max(np.abs(zm.values - normalize_state(ref1).values))
        ok = bool(d0 <= 1e-3 and d1 <= 1e-3)
        report("3", ok, f"Linf(psi~_0) = {d0:.2e}, Linf(psi~_1) = {d1:.2e} (tol 1e-3)")
        assert d0 <= 1e-3
        assert d1 <= 1e-3

    def test_04_singularity_threshold(self, ex1):
        paper = scan_lambda(ex1, 1, np.linspace(0.0, 1.0, 101), convention="paper-ex1")
        norm = scan_lambda(ex1, 1, np.linspace(-2.0, 1.0, 61))
        ok_paper = paper.critical_lambda is not None and abs(paper.critical_lambda - 0.5) <= 1e-3
        ok_norm = (
            len(norm.boundaries) == 2
            and abs(norm.boundaries[0] + 1.0) <= 1e-3
            and abs(norm.boundaries[1] - 0.0) <= 1e-3
        )
        ok = bool(ok_paper and ok_norm)
        report("4", ok, f"figure convention critical = {paper.critical_lambda:.5f} "
                        f"(target 0.5), normalized window = "
                        f"[{norm.boundaries[0]:.5f}, {norm.boundaries[1]:.5f}] (target [-1, 0])")
        assert ok_paper
        assert ok_norm

    def test_05a_base_spectrum_ex2(self, ex2):
        rep = solve_spectrum(ex2, ex2.potential_samples(), 3)
        errs = np.abs(rep.eigenvalues - np.array([6.0, 13.0, 22.0]))
        ok = bool(np.max(errs) <= 1e-2)
        report("5a", ok, f"max|E_n - {{6,13,22}}| = {np.max(errs):.2e} (tol 1e-2)")
        assert np.max(errs) <= 1e-2

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "the shifted factorization provably deletes level n from the deformed "
            "spectrum: the computed levels are {k^2+6k-6 : k != 1} and "
            "{k^2+6k-15 : k != 2}, so the full quadratic ladder cannot appear"
        ),
    )
    def test_05b_deformed_spectra_ex2(self, ex2, fac_ex2_n1, fac_ex2_n2):
        rep1 = solve_spectrum(ex2, fac_ex2_n1.V_tilde_minus, 4)
        rep2 = solve_spectrum(ex2, fac_ex2_n2.V_tilde_minus, 4)
        want1 = np.array([k * k + 6 * k - 6.0 for k in range(4)])
        want2 = np.array([k * k + 6 * k - 15.0 for k in range(4)])
        e1 = np.max(np.abs(rep1.eigenvalues - want1))
        e2 = np.max(np.abs(rep2.eigenvalues - want2))
        ok = bool(e1 <= 1e-2 and e2 <= 1e-2)
        report(
            "5b", ok,
            f"n=1 deformed = {np.round(rep1.eigenvalues, 4).tolist()} vs k^2+6k-6 "
            f"(max err {e1:.2e}); n=2 deformed = {np.round(rep2.eigenvalues, 4).tolist()} "
            f"vs k^2+6k-15 (max err {e2:.2e}); the k=n entry is absent",
        )
        assert e1 <= 1e-2
        assert e2 <= 1e-2

    def test_06_riccati_invariant(self, ex1, ho, ex2, fac_ex1_fine, fac_ho,
                                  fac_ex2_n1_fine):
        runs = {
            "ex1 bernoulli": riccati_residual(fac_ex1_fine),
            "ho bernoulli": riccati_residual(fac_ho),
            "ex2 bernoulli": riccati_residual(factorize(ex2, 1, lam=1.0)),
            "ex2 auxiliary n=1": riccati_residual(fac_ex2_n1_fine),
            "ex2 auxiliary n=2": riccati_residual(
                factorize(ex2, 2, beta=1.0, grid=EX2_TAIL_SAFE_GRID)
            ),
        }
        worst = max(runs.values())
        ok = bool(worst <= 1e-5)
        detail = ", ".join(f"{k}: {v:.1e}" for k, v in runs.items())
        report("6", ok, f"{detail} (tol 1e-5)")
        assert worst <= 1e-5

    def test_07_intertwining(self, ex1, ho, fac_ex1_fine, fac_ho):
        residuals = {}
        for k in (0, 2, 3):
            psi_k = ex1.eigenstate_samples(k, EX1_FINE_GRID)
            residuals[f"ex1 k={k}"] = intertwining_residual(fac_ex1_fine, psi_k, k)
        for k in (0, 2, 3):
            psi_k = ho.eigenstate_samples(k)
            residuals[f"ho k={k}"] = intertwining_residual(fac_ho, psi_k, k)
        worst = max(residuals.values())
        ok = bool(worst <= 1e-3)
        report("7", ok, f"worst relative residual = {worst:.2e} over "
                        f"{sorted(residuals)} (tol 1e-3; k = n is the zero image)")
        assert worst <= 1e-3

    def test_08a_node_preservation_ex1_ho(self, ex1, ho, fac_ex1, fac_ho):
        mismatches = []
        for model, fac in ((ex1, fac_ex1), (ho, fac_ho)):
            for k in range(5):
                got = count_nodes(map_eigenstate(k, fac))
                if got != k:
                    mismatches.append((model.name, k, got))
        ok = not mismatches
        report("8a", ok, f"node counts preserved for k=0..4 on ex1 and ho"
                         f"{'' if ok else ': mismatches ' + repr(mismatches)}")
        assert not mismatches

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "for beta != 0 the mapped states above the factorization level fill "
            "in for the deleted level and carry k-1 nodes; the zero mode is "
            "non-normalizable, so node preservation cannot hold for k >= n on ex2"
        ),
    )
    def test_08b_node_preservation_ex2(self, ex2, fac_ex2_n1):
        from pdmfactor.errors import NonNormalizableError

        results = {}
        for k in range(5):
            try:
                results[k] = count_nodes(map_eigenstate(k, fac_ex2_n1))
            except NonNormalizableError:
                results[k] = "non-normalizable"
        ok = all(results[k] == k for k in range(5))
        report("8b", ok, f"mapped node counts (n=1): {results} (want identity)")
        assert ok

    def test_09_constant_mass_limit(self, fac_ho):
        rep = check_isospectral(fac_ho, 4)
        deformed = np.array([b for _, b, _ in rep.pairs])
        errs = np.abs(deformed - np.array([-2.0, 0.0, 2.0, 4.0]))
        ric = riccati_residual(fac_ho)
        ok = bool(np.max(errs) <= 1e-4 and rep.node_match and ric <= 1e-6)
        report("9", ok, f"shifted ladder err = {np.max(errs):.2e} (tol 1e-4), "
                        f"nodes {'match' if rep.node_match else 'MISMATCH'}, "
                        f"riccati = {ric:.1e} (tol 1e-6)")
        assert np.max(errs) <= 1e-4
        assert rep.node_match
        assert ric <= 1e-6

    def test_10_figure_data(self, ex1, ex2, fac_ex2_n1, fac_ex2_n2, tmp_path):
        from pdmfactor.grids import write_csv

        worst = 0.0
        for lam_paper in (1.0, 0.7):
            fac = factorize(ex1, 1, lam=lam_paper, convention="paper-ex1",
                            grid=EX1_FINE_GRID)
            path = tmp_path / f"vtilde_{lam_paper}.csv"
            write_csv(fac.V_tilde_minus, path)
            back = read_csv(path)
            assert np.all(np.isfinite(back.values))
            ref = _reference_deformed_potential_ex1(EX1_FINE_GRID, lam_paper)
            worst = max(worst, float(np.max(np.abs(back.values - ref.values))))
        finite_ex2 = bool(
            np.all(np.isfinite(fac_ex2_n1.V_tilde_minus.values))
            and np.all(np.isfinite(fac_ex2_n2.V_tilde_minus.values))
        )
        ok = bool(worst <= 1e-5 and finite_ex2)
        report("10", ok, f"V~_1- closed-form match: {worst:.2e} (tol 1e-5) at "
                         f"lambda = 1 and 0.7; sech^2-mass partner curves finite: "
                         f"{finite_ex2}")
        assert worst <= 1e-5
        assert finite_ex2
