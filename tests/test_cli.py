import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmfactor
import pdmfactor.cli
import pdmfactor.errors
import pdmfactor.spectra
from pdmfactor.cli import main
from pdmfactor.errors import DegenerateStateError, SolverError
from tests.conftest import read_csv


def run(args):
    return main(args)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestConstruct:
    def test_ex1_reference_run(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "construct", "--model", "ex1", "--alpha", "1", "--n", "1",
                "--beta", "0", "--lambda", "1", "--convention", "paper-ex1",
                "--out", str(out),
            ]
        )
        assert code == 0
        for name in ("W_n.csv", "f_n.csv", "V_n_minus.csv", "V_n_plus.csv",
                     "V_tilde_minus.csv", "result.json"):
            assert (out / name).exists()
        meta = load_json(out / "result.json")
        assert meta["route"] == "bernoulli"
        assert meta["singular"] is False
        vt = read_csv(out / "V_tilde_minus.csv")
        assert not vt.is_singular
        assert np.all(np.isfinite(vt.values))

    def test_ex2_second_level(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            [
                "construct", "--model", "ex2", "--a", "1", "--b", "5", "--c", "4",
                "--n", "2", "--beta", "1", "--out", str(out),
            ]
        )
        assert code == 0
        meta = load_json(out / "result.json")
        assert meta["route"] == "auxiliary"
        assert meta["singular"] is False
        assert meta["states"]["zero_mode"] == "non-normalizable"
        vt = read_csv(out / "V_tilde_minus.csv")
        assert np.all(np.isfinite(vt.values))

    def test_constant_mass_limit_run(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            ["construct", "--model", "ho", "--n", "1", "--beta", "0",
             "--lambda", "1", "--out", str(out)]
        )
        assert code == 0

    def test_bad_flag_combination(self, tmp_path):
        code = run(
            ["construct", "--model", "ho", "--n", "1", "--beta", "1",
             "--lambda", "1", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_determinism_modulo_timestamp(self, tmp_path):
        argv = ["construct", "--model", "ho", "--n", "1", "--beta", "0",
                "--lambda", "1"]
        run(argv + ["--out", str(tmp_path / "a")])
        run(argv + ["--out", str(tmp_path / "b")])
        a = load_json(tmp_path / "a" / "result.json")
        b = load_json(tmp_path / "b" / "result.json")
        a.pop("timestamp")
        b.pop("timestamp")
        assert a == b
        assert (tmp_path / "a" / "f_n.csv").read_bytes() == (
            tmp_path / "b" / "f_n.csv"
        ).read_bytes()

    def test_huge_lambda_writes_a_complete_directory(self, tmp_path):
        # psi_n / (lambda + F) is about 1e-308 here; its square used to
        # underflow after the six profile CSVs were already written
        out = tmp_path / "run"
        code = run(["construct", "--model", "ex1", "--lambda", "1e308", "--out", str(out)])
        assert code == 0
        data = load_json(out / "result.json")
        names = list(data["files"].values()) + list(data["states"].values())
        assert "psi_tilde_zero_mode.csv" in names
        assert sorted(p.name for p in out.iterdir()) == sorted(names + ["result.json"])

    def test_ex2_window_where_a_state_loses_a_node(self, tmp_path):
        # psi_2 has one sign change inside [0, 14]; the construction maps it
        # as level 2 because it is named so, not by its node count
        out = tmp_path / "run"
        code = run(["construct", "--model", "ex2", "--n", "1", "--beta", "1",
                    "--grid-min", "0", "--grid-max", "14", "--grid-points", "4001",
                    "--out", str(out)])
        assert code == 0
        assert (out / "psi_tilde_0.csv").exists()
        assert (out / "psi_tilde_2.csv").exists()
        assert load_json(out / "result.json")["states"]["zero_mode"] == "non-normalizable"

    def test_failed_state_writes_nothing(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise DegenerateStateError("state has vanishing norm")

        monkeypatch.setattr(pdmfactor.cli, "map_eigenstate", refuse)
        out = tmp_path / "run"
        code = run(["construct", "--model", "ex1", "--lambda", "1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: state has vanishing norm\n"
        assert not out.exists()


class TestSpectrum:
    def test_ex1_original(self, tmp_path):
        code = run(
            ["spectrum", "--model", "ex1", "--levels", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        data = load_json(tmp_path / "spectrum.json")
        got = np.array(data["eigenvalues"])
        assert np.max(np.abs(got - np.array([1.0, 3.0, 5.0, 7.0]))) <= 1e-3
        assert (tmp_path / "eigenstate_0.csv").exists()

    def test_ex1_deformed(self, tmp_path):
        code = run(
            ["spectrum", "--model", "ex1", "--which", "deformed", "--n", "1",
             "--beta", "0", "--lambda", "1", "--levels", "4", "--out", str(tmp_path)]
        )
        assert code == 0
        data = load_json(tmp_path / "spectrum.json")
        got = np.array(data["eigenvalues"])
        assert np.max(np.abs(got - np.array([-2.0, 0.0, 2.0, 4.0]))) <= 1e-3

    def test_deformed_report_names_its_deformation(self, tmp_path):
        base = ["spectrum", "--model", "ho", "--levels", "2"]
        assert run(base + ["--which", "deformed", "--lambda", "1", "--convention",
                           "paper-ex1", "--out", str(tmp_path / "b")]) == 0
        data = load_json(tmp_path / "b" / "spectrum.json")
        assert (data["n"], data["beta"], data["lambda"], data["convention"]) == (
            1, 0.0, 1.0, "paper-ex1")
        assert run(["spectrum", "--model", "ex2", "--levels", "2", "--which", "deformed",
                    "--beta", "1", "--out", str(tmp_path / "a")]) == 0
        data = load_json(tmp_path / "a" / "spectrum.json")
        assert (data["n"], data["beta"], data["lambda"], data["convention"]) == (
            1, 1.0, None, "normalized")
        assert run(base + ["--out", str(tmp_path / "o")]) == 0
        data = load_json(tmp_path / "o" / "spectrum.json")
        assert not {"n", "beta", "lambda", "convention"} & set(data)

    def test_singular_deformation_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = run(["spectrum", "--which", "deformed", "--model", "ex1", "--n", "1",
                    "--lambda", "-0.5", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "deformed potential is singular for these parameters\n"
        assert not out.exists()

    def test_ex2_window_cut_where_the_seed_has_not_decayed(self, tmp_path):
        # the right edge of [0, 14] is no anchor for chi: psi_1 seed does not
        # decay there
        code = run(["spectrum", "--which", "deformed", "--model", "ex2", "--n", "1",
                    "--beta", "1", "--grid-min", "0", "--grid-max", "14",
                    "--grid-points", "4001", "--levels", "3", "--out", str(tmp_path)])
        assert code == 0

    @pytest.mark.parametrize("grid_min, code, err", [
        ("-1.5", 2, "error: psi_n * seed has not decayed at the left edge x_min = -1.5"
                    " (wronskian mismatch 1.51e-02); use a smaller --grid-min\n"),
        ("-3", 0, ""),
    ], ids=["x_min=-1.5", "x_min=-3"])
    def test_ex2_window_cut_where_the_left_tail_has_not_decayed(self, tmp_path, capsys,
                                                                grid_min, code, err):
        # chi starts from a one-term tail estimate at x_min; the refusal names
        # the window, whose estimate's share of chi explains the mismatch
        out = tmp_path / "run"
        assert run(["spectrum", "--which", "deformed", "--model", "ex2", "--n", "1",
                    "--beta", "1", f"--grid-min={grid_min}", "--grid-max", "14",
                    "--grid-points", "4001", "--out", str(out)]) == code
        assert capsys.readouterr().err == err
        assert out.exists() == (code == 0)

    def test_ex2_wider_window(self, tmp_path):
        code = run(["spectrum", "--model", "ex2", "--grid-min", "-20", "--grid-max", "20",
                    "--grid-points", "4001", "--levels", "3", "--out", str(tmp_path)])
        assert code == 0
        got = np.array(load_json(tmp_path / "spectrum.json")["eigenvalues"])
        assert np.max(np.abs(got - np.array([6.0, 13.0, 22.0]))) <= 1e-2

    def test_seed_that_overflows_the_window_is_refused(self, tmp_path, capsys):
        # the seed marched across [-40, 40] grows past the double range
        out = tmp_path / "run"
        assert run(["spectrum", "--which", "deformed", "--model", "ho", "--n", "1",
                    "--beta", "1", "--grid-min=-40", "--grid-max", "40",
                    "--grid-points", "8001", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: the auxiliary solution at E = 1.0 is not finite on the window"
            " [-40.0, 40.0]; a narrower window keeps it within double precision\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("n, beta, grid_min, grid_max, points, exact", [
        ("1", "1", "-12", "12", "2401", [-1.0, 3.0, 5.0]),
        ("1", "1", "-20", "20", "4001", [-1.0, 3.0, 5.0]),
        ("2", "0.5", "-20", "20", "4001", [-3.5, -1.5, 2.5]),
    ], ids=["n1-12", "n1-20", "n2-20"])
    def test_ho_seed_on_a_wide_window_at_the_default_spacing(self, tmp_path, n, beta,
                                                            grid_min, grid_max, points, exact):
        # h = 0.01 as on ho's default grid; the seed's large right tail, where
        # the direct Wronskian's stencil error peaks, is not where it is checked
        code = run(["spectrum", "--which", "deformed", "--model", "ho", "--n", n,
                    "--beta", beta, f"--grid-min={grid_min}", "--grid-max", grid_max,
                    "--grid-points", points, "--levels", "3", "--out", str(tmp_path)])
        assert code == 0
        got = np.array(load_json(tmp_path / "spectrum.json")["eigenvalues"])
        assert np.max(np.abs(got - np.array(exact))) <= 1e-5

    @pytest.mark.parametrize("beta, err", [
        # E_1 - beta above the flat floor: the seed would oscillate outside the wall
        ("1", "error: seed energy 38.47841760435743 makes the equation oscillate at the"
              " march's start x = -1, left of x_min = 0.0: no auxiliary solution decays"
              " there\n"),
        ("50", "deformed potential is singular for these parameters\n"),
    ], ids=["seed-energy-above-floor", "singular"])
    def test_box_beta_is_refused(self, tmp_path, capsys, beta, err):
        out = tmp_path / "run"
        assert run(["spectrum", "--which", "deformed", "--model", "box", "--n", "1",
                    "--beta", beta, "--out", str(out)]) == 1
        assert capsys.readouterr().err == err
        assert not out.exists()

    def test_box_sanity(self, tmp_path):
        code = run(["spectrum", "--model", "box", "--levels", "2", "--out", str(tmp_path)])
        assert code == 0
        data = load_json(tmp_path / "spectrum.json")
        ref = np.array([np.pi**2, 4 * np.pi**2])
        assert np.max(np.abs(np.array(data["eigenvalues"]) - ref)) <= 1e-2

    @pytest.mark.parametrize("flags, parameters, energies", [
        # E_n = n^2 + n (a + b) + c (a + b - c + 1) / 2
        (["--a", "2", "--b", "8", "--c", "3"], {"a": 2.0, "b": 8.0, "c": 3.0},
         [12.0, 23.0, 36.0]),
        # a flag not given takes the model's default
        (["--b", "8"], {"a": 1.0, "b": 8.0, "c": 4.0}, [12.0, 22.0, 34.0]),
    ])
    def test_given_parameters_reach_the_model(self, tmp_path, flags, parameters, energies):
        # off-default values, so that a dropped flag shows in both the report
        # and the spectrum
        code = run(["spectrum", "--model", "ex2", *flags, "--levels", "3",
                    "--out", str(tmp_path)])
        assert code == 0
        data = load_json(tmp_path / "spectrum.json")
        assert data["parameters"] == parameters
        got = np.array(data["eigenvalues"])
        assert np.max(np.abs(got - np.array(energies))) <= 1e-2


class TestVerify:
    def test_ex1_suite_passes(self, tmp_path):
        code = run(
            ["verify", "--model", "ex1", "--n", "1", "--beta", "0",
             "--lambda", "1", "--levels", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        data = load_json(tmp_path / "verify.json")
        assert data["passed"] is True
        iso = data["isospectrality"]
        assert set(iso) == {
            "levels_checked", "pairs", "max_gap", "node_match", "tolerance", "passed",
        }
        assert iso["max_gap"] <= 1e-3
        assert iso["max_gap"] == max(gap for _, _, gap in iso["pairs"])

    def test_singular_lambda_fails(self, tmp_path, capsys):
        code = run(
            ["verify", "--model", "ex1", "--n", "1", "--beta", "0",
             "--lambda", "-0.5", "--out", str(tmp_path)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "singular" in captured.err
        data = load_json(tmp_path / "verify.json")
        assert data["singular"] is True
        assert data["passed"] is False

    def test_failed_check_reports_on_both_streams(self, tmp_path, capsys):
        # beta != 0 deletes level n, so the check fails: the summary still
        # goes to stdout and the verdict to stderr
        code = run(["verify", "--model", "ex2", "--n", "1", "--beta", "0.5",
                    "--levels", "4", "--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 1
        assert captured.out.startswith("isospectrality: max_gap=1.300e+01 ")
        assert captured.err == "FAIL: isospectrality check failed\n"
        data = load_json(tmp_path / "verify.json")
        assert data["passed"] is False
        assert data["isospectrality"]["passed"] is False

    @pytest.mark.parametrize("lam,singular", [("1", False), ("0", True)])
    def test_report_records_the_convention(self, tmp_path, lam, singular):
        # the same --lambda verifies different deformations per convention
        for convention in ("normalized", "paper-ex1"):
            out = tmp_path / convention
            run(["verify", "--model", "ho", "--levels", "2", "--lambda", lam,
                 "--convention", convention, "--out", str(out)])
            data = load_json(out / "verify.json")
            assert data["convention"] == convention
            assert data["lambda"] == float(lam)
        assert data["singular"] is singular

    def test_constant_mass_suite_passes(self, tmp_path):
        code = run(
            ["verify", "--model", "ho", "--n", "1", "--beta", "0",
             "--lambda", "1", "--out", str(tmp_path)]
        )
        assert code == 0


class TestScan:
    def test_subnormal_lambda_inside_the_window(self, tmp_path):
        # D = lambda + F is -2.2e-309 at x_min, so f overflows there: a
        # singular sample, not a RuntimeWarning
        code = run(["scan", "--model", "ho", "--n", "0", "--grid-min", "2",
                    "--grid-points", "215", "--lambda-min=-2.225073858507203e-309",
                    "--lambda-max", "2", "--out", str(tmp_path)])
        assert code == 0
        flags = load_json(tmp_path / "scan.json")["singular_flags"]
        assert flags[0] is True and not any(flags[1:])

    def test_figure_convention(self, tmp_path):
        code = run(
            ["scan", "--model", "ex1", "--n", "1", "--lambda-min", "0",
             "--lambda-max", "1", "--steps", "51", "--convention", "paper-ex1",
             "--out", str(tmp_path)]
        )
        assert code == 0
        data = load_json(tmp_path / "scan.json")
        assert abs(data["critical_lambda"] - 0.5) <= 1e-3

    def test_normalized_window(self, tmp_path):
        code = run(
            ["scan", "--model", "ex1", "--n", "1", "--lambda-min", "-2",
             "--lambda-max", "1", "--steps", "31", "--out", str(tmp_path)]
        )
        assert code == 0
        data = load_json(tmp_path / "scan.json")
        assert len(data["boundaries"]) == 2
        assert abs(data["boundaries"][0] + 1.0) <= 1e-3
        assert abs(data["boundaries"][1]) <= 1e-3

    def test_empty_range(self, tmp_path):
        code = run(
            ["scan", "--model", "ex1", "--n", "1", "--lambda-min", "1",
             "--lambda-max", "0", "--steps", "10", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_level_the_construction_refuses(self, tmp_path, capsys):
        # ho's level-40 state keeps 38 sign changes on the default grid; the
        # scan refuses it as construct and spectrum --which deformed do
        out = tmp_path / "run"
        code = run(["scan", "--model", "ho", "--n", "40", "--lambda-min", "-2",
                    "--lambda-max", "1", "--steps", "7", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: state has 38 sign changes but level 40 was requested\n"
        )
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_model_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--model", "nope", "--out", "/tmp"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--model", "ho", "--alpha", "5", "--levels", "2"],
         "model ho takes no parameter alpha"),
        (["construct", "--model", "ex1", "--lambda", "1", "--c", "4"],
         "model ex1 takes no parameter c"),
        (["scan", "--model", "box", "--lambda-min", "0", "--lambda-max", "1", "--a", "1",
          "--b", "5"], "model box takes no parameter a, b"),
    ])
    def test_another_models_parameter_exits_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run"
        code = run(argv + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["construct"], ["verify"],
                                         ["spectrum", "--which", "deformed"]])
    @pytest.mark.parametrize("flags, message", [
        (["--model", "ho"], "--lambda is required when --beta is 0"),
        (["--model", "ex2", "--beta", "1", "--lambda", "1"],
         "--lambda applies only to --beta 0 runs"),
    ])
    def test_lambda_flag_refusals(self, tmp_path, capsys, command, flags, message):
        # factorize holds the one check; the CLI passes the flags straight on
        out = tmp_path / "run"
        code = run(command + flags + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_calls_in_one_process_are_independent(self, tmp_path, capsys):
        # main can run many times in one process; a flag given to one call,
        # or a refused call, must not reach the next
        base = ["spectrum", "--model", "ex1", "--levels", "2"]
        assert run(base + ["--alpha", "2", "--out", str(tmp_path / "a")]) == 0
        with pytest.raises(SystemExit) as exc:
            run(base + ["--alpha", "nan", "--out", str(tmp_path / "b")])
        assert exc.value.code == 2
        assert run(base + ["--out", str(tmp_path / "c")]) == 0
        assert not (tmp_path / "b").exists()
        for out, alpha in (("a", 2.0), ("c", 1.0)):
            data = load_json(tmp_path / out / "spectrum.json")
            assert data["parameters"] == {"alpha": alpha}
            assert np.max(np.abs(np.array(data["eigenvalues"]) - [1.0, 3.0])) <= 1e-2
        assert "expected a finite number, got 'nan'" in capsys.readouterr().err

    def test_auxiliary_route_echoes_the_convention(self, tmp_path):
        # the convention shifts only lambda, but result.json reports the flag
        out = tmp_path / "run"
        code = run(["construct", "--model", "ex2", "--beta", "1", "--convention",
                    "paper-ex1", "--out", str(out)])
        assert code == 0
        meta = load_json(out / "result.json")
        assert (meta["route"], meta["lambda"], meta["convention"]) == (
            "auxiliary", None, "paper-ex1")


# each error class's exit status: usage errors 2, the rest 1
EXIT_CODES = {
    "ConfigurationError": 2,
    "InconsistentInputError": 2,
    "DomainError": 1,
    "DegenerateStateError": 1,
    "NonNormalizableError": 1,
    "SolverError": 1,
}


class TestPackageErrors:
    def test_every_error_class_derives_from_the_base(self):
        classes = {name for name, value in vars(pdmfactor.errors).items()
                   if isinstance(value, type) and issubclass(value, Exception)
                   and value.__module__ == "pdmfactor.errors"}
        assert classes == set(EXIT_CODES) | {"PdmError"}
        value_errors = {"ConfigurationError", "DomainError", "InconsistentInputError"}
        for name in EXIT_CODES:
            cls = getattr(pdmfactor.errors, name)
            assert issubclass(cls, pdmfactor.errors.PdmError)
            assert issubclass(cls, ValueError if name in value_errors else RuntimeError)

    @pytest.mark.parametrize("name, code", sorted(EXIT_CODES.items()))
    def test_exit_code_follows_the_class(self, tmp_path, monkeypatch, capsys, name, code):
        def refuse(*args):
            raise getattr(pdmfactor.errors, name)("refused")

        monkeypatch.setattr(pdmfactor.cli, "cmd_spectrum", refuse)
        assert run(["spectrum", "--model", "ho", "--out", str(tmp_path)]) == code
        assert capsys.readouterr() == ("", "error: refused\n")
        assert not any(tmp_path.iterdir())

    def test_solver_error_exits_one_with_one_line(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise SolverError("eigenvector residual above cap")

        monkeypatch.setattr(pdmfactor.cli, "solve_spectrum", refuse)
        code = run(["spectrum", "--model", "ho", "--levels", "2", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: eigenvector residual above cap\n"

    def test_coarse_grid_refuses_levels_the_fine_grid_holds(self, tmp_path, capsys):
        # 150 <= 2001 // 10 on the given grid, but 150 > 1001 // 10 on the
        # every-second-node subgrid that the extrapolation solves on too
        code = run(["spectrum", "--model", "ho", "--levels", "150", "--grid-points", "2001",
                    "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: requested 150 eigenpairs")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("levels, points, minimum", [(1, 11, 19), (1, 15, 19), (2, 37, 39)])
    def test_small_grid_refusal_names_the_given_grid(self, tmp_path, capsys, levels, points,
                                                     minimum):
        # the message names the user's N, not the hidden every-second-node subgrid
        code = run(["spectrum", "--model", "ho", "--levels", str(levels),
                    "--grid-points", str(points), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: requested {levels} eigenpairs on {points} grid points; that needs"
            f" an odd number of grid points >= {minimum}\n"
        )
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "ho"],
        ["verify", "--model", "ex1", "--lambda", "1"],
    ])
    def test_even_grid_is_refused_up_front(self, tmp_path, capsys, monkeypatch, argv):
        # an even N has no every-second-node subgrid: refused, with the given
        # N named, before the fine grid is discretized
        discretized = []
        monkeypatch.setattr(pdmfactor.spectra, "discretize", lambda *a: discretized.append(a))
        out = tmp_path / "run"
        code = run(argv + ["--grid-points", "2000", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: requested ") and "on 2000 grid points" in err
        assert "odd number of grid points" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert discretized == []
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["spectrum", "--model", "ex1", "--grid-points", "8", "--grid-min=-100",
          "--grid-max=1e300"],
         "error: model ex1 overflows on the grid [-100.0, 1e+300]: its mass, the mass's first"
         " two derivatives and its potential must be finite, and its mass positive, at"
         " every node\n"),
        # the mass is 1e-156 at x_min, but (1 + x^2)^2 in m' overflows
        (["construct", "--model", "ex1", "--lambda", "1", "--grid-min=-1e78"],
         "error: model ex1 overflows on the grid [-1e+78, 250.0]: its mass, the mass's first"
         " two derivatives and its potential must be finite, and its mass positive, at"
         " every node\n"),
        (["construct", "--model", "ho", "--lambda", "1", "--grid-min=-1e300", "--grid-max=5"],
         "error: model ho overflows on the grid [-1e+300, 5.0]: its mass, the mass's first"
         " two derivatives and its potential must be finite, and its mass positive, at"
         " every node\n"),
        (["spectrum", "--model", "ho", "--grid-min=0", "--grid-max=5e-324"],
         "error: grid spacing 0 on [0.0, 5e-324] is below 1e-150\n"),
        # beta * F underflows, so chi is zero everywhere
        (["construct", "--model", "ex2", "--grid-points", "160", "--n", "0", "--beta=5e-324"],
         "error: seed is not a solution at E_n - beta (wronskian mismatch inf)\n"),
        # ... or leaves it subnormal, so the mismatch ratio overflows
        (["construct", "--model", "ex2", "--grid-max=0", "--n", "0", "--a=0", "--b", "2",
          "--c", "1.2", "--beta=5e-324"],
         "error: seed is not a solution at E_n - beta (wronskian mismatch inf)\n"),
        # chi scales with beta, the direct Wronskian's stencil error does not;
        # chi's left-edge tail estimate is below 1e-22 of chi, so a wider
        # window would not help
        (["spectrum", "--which", "deformed", "--model", "ho", "--beta", "1e-10"],
         "error: chi, which scales with beta = 1e-10, is below the stencil error of the"
         " direct Wronskian (wronskian mismatch 6.01e-02); use a larger |--beta| or a"
         " finer grid (more --grid-points)\n"),
        (["spectrum", "--which", "deformed", "--model", "ex2", "--beta", "1e-300"],
         "error: chi, which scales with beta = 1e-300, is below the stencil error of the"
         " direct Wronskian (wronskian mismatch 4.09e+287); use a larger |--beta| or a"
         " finer grid (more --grid-points)\n"),
        # the stencil error shrinks with h as well as chi grows with beta
        (["construct", "--model", "ex2", "--grid-points", "8", "--n", "0", "--beta", "2"],
         "error: chi, which scales with beta = 2.0, is below the stencil error of the"
         " direct Wronskian (wronskian mismatch 3.68e-01); use a larger |--beta| or a"
         " finer grid (more --grid-points)\n"),
        (["verify", "--model", "box", "--grid-points", "29", "--n", "3", "--lambda", "1",
          "--levels", "1"],
         "error: no node of the 29-point grid lies clear of the edges and of the node"
         " bands of W_n; the Riccati residual needs more grid points\n"),
    ], ids=["ex1-wide", "ex1-wide-derivative", "ho-wide", "zero-spacing", "subnormal-beta",
            "subnormal-chi", "tiny-beta-ho", "tiny-beta-ex2", "seed-on-8-points",
            "riccati-without-nodes"])
    def test_unrepresentable_inputs_exit_two(self, tmp_path, capsys, argv, message):
        # refused without a RuntimeWarning, which the suite turns into an error
        out = tmp_path / "run"
        code = run(argv + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["construct", "--model", "box", "--lambda", "1"],
        ["verify", "--model", "box", "--lambda", "1", "--levels", "2"],
    ])
    def test_state_that_nearly_vanishes_at_an_edge(self, tmp_path, argv):
        # at x = 5e-324 the box state is subnormal and psi'/psi overflows to
        # inf: a singular sample, flagged like the exact node at x = 0
        code = run(argv + ["--grid-min=5e-324", "--grid-points", "401",
                           "--out", str(tmp_path / "run")])
        assert code == 0

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_output_path_through_a_file_exits_two(self, tmp_path, capsys, out):
        (tmp_path / "afile").write_text("")
        code = run(["spectrum", "--model", "ho", "--levels", "1", "--out", str(tmp_path / out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {tmp_path / out / 'eigenstate_0.csv'}: ")
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert (tmp_path / "afile").read_text() == ""

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        # the disk fills after the temp file is opened: the temp file is
        # removed and the run exits 2 with one line
        def full_disk(f, path):
            with open(path, "w") as fh:
                fh.write("x")
            raise OSError(28, os.strerror(28))

        monkeypatch.setattr(pdmfactor.cli, "write_csv", full_disk)
        out = tmp_path / "run"
        code = run(["spectrum", "--model", "ho", "--levels", "1", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {out / 'eigenstate_0.csv'}: No space left on device\n"
        )
        assert list(out.glob("*.tmp")) == []

    def test_deformed_partner_that_overflows_at_an_edge(self, tmp_path, capsys):
        # D = lambda + F is 2.2e-308 at x_min, so 2 f' exceeds the double
        # range there: V~ is singular at that node and has no spectrum
        code = run(["verify", "--model", "ex2", "--grid-min=1e-150", "--grid-points", "243",
                    "--n", "0", "--lambda=2.2250738585072014e-308", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: cannot discretize a singular-flagged potential\n"

    def test_lambda_at_the_window_edge(self, tmp_path, capsys):
        # lambda = 5e-324 is just outside [-1, 0], so D = lambda + F is
        # 5e-324 at x_min: the mapped states exceed the double range there
        out = tmp_path / "run"
        code = run(["construct", "--model", "ho", "--lambda=5e-324", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: mapped state 0 overflows double precision: D = lambda + F comes within"
            " 4.9e-324 of zero\n"
        )
        assert not out.exists()
        code = run(["verify", "--model", "ho", "--lambda=5e-324", "--levels", "2",
                    "--out", str(out)])
        assert code == 1
        assert load_json(out / "verify.json")["passed"] is False

    def test_spectrum_that_does_not_increase_exits_one(self, tmp_path, capsys):
        # on [-40, 40] ex2's matrix spans about 1e21, so its eigenvalue
        # tolerance swamps the lowest levels: refused, not reported
        code = run(["spectrum", "--model", "ex2", "--grid-min", "-40", "--grid-max", "40",
                    "--grid-points", "4001", "--levels", "3", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: eigenvalues do not strictly increase: ")
        assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--beta", "inf"),
                                             ("--grid-min", "-inf"), ("--alpha", "nan")])
    def test_non_finite_float_flag_exits_two(self, tmp_path, flag, value):
        with pytest.raises(SystemExit) as exc:
            run(["construct", "--model", "ex1", "--n", "1", f"{flag}={value}",
                 "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert not any(tmp_path.iterdir())


    @pytest.mark.parametrize("argv, dest, value", [
        (["construct", "--model", "ho", "--n", "1", "--lambda", "-2e0"], "lambda_", -2.0),
        (["spectrum", "--model", "ho", "--grid-min", "-8E0", "--levels", "2"], "grid_min", -8.0),
        (["scan", "--model", "ho", "--lambda-min", "-1e-300", "--lambda-max", "1",
          "--steps", "5"], "lambda_min", -1e-300),
    ])
    def test_negative_number_with_exponent_is_a_value(self, tmp_path, argv, dest, value):
        argv = argv + ["--grid-points", "401", "--out", str(tmp_path)]
        assert getattr(pdmfactor.cli.build_parser().parse_args(argv), dest) == value
        assert run(argv) == 0

    @pytest.mark.parametrize("flag, value", [("--lambda", "-inf"), ("--grid-min", "-Infinity"),
                                             ("--beta", "-nan"), ("--lambda", "nan")])
    def test_non_finite_float_value_after_a_space_exits_two(self, tmp_path, capsys, flag,
                                                            value):
        with pytest.raises(SystemExit) as exc:
            run(["construct", "--model", "ex1", "--n", "1", flag, value, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert f"expected a finite number, got {value!r}" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["construct", "--model", "ho", "--n", "-1", "--lambda", "1"],
        ["verify", "--model", "ex1", "--n", "-1", "--lambda", "1"],
        ["spectrum", "--model", "ho", "--which", "deformed", "--n", "-1", "--beta", "0.5"],
        ["scan", "--model", "ho", "--n", "-1", "--lambda-min", "-1", "--lambda-max", "1"],
        # a level that is no integer is refused the same way
        ["construct", "--model", "ho", "--n", "1.5", "--lambda", "1"],
        ["scan", "--model", "ho", "--n", "x", "--lambda-min", "-1", "--lambda-max", "1"],
    ])
    def test_negative_level_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        level = argv[argv.index("--n") + 1]
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"pdmfactor {argv[0]}: error: argument --n: expected a non-negative integer, "
            f"got '{level}'"
        ]
        assert "Traceback" not in err
        assert not out.exists()

    def test_overflowing_lambda_range_exits_two(self, tmp_path, capsys):
        # each end is finite, but the width and so the linspace step are inf
        out = tmp_path / "run"
        code = run(["scan", "--model", "ho", "--lambda-min=-1e308", "--lambda-max=1e308",
                    "--steps", "5", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: lambda-max - lambda-min overflows\n"
        assert not out.exists()

    # numpy refuses arrays of 2**62 or more float64s before it allocates
    # anything, so these counts never touch memory
    @pytest.mark.parametrize("argv, message", [
        (["scan", "--model", "ho", "--lambda-min", "0", "--lambda-max", "1",
          "--steps", str(2**62)], f"--steps {2**62}"),
        (["spectrum", "--model", "box", "--grid-points", str(2**62 + 1)],
         f"--grid-points {2**62 + 1}"),
        (["construct", "--model", "ho", "--grid-points", str(2**62 + 1)],
         f"--grid-points {2**62 + 1}"),
    ])
    def test_count_too_large_to_allocate_exits_two(self, tmp_path, capsys, argv, message):
        out = tmp_path / "run"
        code = run(argv + ["--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message} is too large to allocate\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "ho"],
        ["construct", "--model", "ho", "--lambda", "1"],
        ["construct", "--model", "ex2", "--beta", "1"],
    ])
    def test_overflowing_grid_window_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        code = run(argv + ["--grid-min=-1e308", "--grid-max=1e308", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: grid width x_max - x_min overflows, got [-1e+308, 1e+308]\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--model", "ex2", "--a", "1e300"],
        ["spectrum", "--model", "ex2", "--b", "1e300"],
        ["construct", "--model", "ex2", "--beta", "1", "--a", "1e300"],
        ["construct", "--model", "ex2", "--beta", "1", "--b", "1e300"],
    ])
    def test_overflowing_ex2_parameters_exit_one(self, tmp_path, capsys, argv):
        # (a + b) ** 2 on Python floats raised OverflowError with a traceback
        out = tmp_path / "run"
        code = run(argv + ["--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("error: a=") and "overflow double precision" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, start, reason", [
        (["spectrum", "--model", "ex1", "--alpha", "1e300"], "error: alpha=", "overflow"),
        (["construct", "--model", "ex2", "--beta=-1e300"], "error: seed energy 1e+300",
         "oscillate"),
    ])
    def test_huge_parameters_exit_one(self, tmp_path, capsys, argv, start, reason):
        # the suite turns every RuntimeWarning into an error, so an exit code
        # also shows that none was raised on the way to the refusal
        out = tmp_path / "run"
        code = run(argv + ["--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(start) and reason in err
        assert not out.exists()


# number-flag texts: a non-number, signed zero, the smallest subnormal and
# values whose products overflow, among ordinary values
NUMBERS = st.one_of(
    st.sampled_from(["nan", "abc", "-0.0", "5e-324", "1e300", "-1e300"]),
    st.sampled_from(["0", "1", "-1", "0.5", "2", "5", "-10", "10"]),
    st.floats(-20.0, 20.0).map(repr),
)


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


@st.composite
def cli_argv(draw):
    """A construct/spectrum/verify/scan command line over every model and
    convention; --grid-points stays at most 401, so no draw is large."""
    command = draw(st.sampled_from(["construct", "spectrum", "verify", "scan"]))
    model = draw(st.sampled_from(["ex1", "ex2", "ho", "box"]))
    convention = draw(st.sampled_from(["normalized", "paper-ex1"]))
    flags = {"--grid-min": NUMBERS, "--grid-max": NUMBERS, "--n": _ints(-1, 8)}
    flags.update({"ex1": {"--alpha": NUMBERS},
                  "ex2": {"--a": NUMBERS, "--b": NUMBERS, "--c": NUMBERS}}.get(model, {}))
    if command == "scan":
        flags["--steps"] = _ints(-1, 40)
    else:
        flags.update({"--beta": NUMBERS, "--lambda": NUMBERS})
    if command in ("spectrum", "verify"):
        flags["--levels"] = _ints(-1, 8)
    if command == "spectrum":
        flags["--which"] = st.sampled_from(["original", "deformed"])
    # "--flag=value", so that a value starting with "-" is not read as a flag
    argv = [command, f"--model={model}", f"--convention={convention}",
            f"--grid-points={draw(_ints(-3, 401))}"]
    if command == "scan":
        argv += [f"--lambda-min={draw(NUMBERS)}", f"--lambda-max={draw(NUMBERS)}"]
    argv += [f"{name}={draw(values)}" for name, values in flags.items() if draw(st.booleans())]
    return argv


class TestFuzz:
    @given(argv=cli_argv())
    @settings(max_examples=200, deadline=None)
    def test_any_command_line_exits_cleanly(self, argv):
        # a result, a check failure or a usage error; never an exception (the
        # suite also turns every RuntimeWarning into one)
        with tempfile.TemporaryDirectory() as out:
            try:
                code = main(argv + ["--out", out])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2)


class TestImports:
    def test_cli_imports_only_numpy_beyond_the_stdlib(self):
        # scipy (a test oracle) and any compiler backend stay out of the package
        src = str(Path(pdmfactor.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import pdmfactor.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "print(sorted(new - set(sys.stdlib_module_names)))\n"
        )
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "['numpy', 'pdmfactor']"
