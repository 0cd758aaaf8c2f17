import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pdmfactor
import pdmfactor.cli
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

    def test_ex2_wider_window(self, tmp_path):
        code = run(["spectrum", "--model", "ex2", "--grid-min", "-20", "--grid-max", "20",
                    "--grid-points", "4001", "--levels", "3", "--out", str(tmp_path)])
        assert code == 0
        got = np.array(load_json(tmp_path / "spectrum.json")["eigenvalues"])
        assert np.max(np.abs(got - np.array([6.0, 13.0, 22.0]))) <= 1e-2

    def test_box_sanity(self, tmp_path):
        code = run(["spectrum", "--model", "box", "--levels", "2", "--out", str(tmp_path)])
        assert code == 0
        data = load_json(tmp_path / "spectrum.json")
        ref = np.array([np.pi**2, 4 * np.pi**2])
        assert np.max(np.abs(np.array(data["eigenvalues"]) - ref)) <= 1e-2


class TestVerify:
    def test_ex1_suite_passes(self, tmp_path):
        code = run(
            ["verify", "--model", "ex1", "--n", "1", "--beta", "0",
             "--lambda", "1", "--levels", "5", "--out", str(tmp_path)]
        )
        assert code == 0
        data = load_json(tmp_path / "verify.json")
        assert data["passed"] is True
        assert data["isospectrality"]["max_gap"] <= 1e-3

    def test_singular_lambda_fails(self, tmp_path, capsys):
        code = run(
            ["verify", "--model", "ex1", "--n", "1", "--beta", "0",
             "--lambda", "-0.5", "--out", str(tmp_path)]
        )
        assert code == 1
        assert "singular" in capsys.readouterr().err
        data = load_json(tmp_path / "verify.json")
        assert data["singular"] is True

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


class TestUsageErrors:
    def test_unknown_model_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--model", "nope", "--out", "/tmp"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2

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

    def test_auxiliary_route_echoes_the_convention(self, tmp_path):
        # the convention shifts only lambda, but result.json reports the flag
        out = tmp_path / "run"
        code = run(["construct", "--model", "ex2", "--beta", "1", "--convention",
                    "paper-ex1", "--out", str(out)])
        assert code == 0
        meta = load_json(out / "result.json")
        assert (meta["route"], meta["lambda"], meta["convention"]) == (
            "auxiliary", None, "paper-ex1")


class TestPackageErrors:
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


    @pytest.mark.parametrize("argv", [
        ["construct", "--model", "ho", "--n", "-1", "--lambda", "1"],
        ["verify", "--model", "ex1", "--n", "-1", "--lambda", "1"],
        ["spectrum", "--model", "ho", "--which", "deformed", "--n", "-1", "--beta", "0.5"],
        ["scan", "--model", "ho", "--n", "-1", "--lambda-min", "-1", "--lambda-max", "1"],
    ])
    def test_negative_level_exits_two(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            f"pdmfactor {argv[0]}: error: argument --n: expected a non-negative integer, "
            "got '-1'"
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

    @pytest.mark.parametrize("argv, start", [
        (["spectrum", "--model", "ex1", "--alpha", "1e300"], "error: alpha="),
        (["construct", "--model", "ex2", "--beta=-1e300"], "error: seed energy"),
    ])
    def test_huge_parameters_exit_one(self, tmp_path, capsys, argv, start):
        # the suite turns every RuntimeWarning into an error, so an exit code
        # also shows that none was raised on the way to the refusal
        out = tmp_path / "run"
        code = run(argv + ["--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(start) and "overflow" in err
        assert not out.exists()


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
