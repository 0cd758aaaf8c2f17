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
from pdmfactor.errors import SolverError
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


class TestPackageErrors:
    def test_solver_error_exits_one_with_one_line(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise SolverError("inverse iteration residual above cap")

        monkeypatch.setattr(pdmfactor.cli, "solve_spectrum", refuse)
        code = run(["spectrum", "--model", "ho", "--levels", "2", "--out", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == "error: inverse iteration residual above cap\n"

    def test_coarse_grid_refuses_levels_the_fine_grid_holds(self, tmp_path, capsys):
        # 150 <= 2001 // 10 on the given grid, but 150 > 1001 // 10 on the
        # every-second-node subgrid that the extrapolation solves on too
        code = run(["spectrum", "--model", "ho", "--levels", "150", "--grid-points", "2001",
                    "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: requested 150 eigenpairs")
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
