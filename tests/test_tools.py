"""Smoke tests of tools/compare_outputs.py on the small benchmark decks."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


def compare(tree_a, tree_b, *workloads):
    flags = [arg for workload in workloads for arg in ("--workload", workload)]
    return subprocess.run(
        [sys.executable, str(TOOL), str(tree_a), str(tree_b), *flags, "--tiny"],
        capture_output=True, text=True, timeout=300,
    )


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("workload", ["solve", "construct", "scan"])
def test_tree_matches_itself(workload):
    out = compare(ROOT, ROOT, workload)
    assert out.returncode == 0, out.stdout + out.stderr
    assert out.stdout.splitlines()[-1].endswith("ops identical")


def test_changed_stdout_is_reported(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "pdmfactor" / "cli.py"
    text = cli.read_text()
    assert 'f"scanned ' in text
    cli.write_text(text.replace('f"scanned ', 'f"Scanned '))
    out = compare(ROOT, tmp_path, "scan")
    assert out.returncode == 1
    assert "stdout differ" in out.stdout
    assert "scan.json" not in out.stdout


def test_several_decks_in_one_run(tmp_path):
    # one summary line per deck; a difference in one deck fails the run
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "pdmfactor" / "cli.py"
    cli.write_text(cli.read_text().replace('f"scanned ', 'f"Scanned '))
    out = compare(ROOT, tmp_path, "construct", "scan")
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert lines[0] == "construct tiny: 2 of 2 ops identical"
    assert "stdout differ" in lines[1]
    assert lines[2:] == ["scan tiny: 0 of 1 ops identical"]


def test_changed_json_key_is_named(tmp_path):
    # each differing key of a JSON file is named with both values
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "pdmfactor" / "cli.py"
    text = cli.read_text()
    assert '{"n": args.n, "convention"' in text
    cli.write_text(text.replace('{"n": args.n, "convention"', '{"n": args.n + 1, "convention"'))
    out = compare(ROOT, tmp_path, "scan")
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    assert lines[0].endswith(": scan.json differ")
    assert lines[1:] == ["  scan.json: max |dvalue| 1.00e+00 at n", "  scan.json: n 1 != 2",
                         "scan tiny: 0 of 1 ops identical"]


def test_json_details_cap_and_nan():
    # equal NaNs are no difference; past five keys a file gets a count
    tool = load_tool()
    a = {"k": list(range(7)), "nan": float("nan"), "only_a": 1}
    b = {"k": [v + 1 for v in range(7)], "nan": float("nan")}
    files = [{"files": {"r.json": json.dumps(d).encode(), "x.csv": bytes([i])}}
             for i, d in enumerate((a, b))]
    assert tool.json_details(*files) == [
        "  r.json: max |dvalue| 1.00e+00 at k[0]",
        "  r.json: k[0] 0 != 1", "  r.json: k[1] 1 != 2", "  r.json: k[2] 2 != 3",
        "  r.json: k[3] 3 != 4", "  r.json: k[4] 4 != 5", "  r.json: and 3 more keys",
    ]


def test_json_details_largest_number_change():
    # the largest |difference| among numbers both trees wrote, with its key
    # path; a flipped bool, a NaN against a number and a missing key are
    # no value difference
    tool = load_tool()
    a = {"levels": [{"eigenvalue": 1.0, "residual": 2e-8}, {"eigenvalue": 3.0, "residual": 1e-8}],
         "passed": True, "gap": float("nan"), "only_a": 1e3}
    b = {"levels": [{"eigenvalue": 1.0 + 1e-9, "residual": 2.2e-8},
                    {"eigenvalue": 3.0 - 4e-9, "residual": 1e-8}],
         "passed": False, "gap": 5.0}
    files = [{"files": {"r.json": json.dumps(d).encode()}} for d in (a, b)]
    lines = tool.json_details(*files)
    assert lines[0] == "  r.json: max |dvalue| 4.00e-09 at levels[1].eigenvalue"
    assert lines[1:] == [
        "  r.json: gap nan != 5.0", "  r.json: levels[0].eigenvalue 1.0 != 1.000000001",
        "  r.json: levels[0].residual 2e-08 != 2.2e-08",
        "  r.json: levels[1].eigenvalue 3.0 != 2.999999996", "  r.json: only_a (in one tree only)",
        "  r.json: and 1 more keys",
    ]


def test_changed_csv_values_are_measured(tmp_path):
    # one value per CSV file doubled: one row differs in each, and its
    # x and flag do not
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    grids = tmp_path / "src" / "pdmfactor" / "grids.py"
    grids.write_text(grids.read_text() + (
        "\n\n_write_csv = write_csv\n\n\n"
        "def write_csv(f, fh):\n"
        "    v = f.values.copy()\n"
        "    v[3] *= 2.0\n"
        "    _write_csv(f.with_values(v), fh)\n"
    ))
    out = compare(ROOT, tmp_path, "construct")
    assert out.returncode == 1
    lines = out.stdout.splitlines()
    details = [line for line in lines if line.startswith("  ")]
    assert "  mass.csv: 1 of 401 rows differ, max |dvalue|/max|value| 5.00e-01 at row 3" in details
    assert all(".csv: 1 of 401 rows differ, max |dvalue|/max|value| " in line
               and line.endswith(" at row 3") for line in details)
    assert lines[-1] == "construct tiny: 0 of 2 ops identical"


def test_csv_details_flags_and_cap():
    # rows whose flag or x differs are listed, at most five per file; a NaN
    # against a number counts as a differing row but not as a value change
    tool = load_tool()
    header = "x,value,singular\r\n"
    rows_a = [f"{i},{float(i)},0\r\n" for i in range(10)]
    rows_b = [f"{i},nan,1\r\n" if i < 7 else f"{i},{i * 1.5},0\r\n" for i in range(10)]
    files = [{"files": {"f.csv": (header + "".join(rows)).encode(),
                        "g.csv": (header + "".join(rows[:n])).encode()}}
             for rows, n in ((rows_a, 2), (rows_b, 3))]
    assert tool.csv_details(*files) == [
        "  f.csv: 10 of 10 rows differ, max |dvalue|/max|value| 3.33e-01 at row 9",
        "  f.csv: row 0 0,0.0,0 != 0,nan,1", "  f.csv: row 1 1,1.0,0 != 1,nan,1",
        "  f.csv: row 2 2,2.0,0 != 2,nan,1", "  f.csv: row 3 3,3.0,0 != 3,nan,1",
        "  f.csv: row 4 4,4.0,0 != 4,nan,1", "  f.csv: and 2 more rows with x or flag differences",
        "  g.csv: 2 != 3 rows",
    ]
