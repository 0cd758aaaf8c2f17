"""Compare what two pdmfactor source trees produce on benchmark decks.

    python3 tools/compare_outputs.py TREE_A TREE_B --workload scan --seed 1
    python3 tools/compare_outputs.py TREE_A TREE_B --workload solve --tiny
    python3 tools/compare_outputs.py TREE_A TREE_B \
        --workload solve --workload construct --workload scan --seed 1 --seed 7

Each tree is a checkout with a ``src/pdmfactor`` package.  ``--workload``
and ``--seed`` may each be given several times; every workload runs with
every seed, one deck each.  A deck is the seeded op list of
``perfbench/workloads.py`` in the checkout that holds this script
(``--tiny`` takes the small self-test deck instead), so both trees run the
same argv lists.  Every op runs ``pdmfactor.cli.main`` of each tree in a
fresh interpreter, in its own empty working directory, with ``--out out``.
The two runs must agree on the exit code, on stdout, on stderr and on every
output file byte for byte; in JSON files the value of the ``timestamp`` key
is ignored.  Each op that differs is printed with what differs.  For a
JSON file follow the largest |difference| of a number that both trees
wrote, with its key path, and up to five differing key paths, each with
both values, so a change that expects one value to move can show that
nothing else did.  For a CSV file follow how many rows differ, the largest
|difference| of a value relative to the file's largest |value|, with its
row, and up to five rows whose x or singular flag differs.  Either largest
difference lets a change that expects values to move by rounding show by
how much.  One summary line per deck follows, and the
exit code is 1 when there is any difference, 0 otherwise.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_RUN_OP = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from pdmfactor.cli import main\n"
    "sys.exit(main(sys.argv[2:]))\n"
)
_TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
_KEYS_PER_FILE = 5
_MISSING = object()


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_op(tree: Path, argv: list[str], workdir: Path) -> dict:
    """Exit code, stdout, stderr and output files of one op on one tree."""
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_OP, str(tree / "src"), *argv, "--out", "out"],
        cwd=workdir, capture_output=True, timeout=600,
    )
    files = {}
    out = workdir / "out"
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            data = path.read_bytes()
            if path.suffix == ".json":
                data = _TIMESTAMP.sub(b'"timestamp": null', data)
            files[path.relative_to(out).as_posix()] = data
    return {"exit code": proc.returncode, "stdout": proc.stdout,
            "stderr": proc.stderr, "files": files}


def differences(a: dict, b: dict) -> list[str]:
    """What differs between the results of one op on the two trees."""
    found = [key for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if name not in a["files"] or name not in b["files"]:
            found.append(f"{name} (written by one tree only)")
        elif a["files"][name] != b["files"][name]:
            found.append(name)
    return found


def key_differences(a, b, path: str = "") -> list[tuple]:
    """(key path, value a, value b) where two parsed JSON values differ,
    with _MISSING for a key that one of them lacks."""
    if isinstance(a, dict) and isinstance(b, dict):
        found = []
        for key in sorted(a.keys() | b.keys()):
            sub = f"{path}.{key}" if path else key
            found += key_differences(a.get(key, _MISSING), b.get(key, _MISSING), sub)
        return found
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for i, (u, v) in enumerate(zip(a, b))
                for d in key_differences(u, v, f"{path}[{i}]")]
    # compared as text, so that NaN equals NaN
    if _MISSING in (a, b) or json.dumps(a) != json.dumps(b):
        return [(path, a, b)]
    return []


def _number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def json_details(a: dict, b: dict) -> list[str]:
    """For each JSON file that both trees wrote and that differs: one line
    with the largest |difference| of a number present in both, with its key
    path, then one line per differing key path with both values, at most
    _KEYS_PER_FILE per file."""
    lines = []
    for name in sorted(a["files"].keys() & b["files"].keys()):
        if not name.endswith(".json") or a["files"][name] == b["files"][name]:
            continue
        found = key_differences(json.loads(a["files"][name]), json.loads(b["files"][name]))
        # a NaN or an infinity on either side is no value difference
        deltas = [(abs(u - v), path) for path, u, v in found
                  if _number(u) and _number(v) and math.isfinite(u - v)]
        if deltas:
            delta, path = max(deltas, key=lambda d: d[0])
            lines.append(f"  {name}: max |dvalue| {delta:.2e} at {path}")
        lines += [f"  {name}: {path} (in one tree only)" if _MISSING in (u, v)
                  else f"  {name}: {path} {u!r} != {v!r}"
                  for path, u, v in found[:_KEYS_PER_FILE]]
        if len(found) > _KEYS_PER_FILE:
            lines.append(f"  {name}: and {len(found) - _KEYS_PER_FILE} more keys")
    return lines


def csv_details(a: dict, b: dict) -> list[str]:
    """For each CSV file that both trees wrote and that differs: one line
    with the number of differing rows and the largest |value difference|
    over the file's max |value|, then one line per row whose x or flag
    differs, at most _KEYS_PER_FILE per file."""
    lines = []
    for name in sorted(a["files"].keys() & b["files"].keys()):
        if not name.endswith(".csv") or a["files"][name] == b["files"][name]:
            continue
        # the x, value and flag fields of each row after the header
        rows_a, rows_b = ([row.split(",") for row in side["files"][name].decode().splitlines()[1:]]
                          for side in (a, b))
        if len(rows_a) != len(rows_b):
            lines.append(f"  {name}: {len(rows_a)} != {len(rows_b)} rows")
            continue
        differ = [i for i, (u, v) in enumerate(zip(rows_a, rows_b)) if u != v]
        summary = f"  {name}: {len(differ)} of {len(rows_a)} rows differ"
        va, vb = ([float(r[1]) for r in rows] for rows in (rows_a, rows_b))
        scale = max((abs(v) for v in va + vb if math.isfinite(v)), default=0.0)
        # a NaN on either side is a flag difference, not a value difference
        deltas = [(abs(va[i] - vb[i]), i) for i in differ if math.isfinite(va[i] - vb[i])]
        if deltas and scale > 0.0:
            delta, row = max(deltas)
            summary += f", max |dvalue|/max|value| {delta / scale:.2e} at row {row}"
        lines.append(summary)
        moved = [i for i in differ if rows_a[i][0::2] != rows_b[i][0::2]]
        lines += [f"  {name}: row {i} {','.join(rows_a[i])} != {','.join(rows_b[i])}"
                  for i in moved[:_KEYS_PER_FILE]]
        if len(moved) > _KEYS_PER_FILE:
            lines.append(f"  {name}: and {len(moved) - _KEYS_PER_FILE} more rows with x or"
                         " flag differences")
    return lines


def compare_deck(trees: list[Path], ops: list[dict], tmp: Path) -> int:
    """Run one deck on both trees; print each op that differs and return
    how many do."""
    failed = 0
    for i, op in enumerate(ops):
        results = []
        for t, tree in enumerate(trees):
            workdir = tmp / f"op{i}_{t}"
            workdir.mkdir()
            results.append(run_op(tree, op["argv"], workdir))
        diff = differences(*results)
        if diff:
            failed += 1
            print(f"op {i} ({' '.join(op['argv'])}): {', '.join(diff)} differ")
            for line in json_details(*results) + csv_details(*results):
                print(line)
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("tree_a", type=Path)
    p.add_argument("tree_b", type=Path)
    workloads = _load_workloads()
    p.add_argument("--workload", required=True, action="append",
                   choices=workloads.WORKLOADS, help="a benchmark workload (repeatable)")
    deck = p.add_mutually_exclusive_group(required=True)
    deck.add_argument("--seed", type=int, action="append",
                      help="seed of the benchmark deck (repeatable)")
    deck.add_argument("--tiny", action="store_true", help="the small self-test deck")
    args = p.parse_args(argv)
    trees = [t.resolve() for t in (args.tree_a, args.tree_b)]
    for tree in trees:
        if not (tree / "src" / "pdmfactor").is_dir():
            p.error(f"{tree} has no src/pdmfactor")

    any_failed = False
    for workload in args.workload:
        for seed in [None] if args.tiny else args.seed:
            ops = (workloads.tiny_deck(workload) if args.tiny
                   else workloads.make_deck(workload, seed))
            with tempfile.TemporaryDirectory(prefix="compare_outputs_") as tmp:
                failed = compare_deck(trees, ops, Path(tmp))
            any_failed |= failed > 0
            name = f"{workload} tiny" if args.tiny else f"{workload} seed {seed}"
            print(f"{name}: {len(ops) - failed} of {len(ops)} ops identical")
    return 1 if any_failed else 0

if __name__ == "__main__":
    sys.exit(main())
