"""Per-op correctness checks against closed-form references.

``check(op, exit_code, out_dir, model)`` returns a list of problems (empty
when the op passed) and the op's worst error relative to its tolerance, or
None when the op has no closed-form number to compare.  The model object
comes from ``pdmfactor.models.catalog`` and supplies the closed-form energies
and the model tolerance.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from workloads import PAPER_SHIFT, WINDOW

# scan_lambda's default bisection tolerance for the window edges
SCAN_REFINE_TOL = 1e-4
# lambda samples this close to a window edge may be flagged either way
_EDGE_SLACK = 1e-9

_CSV_HEADER = b"x,value,singular\r\n"
_NONFINITE_UNFLAGGED = re.compile(rb"^[^,]*,-?(?:nan|inf),0\r?$", re.M)


def _load_json(out_dir: Path, name: str) -> dict:
    return json.loads((out_dir / name).read_text())


def _check_levels(found, expected, tol, what, problems) -> float:
    worst = 0.0
    if len(found) != len(expected):
        problems.append(f"{what}: {len(found)} levels, expected {len(expected)}")
        return float("inf")
    for k, (e_num, e_ref) in enumerate(zip(found, expected)):
        ratio = abs(e_num - e_ref) / tol
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            problems.append(f"{what} level {k}: {e_num!r} vs closed form {e_ref!r} (tol {tol:g})")
    return worst


def _deformed_levels(model, n, beta, levels):
    """Closed-form spectrum of V~_n-: {E_k - E_n + beta}, level n deleted when beta != 0."""
    e_n = model.energy(n)
    ks = (k for k in range(levels + 1) if beta == 0.0 or k != n)
    return [model.energy(k) - e_n + beta for k in ks][:levels]


def _check_spectrum(op, out_dir, model, problems):
    exp = op["expect"]
    payload = _load_json(out_dir, "spectrum.json")
    levels = exp["levels"]
    if exp["which"] == "original":
        ref = [model.energy(k) for k in range(levels)]
    else:
        ref = _deformed_levels(model, exp["n"], exp["beta"], levels)
    worst = _check_levels(payload["eigenvalues"], ref, model.spectrum_tolerance,
                          f"{exp['which']} spectrum", problems)
    if payload["node_counts"] != list(range(levels)):
        problems.append(f"node counts {payload['node_counts']}, expected 0..{levels - 1}")
    for j in range(levels):
        _check_csv(out_dir / f"eigenstate_{j}.csv", exp["n_points"], problems)
    return worst


def _check_verify(op, out_dir, model, problems):
    exp = op["expect"]
    payload = _load_json(out_dir, "verify.json")
    iso = payload.get("isospectrality", {})
    if payload.get("passed") is not True or iso.get("node_match") is not True:
        problems.append("verify did not pass")
    ref = _deformed_levels(model, exp["n"], 0.0, exp["levels"])
    pairs = iso.get("pairs", [])
    tol = model.spectrum_tolerance
    worst = _check_levels([a for a, _, _ in pairs], ref, tol, "original", problems)
    return max(worst, _check_levels([b for _, b, _ in pairs], ref, tol, "deformed", problems))


def _check_csv(path: Path, n_points: int, problems) -> None:
    """Header plus N rows; every unflagged value finite."""
    if not path.is_file():
        problems.append(f"missing {path.name}")
        return
    data = path.read_bytes()
    if not data.startswith(_CSV_HEADER):
        problems.append(f"{path.name}: bad header")
    rows = data.count(b"\n") - 1
    if rows != n_points:
        problems.append(f"{path.name}: {rows} rows, expected {n_points}")
    if _NONFINITE_UNFLAGGED.search(data):
        problems.append(f"{path.name}: non-finite value without the singular flag")


def _check_construct(op, out_dir, model, problems):
    exp = op["expect"]
    payload = _load_json(out_dir, "result.json")
    if payload["route"] != exp["route"]:
        problems.append(f"route {payload['route']!r}, expected {exp['route']!r}")
    if payload["singular"] is not exp["singular"]:
        problems.append(f"singular {payload['singular']}, expected {exp['singular']}")
    if payload["spectrum_shift"] != exp["beta"]:
        problems.append(f"spectrum_shift {payload['spectrum_shift']}, expected {exp['beta']}")
    names = list(payload["files"].values())
    states = payload["states"]
    if not exp["singular"]:
        n = exp["n"]
        wanted = {f"psi_tilde_{k}" for k in range(max(2, n + 1) + 1) if k != n}
        wanted.add("zero_mode")
        if set(states) != wanted:
            problems.append(f"states {sorted(states)}, expected {sorted(wanted)}")
        names += [v for v in states.values() if v.endswith(".csv")]
    elif states:
        problems.append("a singular construction exported states")
    for name in names:
        _check_csv(out_dir / name, exp["n_points"], problems)
    return None


def _in_window(lam_eff: float) -> bool | None:
    lo, hi = WINDOW
    if min(abs(lam_eff - lo), abs(lam_eff - hi)) <= _EDGE_SLACK:
        return None
    return lo <= lam_eff <= hi


def _check_scan(op, out_dir, model, problems):
    exp = op["expect"]
    payload = _load_json(out_dir, "scan.json")
    shift = PAPER_SHIFT if exp["convention"] == "paper-ex1" else 0.0
    lambdas = payload["lambda_values"]
    flags = payload["singular_flags"]
    if len(lambdas) != exp["steps"] or len(flags) != exp["steps"]:
        problems.append(f"{len(lambdas)} lambda values, expected {exp['steps']}")
    wrong = [lam for lam, flag in zip(lambdas, flags)
             if _in_window(lam - shift) not in (None, flag)]
    if wrong:
        problems.append(f"{len(wrong)} singular flags disagree with the closed form")
    edges = [WINDOW[0] + shift, WINDOW[1] + shift]
    found = payload["boundaries"]
    if len(found) != 2:
        problems.append(f"{len(found)} window boundaries, expected 2")
        return float("inf")
    errs = [abs(b - e) for b, e in zip(found, edges)]
    crit = payload["critical_lambda"]
    errs.append(abs(crit - edges[1]) if crit is not None else float("inf"))
    worst = max(errs) / SCAN_REFINE_TOL
    if not worst <= 1.0:
        problems.append(f"window edges {found} / critical {crit} vs {edges} "
                        f"(tol {SCAN_REFINE_TOL:g})")
    return worst


_CHECKS = {
    "spectrum": _check_spectrum,
    "verify": _check_verify,
    "construct": _check_construct,
    "scan": _check_scan,
}


def check(op: dict, exit_code, out_dir: Path, model) -> tuple[list[str], float | None]:
    """Problems found in one op's output, and its worst error / tolerance."""
    if op["expect"].get("refusal_ok") and exit_code in (1, 2):
        return [], None
    if exit_code != 0:
        return [f"exit code {exit_code!r}"], None
    problems: list[str] = []
    try:
        worst = _CHECKS[op["expect"]["command"]](op, out_dir, model, problems)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], None
    return problems, worst


def output_digest(out_dir: Path) -> str:
    """sha256 over every output file, ignoring the JSON ``timestamp`` key."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            payload = json.loads(data)
            payload.pop("timestamp", None)
            data = json.dumps(payload, sort_keys=True).encode()
        h.update(path.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()
