"""Command-line front end.

Subcommands
-----------
construct   build one factorization and export its profiles as CSV + JSON
spectrum    solve the original or deformed potential and export the report
verify      run the isospectrality / node checks; exit 1 on failure
scan        sweep lambda and bracket the singularity boundary

Exit codes: 0 success, 1 check failure, 2 usage error (nan or inf in a
number flag is one, and so is a negative --n); a package error exits with
its class's exit_code, never with a traceback.
Every command builds all its outputs before the first write, writes each file
once through the descriptor of a temp file in the target directory, and
renames the temps only after every write has succeeded: a failed run leaves
no output.  Only this module creates, writes, renames or removes a file;
grids.write_csv formats into the file it is handed.  Numeric output is full
precision; the only non-deterministic JSON field is the isolated "timestamp" key.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, NonNormalizableError, PdmError
from .factor import LAMBDA_SHIFT, factorize, map_eigenstate, scan_lambda
from .grids import Grid, SampledFunction, write_csv
from .models import MODELS, catalog
from .spectra import solve_spectrum
from .verify import check_isospectral, riccati_residual

CHECK_FAILURE = 1


def _atomic_write(out: Path, outputs: dict) -> None:
    """Write every output to a temp file in out, through the descriptor
    mkstemp returns, then rename them all: a report dict as JSON (numpy values
    through tolist()), a SampledFunction as CSV.  A failed write renames
    nothing, unlinks every temp and raises ConfigurationError."""
    temps = {}  # target path -> its temp file
    try:
        for name, content in outputs.items():
            path = out / name
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, temps[path] = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
            with open(fd, "wb") as fh:
                if isinstance(content, dict):
                    fh.write(json.dumps(content, indent=2, sort_keys=True,
                                        default=lambda v: v.tolist()).encode())
                else:
                    write_csv(content, fh)
        for path, tmp in list(temps.items()):
            os.replace(tmp, path)
            del temps[path]
    except OSError as exc:
        # --out names a file, or a path through one, or no permission
        raise ConfigurationError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        for tmp in temps.values():
            os.unlink(tmp)


def _grid_from_args(args, model) -> Grid:
    base = model.recommended_grid
    x_min = base.x_min if args.grid_min is None else args.grid_min
    x_max = base.x_max if args.grid_max is None else args.grid_max
    n = base.n_points if args.grid_points is None else args.grid_points
    grid = Grid(x_min, x_max, n)
    # a count too large to allocate, or a window so wide that the model's
    # samples overflow, is a usage error, refused before any stage computes
    try:
        x = grid.points()
    except (MemoryError, ValueError):
        raise ConfigurationError(f"--grid-points {n} is too large to allocate") from None
    try:
        with np.errstate(all="ignore", over="raise"):
            mass, potential = model.mass(x), model.potential(x)
            model.mass_d1(x), model.mass_d2(x)
        overflows = not np.all((mass > 0.0) & (mass < np.inf) & np.isfinite(potential))
    except FloatingPointError:
        overflows = True
    if overflows:
        raise ConfigurationError(
            f"model {args.model} overflows on the grid [{x_min}, {x_max}]: its mass, the"
            " mass's first two derivatives and its potential must be finite, and its mass"
            " positive, at every node"
        )
    return grid


def _factorize(args, model, grid, payload):
    """Record the deformation flags as given in the report, then factorize."""
    payload.update({"n": args.n, "beta": args.beta, "lambda": args.lambda_,
                    "convention": args.convention})
    return factorize(model, args.n, beta=args.beta, lam=args.lambda_,
                     convention=args.convention, grid=grid)


def cmd_construct(args, model, grid, payload):
    fac = _factorize(args, model, grid, payload)
    profiles = {
        "W_n": fac.W_n.values,
        "f_n": fac.f_n.values,
        "V_n_minus": fac.V_n_minus,
        "V_n_plus": fac.V_n_plus,
        "V_tilde_minus": fac.V_tilde_minus,
        "mass": SampledFunction(grid, model.mass(grid.points())),
    }
    files = {name: f"{name}.csv" for name in profiles}
    outputs = {files[name]: profile for name, profile in profiles.items()}
    states = {}
    if not fac.f_n.is_singular:
        # level n maps to the zero mode annihilated by A~_n+
        for k in range(max(2, args.n + 1) + 1):
            key = "zero_mode" if k == args.n else f"psi_tilde_{k}"
            name = "psi_tilde_zero_mode.csv" if k == args.n else f"{key}.csv"
            try:
                outputs[name] = map_eigenstate(k, fac)
            except NonNormalizableError:
                states[key] = "non-normalizable"
            else:
                states[key] = name

    payload.update(
        {
            "lambda": fac.f_n.lam,  # in the normalized convention
            "route": fac.f_n.route,
            "singular": fac.f_n.is_singular,
            "spectrum_shift": fac.spectrum_shift,
            "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n_points": grid.n_points},
            "files": files,
            "states": states,
        }
    )
    outputs["result.json"] = payload
    status = "singular" if fac.f_n.is_singular else "nonsingular"
    line = (
        f"constructed {args.model} n={args.n} beta={args.beta} "
        f"lambda={fac.f_n.lam} route={fac.f_n.route}: {status}, shift={fac.spectrum_shift}"
    )
    return 0, outputs, line, None


def cmd_spectrum(args, model, grid, payload):
    if args.which == "original":
        # the original spectrum has no deformation for these flags to select
        if args.lambda_ is not None or args.beta != 0.0 or args.convention != "normalized":
            raise ConfigurationError("--which original takes no --lambda, no nonzero --beta"
                                     " and no --convention other than normalized")
        potential = model.potential_samples(grid)
    else:
        fac = _factorize(args, model, grid, payload)
        if fac.f_n.is_singular:
            return CHECK_FAILURE, {}, None, "deformed potential is singular for these parameters"
        potential = fac.V_tilde_minus
    report = solve_spectrum(model, potential, args.levels)
    payload.update(which=args.which, levels=args.levels, eigenvalues=report.eigenvalues,
                   node_counts=report.node_counts, residuals=report.residuals)
    outputs = {f"eigenstate_{j}.csv": state for j, state in enumerate(report.eigenstates)}
    outputs["spectrum.json"] = payload
    evals = ", ".join(f"{e:.10g}" for e in report.eigenvalues)
    return 0, outputs, f"{args.which} spectrum ({args.levels} levels): {evals}", None


def cmd_verify(args, model, grid, payload):
    outputs = {"verify.json": payload}
    fac = _factorize(args, model, grid, payload)
    if fac.f_n.is_singular:
        payload.update(singular=True, passed=False)
        return CHECK_FAILURE, outputs, None, (
            "FAIL: deformation function is singular for these parameters "
            f"(lambda={fac.f_n.lam}, convention={args.convention})"
        )
    report = check_isospectral(fac, args.levels)
    ric = riccati_residual(fac)
    payload["singular"] = False
    payload["isospectrality"] = vars(report)
    payload["riccati_residual"] = ric
    payload["passed"] = report.passed
    deformed = ", ".join(f"{b:.6g}" for _, b, _ in report.pairs)
    line = (
        f"isospectrality: max_gap={report.max_gap:.3e} (tol {report.tolerance:g}), "
        f"nodes {'match' if report.node_match else 'MISMATCH'}; "
        f"riccati={ric:.3e}; deformed spectrum: {deformed}"
    )
    if not report.passed:
        return CHECK_FAILURE, outputs, line, "FAIL: isospectrality check failed"
    return 0, outputs, line, None


def cmd_scan(args, model, grid, payload):
    if args.steps < 2 or not args.lambda_max > args.lambda_min:
        raise ConfigurationError("scan needs lambda-max > lambda-min and at least 2 steps")
    if not math.isfinite(args.lambda_max - args.lambda_min):
        raise ConfigurationError("lambda-max - lambda-min overflows")
    try:
        lambdas = np.linspace(args.lambda_min, args.lambda_max, args.steps)
    except (MemoryError, ValueError):
        raise ConfigurationError(f"--steps {args.steps} is too large to allocate") from None
    report = scan_lambda(model, args.n, lambdas, convention=args.convention, grid=grid)
    payload.update({"n": args.n, "convention": args.convention})
    payload.update(vars(report))
    crit = "none" if report.critical_lambda is None else f"{report.critical_lambda:.6f}"
    n_sing = sum(report.singular_flags)
    line = f"scanned {args.steps} values: {n_sing} singular, critical lambda = {crit}"
    return 0, {"scan.json": payload}, line, None


def _finite_float(text: str) -> float:
    """argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _level(text: str) -> int:
    """argparse type of every --n flag: a negative level is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


# argparse's own pattern takes only "-2" and "-2.0" for a value, not "-2e0"
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads every negative float literal, "-2e0" and
    "-inf" included, as a flag's value; its subparsers are _Parsers too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdmfactor",
        description=(
            "Construct nonsingular isospectral partners of position-dependent-mass "
            "potentials by excited-state factorization, and verify them numerically."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, takes_beta_lambda=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--model", required=True, choices=list(MODELS))
        # a parameter flag reaches catalog only when given, so the model
        # supplies its defaults and refuses another model's parameter
        for model, model_type in MODELS.items():
            for f in dataclasses.fields(model_type):
                p.add_argument(f"--{f.name}", type=_finite_float, default=argparse.SUPPRESS,
                               help=f"{model} parameter {f.name}")
        p.add_argument("--n", type=_level, default=1, help="factorization level")
        if takes_beta_lambda:
            p.add_argument("--beta", type=_finite_float, default=0.0, help="spectral shift")
            p.add_argument("--lambda", dest="lambda_", type=_finite_float, default=None)
        p.add_argument(
            "--convention",
            choices=list(LAMBDA_SHIFT),
            default="normalized",
            help="lambda parametrization of the beta = 0 route",
        )
        p.add_argument("--grid-min", type=_finite_float, default=None)
        p.add_argument("--grid-max", type=_finite_float, default=None)
        p.add_argument("--grid-points", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")
        return p

    add_command("construct", "build a factorization and export its profiles")

    p = add_command("spectrum", "solve the original or deformed potential")
    p.add_argument("--which", choices=["original", "deformed"], default="original")
    p.add_argument("--levels", type=int, default=4)

    p = add_command("verify", "check isospectrality and node structure")
    p.add_argument("--levels", type=int, default=5)

    p = add_command("scan", "sweep lambda and bracket the singular window",
                    takes_beta_lambda=False)
    p.add_argument("--lambda-min", type=_finite_float, required=True)
    p.add_argument("--lambda-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, default=101)

    return parser


# built once per process: every parse_args call returns a new Namespace, so
# no flag of one main call reaches the next
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    # looked up by name at call time, so the parser binds no function
    command = {"construct": cmd_construct, "spectrum": cmd_spectrum,
               "verify": cmd_verify, "scan": cmd_scan}[args.command]
    try:
        # a parameter flag that was not given is no attribute of args
        given = {f.name: getattr(args, f.name) for model_type in MODELS.values()
                 for f in dataclasses.fields(model_type) if hasattr(args, f.name)}
        model = catalog(args.model, **given)
        grid = _grid_from_args(args, model)
        payload = {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "model": args.model,
            "parameters": dataclasses.asdict(model),
        }
        # a command only computes and returns (exit code, {file name: report
        # dict or SampledFunction}, stdout line, stderr line); every output is
        # built before the first write, so a failure leaves no partial directory
        code, outputs, stdout, stderr = command(args, model, grid, payload)
        _atomic_write(Path(args.out), outputs)
        if stdout is not None:
            print(stdout)
        if stderr is not None:
            print(stderr, file=sys.stderr)
        return code
    except PdmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
