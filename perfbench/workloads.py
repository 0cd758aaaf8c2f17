"""Seeded operation lists for the three benchmark workloads.

Each workload is a *deck*: a fixed list of operation shapes (command, model,
route, grid size N, level count, scan steps), which are what the cost of an
operation depends on.  The seed draws only parameters that leave the cost
about the same (lambda, on the side of the singular window the shape asks
for; beta in {0.5, 1}; the level n of deformed spectra; the ends of scan
ranges) and the order of the deck.  Two seeds therefore run the same amount
of work in a different order on different inputs, so their timings compare.
Deck sizes are odd, so the median op time is a sample, not a gap between two
shapes.

An op is a dict: ``argv`` is all the program receives (``--out`` is added by
the runner); ``expect`` holds what the oracle needs to check the output.
"""

from __future__ import annotations

import hashlib
import json
import random

SOLVE, CONSTRUCT, SCAN = "solve", "construct", "scan"
WORKLOADS = (SOLVE, CONSTRUCT, SCAN)

WHY = {
    SOLVE: "spectrum and verify ops: the eigensolver does nearly all the work",
    CONSTRUCT: "construct ops: no eigensolver, CSV export and the factorization dominate",
    SCAN: "lambda scans: many small bernoulli_f calls and one JSON write, no solver, no CSV",
}

# Grid window for ex1 at N = 2001: the default [-250, 250] window is too
# coarse there to meet the model tolerance at the higher levels.
_EX1_WINDOW = {2001: (-100.0, 100.0)}

# Closed-form singular window of the beta = 0 route, in the normalized lambda
# convention; the paper-ex1 convention is shifted by +1/2.
WINDOW = (-1.0, 0.0)
PAPER_SHIFT = 0.5


def _grid_args(model: str, n_points: int | None) -> list[str]:
    if n_points is None:
        return []
    args = ["--grid-points", str(n_points)]
    if model == "ex1" and n_points in _EX1_WINDOW:
        lo, hi = _EX1_WINDOW[n_points]
        args += ["--grid-min", repr(lo), "--grid-max", repr(hi)]
    return args


def _nonsingular_lambda(rng: random.Random) -> float:
    """A normalized lambda well outside [-1, 0], on either side."""
    if rng.random() < 0.5:
        return round(rng.uniform(0.2, 2.0), 6)
    return round(rng.uniform(-3.0, -1.2), 6)


def _singular_lambda(rng: random.Random) -> float:
    return round(rng.uniform(-0.9, -0.1), 6)


def _op(argv: list[str], **expect) -> dict:
    return {"argv": argv, "expect": expect}


def _spectrum(model, n_points, levels, rng, which="original", n=None, beta=None):
    argv = ["spectrum", "--model", model, "--levels", str(levels), "--which", which]
    if which == "deformed":
        argv += ["--n", str(n), "--beta", repr(beta)]
        if beta == 0.0:
            argv += ["--lambda", repr(_nonsingular_lambda(rng))]
    argv += _grid_args(model, n_points)
    return _op(argv, command="spectrum", model=model, which=which, levels=levels,
               n=n, beta=beta, n_points=n_points)


def _verify(model, n_points, levels, n, rng):
    lam = _nonsingular_lambda(rng)
    argv = ["verify", "--model", model, "--n", str(n), "--lambda", repr(lam),
            "--levels", str(levels)] + _grid_args(model, n_points)
    return _op(argv, command="verify", model=model, levels=levels, n=n, beta=0.0,
               n_points=n_points)


def _beta(rng: random.Random) -> float:
    return rng.choice((0.5, 1.0))


def _level(rng: random.Random) -> int:
    return rng.choice((1, 2))


def _solve_deck(rng: random.Random) -> list[dict]:
    return [
        _spectrum("ex1", 2001, 5, rng),
        _spectrum("ex1", 2001, 3, rng),
        _spectrum("ex1", 8001, 4, rng),
        _spectrum("ex2", 2001, 6, rng),
        _spectrum("ex2", 2001, 4, rng),
        _spectrum("ex2", 4001, 3, rng),
        _spectrum("ho", 2001, 6, rng),
        _spectrum("ho", 4001, 4, rng),
        _spectrum("box", 2001, 5, rng),
        _spectrum("ex2", 2001, 3, rng, "deformed", _level(rng), _beta(rng)),
        _spectrum("ex2", 2001, 5, rng, "deformed", _level(rng), _beta(rng)),
        _spectrum("ex2", 2001, 4, rng, "deformed", _level(rng), _beta(rng)),
        _spectrum("ex1", 2001, 4, rng, "deformed", _level(rng), 0.0),
        _spectrum("ho", 2001, 5, rng, "deformed", _level(rng), 0.0),
        _spectrum("ex2", 2001, 3, rng, "deformed", _level(rng), 0.0),
        _verify("ex1", 2001, 3, 1, rng),
        _verify("ex1", 2001, 4, 2, rng),
        _verify("ex2", 2001, 4, 1, rng),
        _verify("ex2", 2001, 5, 2, rng),
        _verify("ho", 2001, 3, 1, rng),
        _verify("ho", 2001, 6, 2, rng),
    ]


def _construct(model, n_points, n, rng, beta=0.0, convention="normalized", singular=False):
    argv = ["construct", "--model", model, "--n", str(n), "--beta", repr(beta)]
    if beta == 0.0:
        lam_eff = _singular_lambda(rng) if singular else _nonsingular_lambda(rng)
        lam = lam_eff + PAPER_SHIFT if convention == "paper-ex1" else lam_eff
        argv += ["--lambda", repr(round(lam, 6)), "--convention", convention]
    argv += ["--grid-points", str(n_points)]
    return _op(argv, command="construct", model=model, n=n, beta=beta, n_points=n_points,
               route="bernoulli" if beta == 0.0 else "auxiliary", singular=singular)


# (model, route or lambda convention, level n, N, singular).  One shape at
# N = 2001, thirteen at 8001 and one at 32001: a deck costs a few seconds, a
# run holds three or four decks (so its tail is p75), and both the median and
# the p75 op fall well inside the block of N = 8001 shapes.
_CONSTRUCT_SHAPES = (
    ("ho", "normalized", 1, 2001, False),
    ("ex1", "normalized", 1, 8001, False), ("ex1", "normalized", 2, 8001, False),
    ("ex1", "paper-ex1", 1, 8001, False), ("ex1", "paper-ex1", 2, 8001, False),
    ("ex1", "normalized", 1, 8001, True), ("ex1", "paper-ex1", 2, 8001, True),
    ("ex2", "normalized", 1, 8001, False), ("ex2", "normalized", 2, 8001, False),
    ("ex2", "auxiliary", 1, 8001, False), ("ex2", "auxiliary", 2, 8001, False),
    ("ex2", "auxiliary", 2, 8001, False),
    ("ho", "normalized", 1, 8001, False), ("ho", "normalized", 2, 8001, False),
    ("ex1", "paper-ex1", 1, 32001, False),
)


def _construct_deck(rng: random.Random) -> list[dict]:
    ops = []
    for model, kind, n, n_points, singular in _CONSTRUCT_SHAPES:
        if kind == "auxiliary":
            ops.append(_construct(model, n_points, n, rng, beta=_beta(rng)))
        else:
            ops.append(_construct(model, n_points, n, rng, convention=kind, singular=singular))
    return ops


# (model, lambda convention, level n, steps); thirteen shapes, an odd count,
# so that the median op time is a sample of one shape rather than a gap
_SCAN_SHAPES = (
    ("ex1", "normalized", 1, 101), ("ex1", "normalized", 2, 201),
    ("ex1", "normalized", 3, 401), ("ex1", "paper-ex1", 1, 201),
    ("ex1", "paper-ex1", 2, 401), ("ex1", "paper-ex1", 3, 51),
    ("ex2", "normalized", 1, 401), ("ex2", "normalized", 2, 51),
    ("ex2", "normalized", 3, 101), ("ex2", "normalized", 1, 101),
    ("ho", "normalized", 1, 51), ("ho", "normalized", 2, 101),
    ("ho", "normalized", 3, 201),
)


def _scan_deck(rng: random.Random) -> list[dict]:
    ops = []
    for model, convention, n, steps in _SCAN_SHAPES:
        shift = PAPER_SHIFT if convention == "paper-ex1" else 0.0
        lo = round(rng.uniform(-2.5, -1.5) + shift, 6)
        hi = round(rng.uniform(0.5, 1.5) + shift, 6)
        argv = ["scan", "--model", model, "--n", str(n), "--convention", convention,
                "--lambda-min", repr(lo), "--lambda-max", repr(hi), "--steps", str(steps)]
        ops.append(_op(argv, command="scan", model=model, n=n, steps=steps,
                       convention=convention))
    return ops


def make_deck(workload: str, seed: int) -> list[dict]:
    """The seeded, shuffled op list of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == SOLVE:
        ops = _solve_deck(rng)
    elif workload == CONSTRUCT:
        ops = _construct_deck(rng)
    elif workload == SCAN:
        ops = _scan_deck(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def wide_ex2_ops() -> list[dict]:
    """ex2 spectra on windows whose diagonal spans more than double precision
    resolves.  A correct program refuses them (exit 1 or 2) or answers them
    within tolerance; the oracle accepts either."""
    ops = []
    for lo, hi in ((-20.0, 20.0), (-40.0, 40.0)):
        argv = ["spectrum", "--model", "ex2", "--levels", "3", "--which", "original",
                "--grid-min", repr(lo), "--grid-max", repr(hi), "--grid-points", "4001"]
        ops.append(_op(argv, command="spectrum", model="ex2", which="original", levels=3,
                       n=None, beta=None, n_points=4001, refusal_ok=True))
    return ops


def tiny_deck(workload: str) -> list[dict]:
    """Small, fast ops for the self-tests (ho and box only, N = 401)."""
    rng = random.Random(0)
    if workload == SOLVE:
        return [_spectrum("box", 401, 3, rng), _spectrum("ho", 401, 3, rng),
                _verify("ho", 401, 3, 1, rng)]
    if workload == CONSTRUCT:
        return [_construct("ho", 401, 1, rng), _construct("ho", 401, 2, rng, singular=True)]
    if workload == SCAN:
        argv = ["scan", "--model", "ho", "--n", "1", "--lambda-min", "-2.0",
                "--lambda-max", "1.0", "--steps", "11", "--grid-points", "401"]
        return [_op(argv, command="scan", model="ho", n=1, steps=11, convention="normalized")]
    raise ValueError(f"unknown workload {workload!r}")


def digest(ops: list[dict]) -> str:
    """sha256 of the argv lists, so two runs can be shown to share inputs."""
    blob = json.dumps([op["argv"] for op in ops], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
