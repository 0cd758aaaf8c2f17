"""The exit-code contract over a fixed table of runs: a wrong answer never
exits 0, and a right one never exits 1.

Each row is one ``cli.main`` call, in process, and the closed form its
answer is checked against within the model's spectrum_tolerance: the
original spectrum for ``spectrum``, and for ``verify --beta`` != 0 the
shifted ladder {E_k - E_n + beta} without the deleted levels.  A run that
reports no levels is a refusal, exit 1 or 2 with one line on stderr.
A row answered right today also pins its exit code.  A row answered wrong
today is a strict xfail naming the ROADMAP item that mends it, so the item
flips its own rows when it lands.
"""

import json

import pytest

from pdmfactor.cli import main
from pdmfactor.models import catalog

LEVELS = 4


def _spectrum(model, code, *, window=None, item=None, **params):
    """A ``spectrum --which original`` row, on the model's default grid or
    on [-window, window]."""
    argv = ["spectrum", "--model", model, "--levels", str(LEVELS)]
    argv += [f"--{name}={value}" for name, value in params.items()]
    name = "-".join([model, *map(str, params.values())])
    if window is not None:
        argv += ["--grid-min", str(-window), "--grid-max", str(window)]
        name += f"-on-{window}"
    marks = [pytest.mark.xfail(strict=True, reason=f"item {item}")] if item else []
    return pytest.param(argv, model, params, None, (), code, id=name, marks=marks)


def _verify(model, n, beta, code, *, deleted=None, item=None):
    """A ``verify --beta`` row; level n is deleted unless deleted says which."""
    argv = ["verify", "--model", model, "--n", str(n), "--beta", str(beta),
            "--levels", str(LEVELS)]
    deleted = (n,) if deleted is None else deleted
    marks = [pytest.mark.xfail(strict=True, reason=f"item {item}")] if item else []
    return pytest.param(argv, model, {}, (n, beta), deleted, code,
                        id=f"verify-{model}-n{n}-beta{beta}", marks=marks)


ROWS = [
    *(_spectrum("ex1", 0, alpha=alpha) for alpha in (0.1, 0.5, 1.0, 1.5)),
    # the window [-250, 250] truncates the slowly decaying states: 5.7e-2,
    # 0.52 and 1.59 off
    *(_spectrum("ex1", None, alpha=alpha, item=7) for alpha in (2.0, 2.5, 3.0)),
    *(_spectrum("ex2", 0, a=a, b=b, c=c)
      for a, b, c in [(1, 5, 4), (2, 8, 3), (1, 10, 6), (3, 3, 2), (1, 20, 4), (1, 3, 3)]),
    # nu = 0.5 at one end: 2.1e-2 and 3.7e-2 off
    *(_spectrum("ex2", None, a=a, b=b, c=c, item=7) for a, b, c in [(0.5, 2, 1.5), (1, 1, 1.5)]),
    # refused at the source: c <= 1 or a + b <= c
    *(_spectrum("ex2", 1, a=a, b=b, c=c) for a, b, c in [(1, 1, 1), (1, 1, 0.75), (1, 1, 2.25)]),
    _spectrum("ho", 0), _spectrum("ho", 0, window=5), _spectrum("ho", 0, window=6),
    _spectrum("box", 0),
    # too narrow a window: 0.33 and 3.4e-3 off
    _spectrum("ho", None, window=3, item=7), _spectrum("ho", None, window=4, item=7),
    *(_verify(model, n, beta, 0)
      for model in ("ho", "ex1", "ex2") for n in (0, 1, 2) for beta in (-0.5, 0.5, 1.0)),
    # at beta = -(E_2 - E_1) the seed is psi_2 and levels 1 and 2 go: ho
    # reports a level at -0.0215 and is refused, ex2 is right and refused
    _verify("ho", 1, -2.0, 1, deleted=(1, 2)),
    _verify("ex2", 1, -9.0, None, deleted=(1, 2), item=19),
]


def _answer(argv, out):
    """The levels a run reports, or None when it wrote no report."""
    if argv[0] == "spectrum":
        path = out / "spectrum.json"
        return json.loads(path.read_text())["eigenvalues"] if path.exists() else None
    path = out / "verify.json"
    if not path.exists():
        return None
    iso = json.loads(path.read_text()).get("isospectrality")
    return None if iso is None else [b for _, b, _ in iso["pairs"]]


@pytest.mark.parametrize("argv, model, params, shift, deleted, code", ROWS)
def test_exit_code_agrees_with_the_closed_form(tmp_path, capsys, argv, model, params, shift,
                                               deleted, code):
    out = tmp_path / "run"
    got = main(argv + ["--out", str(out)])
    err = capsys.readouterr().err
    answer = _answer(argv, out)
    if answer is None:
        # a refusal: exit 1 or 2 with one line on stderr, and no levels
        assert got in (1, 2) and err.count("\n") == 1
        if argv[0] == "spectrum":
            assert err.startswith("error: ") and not out.exists()
        right = False
    else:
        m = catalog(model, **params)
        if shift is None:
            want = [m.energy(k) for k in range(LEVELS)]
        else:
            n, beta = shift
            want = [m.energy(k) - m.energy(n) + beta
                    for k in range(LEVELS + len(deleted)) if k not in deleted]
        right = len(answer) == len(want) and max(
            abs(a - b) for a, b in zip(answer, want)) <= m.spectrum_tolerance
    assert right if got == 0 else not right
    if code is not None:
        assert got == code
