import csv

import numpy as np
import pytest

from pdmfactor import Ex1, Ex2, HarmonicOscillator, factorize
from pdmfactor.grids import Grid, SampledFunction, write_csv

EX1_FINE_GRID = Grid(-250.0, 250.0, 32001)
EX2_TAIL_SAFE_GRID = Grid(-12.0, 14.0, 32001)


def save_csv(f: SampledFunction, path) -> None:
    """Write f into a new file at path; ``grids.write_csv`` opens no file itself."""
    with open(path, "wb") as fh:
        write_csv(f, fh)


def read_csv(path) -> SampledFunction:
    """Load a file written by ``grids.write_csv`` back onto its uniform grid."""
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        assert next(rows) == ["x", "value", "singular"]
        xs, vals, sing = zip(*((float(x), float(v), bool(int(s))) for x, v, s in rows))
    grid = Grid(xs[0], xs[-1], len(xs))
    assert np.allclose(xs, grid.points(), rtol=0.0, atol=1e-9 * max(1.0, abs(xs[-1])))
    # a singular sample is written as nan, so the flag column repeats the values
    assert np.array_equal(np.asarray(sing), np.isnan(vals))
    return SampledFunction(grid, np.asarray(vals))


@pytest.fixture(scope="session")
def ex1():
    return Ex1()


@pytest.fixture(scope="session")
def ex2():
    return Ex2()


@pytest.fixture(scope="session")
def ho():
    return HarmonicOscillator()


@pytest.fixture(scope="session")
def fac_ex1(ex1):
    """Level-1 run at the recommended grid, figure-convention lambda = 1."""
    return factorize(ex1, 1, lam=1.0, convention="paper-ex1")


@pytest.fixture(scope="session")
def fac_ex1_fine(ex1):
    """Same run on the fine grid used for pointwise closed-form comparisons."""
    return factorize(ex1, 1, lam=1.0, convention="paper-ex1", grid=EX1_FINE_GRID)


@pytest.fixture(scope="session")
def fac_ho(ho):
    return factorize(ho, 1, lam=1.0)


@pytest.fixture(scope="session")
def fac_ex2_n1(ex2):
    return factorize(ex2, 1, beta=1.0)


@pytest.fixture(scope="session")
def fac_ex2_n2(ex2):
    return factorize(ex2, 2, beta=1.0)


@pytest.fixture(scope="session")
def fac_ex2_n1_fine(ex2):
    """Left edge pulled in to -12: the Riccati check at the far tail is
    conditioning-limited (the canceling terms grow like 16/m)."""
    return factorize(ex2, 1, beta=1.0, grid=EX2_TAIL_SAFE_GRID)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
