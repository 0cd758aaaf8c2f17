"""One set-up of pdmfactor in a fresh interpreter; the benchmark times it.

Imports the CLI from the checkout's ``src``, builds every catalog model and
runs one small scan into the directory given as the only argument.

    python3 perfbench/setup_probe.py OUT_DIR
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pdmfactor.cli import main  # noqa: E402
from pdmfactor.models import catalog  # noqa: E402

WARMUP_ARGV = ["scan", "--model", "ho", "--lambda-min", "-2", "--lambda-max", "1",
               "--steps", "11", "--grid-points", "401"]


def setup(out_dir: str) -> int:
    for name in ("ex1", "ex2", "ho", "box"):
        catalog(name)
    return main(WARMUP_ARGV + ["--out", out_dir])


if __name__ == "__main__":
    sys.exit(setup(sys.argv[1]))
