"""In-memory spans around the calls into each pdmfactor module.

The tracer wraps a public function at the name its caller looks up (``cli``
and ``verify`` import functions by name, so ``pdmfactor.cli.write_csv`` is
wrapped rather than ``pdmfactor.grids.write_csv``).  Every call records a
span ``[name, start, end, parent, op]``; spans stay in a list until the run
ends.  A span's self time is its duration minus the part of it that its
child spans cover.  Times are process CPU seconds by default.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager



# A counter maps a wrapped call's arguments to increments of named counts.
def _rows(f, *args, **kwargs):
    return {"grids.write_csv.rows": f.grid.n_points}


def _rows_levels(prob, k, *args, **kwargs):
    return {"spectra.lowest_eigenpairs.rows_levels": prob.diag.size * k}


# (module, attribute path, span name, counter) for every wrapped call site

TARGETS = (
    ("pdmfactor.cli", "factorize", "factor.factorize", None),
    ("pdmfactor.verify", "factorize", "factor.factorize", None),
    ("pdmfactor.cli", "map_eigenstate", "factor.map_eigenstate", None),
    ("pdmfactor.cli", "zero_mode", "factor.zero_mode", None),
    ("pdmfactor.factor", "zero_mode", "factor.zero_mode", None),
    ("pdmfactor.factor", "bernoulli_f", "factor.bernoulli_f", None),
    ("pdmfactor.verify", "bernoulli_f", "factor.bernoulli_f", None),
    ("pdmfactor.cli", "write_csv", "grids.write_csv", _rows),
    ("pdmfactor.cli", "solve_spectrum", "spectra.solve_spectrum", None),
    ("pdmfactor.verify", "solve_spectrum", "spectra.solve_spectrum", None),
    ("pdmfactor.spectra", "lowest_eigenpairs", "spectra.lowest_eigenpairs", _rows_levels),
    ("pdmfactor.spectra", "discretize", "spectra.discretize", None),
    ("pdmfactor.cli", "check_isospectral", "verify.check_isospectral", None),
    ("pdmfactor.cli", "riccati_residual", "verify.riccati_residual", None),
    ("pdmfactor.cli", "scan_lambda", "verify.scan_lambda", None),
    ("pdmfactor.models", "PdmModel.eigenstate_samples", "models.eigenstate_samples", None),
    ("pdmfactor.models", "PdmModel.potential_samples", "models.potential_samples", None),
    ("pdmfactor.models", "seed_solution_ex2", "models.seed_solution_ex2", None),
    ("pdmfactor.models", "hermite", "specfun.hermite", None),
    ("pdmfactor.models", "jacobi", "specfun.jacobi", None),
    ("pdmfactor.models", "gauss_2f1", "specfun.gauss_2f1", None),
)

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Collects spans and counts; one instance per traced run."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts.update(counter(*args, **kwargs))
            parent = self._stack[-1] if self._stack else None
            span = [name, self.clock(), None, parent, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = self.clock()
                self._stack.pop()

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        saved = []
        try:
            for module, path, name, counter in TARGETS:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for p in parents:
                    owner = getattr(owner, p)
                fn = owner.__dict__.get(attr)
                if fn is None:
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(name, fn, counter))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the union of its children, clipped to it."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        kids = [(max(c[START], lo), min(c[END], hi)) for c in children.get(i, ())]
        out.append((hi - lo) - _covered([k for k in kids if k[1] > k[0]]))
    return out


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """calls and total self seconds per span name."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for s, t in zip(spans, self_times(spans)):
        out[s[NAME]]["calls"] += 1
        out[s[NAME]]["self_s"] += t
    return dict(out)
