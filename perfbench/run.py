"""pdmfactor benchmark: a closed loop of in-process ``pdmfactor.cli.main`` calls.

    python3 perfbench/run.py --workload {solve,construct,scan} --seed N \
        --seconds S --trace {0,1}

One client runs the workload's seeded deck of ops (see ``workloads.py``)
over and over, whole decks at a time, until ``--seconds`` have passed; the
first deck always runs to the end.  Every op writes into a fresh directory
under ``.perfbench_tmp/`` in the checkout, is checked against closed-form
references (``oracle.py``) and is deleted.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the deck
untraced for half the time and traced for the other half, and reports the
per-layer metrics from the traced half plus both throughputs, whose ratio is
the tracing overhead.  The next-to-last stdout line is a JSON ``detail``
object (machine fingerprint, op-list digest, tail percentile, accuracy,
failures); the last line is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.metadata
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import oracle
import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP_BASE = ROOT / ".perfbench_tmp"

# one client on one core: BLAS/OpenMP pools are capped before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60
# percentiles tried for the tail, in permille; the highest with >= 10
# samples beyond it is reported
TAIL_PERMILLE = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10

END_TO_END = (
    ("ops_per_cpu_s", "op/s"),
    ("cpu_latency_p50_s", "s"),
    ("cpu_latency_tail_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("spectra.lowest_eigenpairs.calls", "calls/op"),
    ("spectra.lowest_eigenpairs.self_s", "s/op"),
    ("spectra.lowest_eigenpairs.rows_levels", "rows/op"),
    ("spectra.discretize.self_s", "s/op"),
    ("spectra.solve_spectrum.self_s", "s/op"),
    ("verify.check_isospectral.self_s", "s/op"),
    ("verify.riccati_residual.self_s", "s/op"),
    ("grids.write_csv.calls", "calls/op"),
    ("grids.write_csv.self_s", "s/op"),
    ("grids.write_csv.rows", "rows/op"),
    ("cli.output_bytes", "bytes/op"),
    ("cli.main.self_s", "s/op"),
    ("cli.main.wait_s", "s/op"),
    ("factor.factorize.self_s", "s/op"),
    ("factor.map_eigenstate.self_s", "s/op"),
    ("factor.zero_mode.self_s", "s/op"),
    ("models.eigenstate_samples.self_s", "s/op"),
    ("models.potential_samples.self_s", "s/op"),
    ("models.seed_solution_ex2.self_s", "s/op"),
    ("specfun.hermite.self_s", "s/op"),
    ("specfun.jacobi.self_s", "s/op"),
    ("specfun.gauss_2f1.self_s", "s/op"),
    ("verify.scan_lambda.self_s", "s/op"),
    ("factor.bernoulli_f.calls", "calls/op"),
    ("factor.bernoulli_f.self_s", "s/op"),
    ("scan.refine_frac", "1"),
    ("op.cpu_s", "s/op"),
    ("trace.ops_per_cpu_s_untraced", "op/s"),
    ("trace.ops_per_cpu_s_traced", "op/s"),
)


def load_program():
    """Import pdmfactor from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import pdmfactor.cli
        import pdmfactor.models
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pdmfactor from {SRC}: {exc}")
    if not Path(pdmfactor.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: pdmfactor imported from outside {SRC}")
    return pdmfactor.cli.main, pdmfactor.models.catalog


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def measure_setup(tmp: Path) -> dict:
    """Median CPU and wall seconds of SETUP_SAMPLES fresh-interpreter set-ups."""
    cpu, wall = [], []
    for i in range(SETUP_SAMPLES):
        out = tmp / f"setup{i}"
        out.mkdir()
        c0, t0 = _children_cpu(), time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(out)],
                       check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        wall.append(time.perf_counter() - t0)
        cpu.append(_children_cpu() - c0)
        shutil.rmtree(out)
    return {"cpu_s": statistics.median(cpu), "wall_s": statistics.median(wall)}


class Runner:
    """Runs ops one at a time and keeps one record per op."""

    def __init__(self, main, catalog, tmp: Path):
        self.main = main
        self.catalog = catalog
        self.tmp = tmp
        self.models = {}
        self.digests = {}
        self.records = []

    def run_op(self, slot: int, op: dict, main) -> dict:
        out = self.tmp / f"op{len(self.records)}"
        out.mkdir()
        argv = op["argv"] + ["--out", str(out)]
        sink = io.StringIO()
        error = None
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # an uncaught traceback is a failed op, not a crash
            code, error = None, traceback.format_exc(limit=-3)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        rec = {"slot": slot, "command": op["expect"]["command"], "wall": wall, "cpu": cpu,
               "code": code, "bytes": sum(p.stat().st_size for p in out.iterdir())}
        if error is not None:
            problems, worst = [f"traceback: {error.strip().splitlines()[-1]}"], None
        else:
            model = self.models.setdefault(op["expect"]["model"],
                                           self.catalog(op["expect"]["model"]))
            problems, worst = oracle.check(op, code, out, model)
            if not problems and op["expect"]["command"] == "construct":
                problems += self._repeat_check(slot, out)
        rec.update(problems=problems, worst=worst, steps=op["expect"].get("steps", 0))
        shutil.rmtree(out)
        self.records.append(rec)
        return rec

    def _repeat_check(self, slot: int, out: Path) -> list[str]:
        digest = oracle.output_digest(out)
        first = self.digests.setdefault(slot, digest)
        return [] if digest == first else ["repeat differs from the first run of this op"]

    def run_decks(self, ops: list[dict], seconds: float, tr=None) -> list[dict]:
        """Whole decks until `seconds` have passed; at least one deck.

        With a tracer, each op runs under a ``cli.main`` span and the spans
        carry the op's index among the records this call returns.
        """
        start = len(self.records)
        main = self.main if tr is None else tr.wrap("cli.main", self.main)
        t_end = time.perf_counter() + seconds
        while True:
            for slot, op in enumerate(ops):
                if tr is not None:
                    tr.op = len(self.records) - start
                self.run_op(slot, op, main)
            if time.perf_counter() >= t_end:
                return self.records[start:]


def tail_latency(values: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) for the highest qualifying percentile."""
    xs = sorted(values)
    n = len(xs)
    best = None
    for pm in TAIL_PERMILLE:
        rank = -(-pm * n // 1000)
        if n - rank >= TAIL_MIN_BEYOND or best is None:
            best = (pm / 10, xs[rank - 1], n - rank)
    return best


def latency_stats(times: list[float]) -> dict:
    """Throughput, median and tail of per-op times (CPU or wall seconds)."""
    pct, tail, beyond = tail_latency(times)
    return {"ops_per_s": len(times) / sum(times), "latency_p50_s": statistics.median(times),
            "latency_tail_s": tail, "tail_percentile": pct, "tail_samples_beyond": beyond}


def end_to_end(records: list[dict], setup: dict) -> tuple[dict, dict]:
    cpu = latency_stats([r["cpu"] for r in records])
    metrics = {
        "ops_per_cpu_s": cpu["ops_per_s"],
        "cpu_latency_p50_s": cpu["latency_p50_s"],
        "cpu_latency_tail_s": cpu["latency_tail_s"],
        "setup_s": setup["cpu_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"tail_percentile": cpu["tail_percentile"],
             "tail_samples_beyond": cpu["tail_samples_beyond"],
             "wall": latency_stats([r["wall"] for r in records])}
    return metrics, extra


def per_layer(tr: tracing.Tracer, traced: list[dict], untraced: list[dict]) -> dict:
    n = len(traced)
    summary = tracing.summarize(tr.spans)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    for name, stats in summary.items():
        for key in ("calls", "self_s"):
            if f"{name}.{key}" in metrics:
                metrics[f"{name}.{key}"] = stats[key] / n
    for name in ("spectra.lowest_eigenpairs.rows_levels", "grids.write_csv.rows"):
        metrics[name] = tr.counts[name] / n
    metrics["cli.output_bytes"] = sum(r["bytes"] for r in traced) / n
    metrics["cli.main.wait_s"] = sum(r["wall"] - r["cpu"] for r in traced) / n
    metrics["op.cpu_s"] = sum(r["cpu"] for r in traced) / n
    scan_ops = {i for i, r in enumerate(traced) if r["command"] == "scan"}
    calls = sum(1 for s in tr.spans
                if s[tracing.NAME] == "factor.bernoulli_f" and s[tracing.OP] in scan_ops)
    sampled = sum(traced[i]["steps"] for i in scan_ops)
    metrics["scan.refine_frac"] = (calls - sampled) / calls if calls else 0.0
    metrics["trace.ops_per_cpu_s_untraced"] = len(untraced) / sum(r["cpu"] for r in untraced)
    metrics["trace.ops_per_cpu_s_traced"] = len(traced) / sum(r["cpu"] for r in traced)
    return metrics


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    backend = None
    if importlib.util.find_spec("pdmfactor.kernels") is not None:
        from pdmfactor import kernels
        backend = kernels.backend_name()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "numba_imports": numba_imports,
        "pdmfactor_backend": backend,
        "git_commit": _git_commit(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def accuracy_digits(records: list[dict]) -> float | None:
    worst = [r["worst"] for r in records if not r["problems"] and r["worst"] is not None]
    if not worst:
        return None
    return -math.log10(max(max(worst), 1e-300))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small fixed ops instead of the workload deck (self-tests)")
    p.add_argument("--wide-ex2", action="store_true",
                   help="add two wide-window ex2 spectra, which must be refused or right")
    p.add_argument("--spans", type=Path, default=None,
                   help="with --trace 1, also write every span as JSON lines here")
    return p.parse_args(argv)


def run(args) -> tuple[dict, dict]:
    main, catalog = load_program()
    import setup_probe

    ops = (workloads.tiny_deck(args.workload) if args.tiny
           else workloads.make_deck(args.workload, args.seed))
    if args.wide_ex2:
        ops += workloads.wide_ex2_ops()
    TMP_BASE.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_BASE))
    try:
        setup = measure_setup(tmp)
        warm = tmp / "warmup"
        warm.mkdir()
        with contextlib.redirect_stdout(io.StringIO()):
            setup_probe.setup(str(warm))
        runner = Runner(main, catalog, tmp)
        if args.trace:
            untraced = runner.run_decks(ops, args.seconds / 2)
            tr = tracing.Tracer()
            with tr.installed():
                traced = runner.run_decks(ops, args.seconds / 2, tr)
            metrics = per_layer(tr, traced, untraced)
            units = dict(PER_LAYER)
            extra = {"tracing_overhead_frac": 1.0 - metrics["trace.ops_per_cpu_s_traced"]
                     / metrics["trace.ops_per_cpu_s_untraced"],
                     "self_share_of_op_cpu": {
                         name: stats["self_s"] / sum(r["cpu"] for r in traced)
                         for name, stats in sorted(tracing.summarize(tr.spans).items())}}
            if args.spans is not None:
                with args.spans.open("w") as fh:
                    for s in tr.spans:
                        fh.write(json.dumps(s) + "\n")
        else:
            runner.run_decks(ops, args.seconds)
            metrics, extra = end_to_end(runner.records, setup)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_BASE.rmdir()

    records = runner.records
    failures = [{"argv": ops[r["slot"]]["argv"], "problems": r["problems"]}
                for r in records if r["problems"]]
    failed = sum(1 for r in records if r["problems"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workloads.WHY[args.workload],
        "op_list_sha256": workloads.digest(ops),
        "deck_size": len(ops),
        "ops": len(records),
        "failed_frac": failed / len(records),
        "accuracy_digits": accuracy_digits(records),
        "setup": setup,
        **extra,
        "fingerprint": fingerprint(),
        "failures": failures[:10],
    }
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update({var: "1" for var in THREAD_VARS})
    detail, result = run(args)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
