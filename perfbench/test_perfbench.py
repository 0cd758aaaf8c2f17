"""Self-tests of the benchmark: span arithmetic, decks, and tiny smoke runs.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent


def _span(name, start, end, parent=None, op=0):
    return [name, start, end, parent, op]


def test_self_time_of_nested_and_overlapping_spans():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.inner", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("c", 8.0, 11.0, parent=0),  # overlaps b and runs past the root
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_summarize_adds_calls_and_self_time_per_name():
    spans = [
        _span("main", 0.0, 6.0),
        _span("leaf", 1.0, 2.0, parent=0),
        _span("leaf", 3.0, 5.0, parent=0),
    ]
    out = tracer.summarize(spans)
    assert out["main"] == {"calls": 1, "self_s": pytest.approx(3.0)}
    assert out["leaf"] == {"calls": 2, "self_s": pytest.approx(3.0)}


def test_wrapped_calls_record_parents_and_counts():
    ticks = iter(range(100))
    tr = tracer.Tracer(clock=lambda: float(next(ticks)))

    inner = tr.wrap("inner", lambda x: x + 1, counter=lambda x: {"inner.items": x})
    outer = tr.wrap("outer", lambda x: inner(x) * 2)
    tr.op = 7
    assert outer(3) == 8
    assert [s[tracer.NAME] for s in tr.spans] == ["outer", "inner"]
    assert tr.spans[1][tracer.PARENT] == 0
    assert all(s[tracer.OP] == 7 for s in tr.spans)
    assert tr.counts["inner.items"] == 3


def test_installed_restores_every_wrapped_name():
    run.load_program()
    import pdmfactor.cli
    import pdmfactor.models

    before = (pdmfactor.cli.write_csv, pdmfactor.models.PdmModel.eigenstate_samples)
    with tracer.Tracer().installed():
        assert pdmfactor.cli.write_csv is not before[0]
    assert (pdmfactor.cli.write_csv, pdmfactor.models.PdmModel.eigenstate_samples) == before


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    assert run.tail_latency([float(i) for i in range(1, 101)]) == (90.0, 90.0, 10)
    assert run.tail_latency([float(i) for i in range(1, 21)]) == (50.0, 10.0, 10)
    pct, _, beyond = run.tail_latency([1.0, 2.0, 3.0])
    assert (pct, beyond) == (50.0, 1)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_decks_follow_the_seed_and_have_odd_size(workload):
    a = workloads.make_deck(workload, 1)
    assert workloads.digest(a) == workloads.digest(workloads.make_deck(workload, 1))
    assert workloads.digest(a) != workloads.digest(workloads.make_deck(workload, 2))
    assert len(a) % 2 == 1


def test_benchmark_json_names_every_reported_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def _lines(proc):
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    return json.loads(detail)["detail"], json.loads(result)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl"
    detail, result = _lines(_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                                   "--trace", trace, "--tiny", "--spans", str(spans)))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(expected)
    assert not (ROOT / ".perfbench_tmp").exists()
    if trace == "1":
        names = {json.loads(line)[tracer.NAME] for line in spans.read_text().splitlines()}
        assert "cli.main" in names
        assert detail["tracing_overhead_frac"] < 1.0


def test_wide_ex2_ops_fail_only_when_answered_wrongly():
    detail, result = _lines(_bench("--workload", "solve", "--seed", "1", "--seconds", "0.1",
                                   "--tiny", "--wide-ex2"))
    assert result["attempted"] == len(workloads.tiny_deck("solve")) + 2
    assert detail["failed_frac"] == result["failed"] / result["attempted"]
    assert all("--grid-min" in f["argv"] for f in detail["failures"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
