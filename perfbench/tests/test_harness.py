"""Tests of the benchmark's own logic.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
from harness import (  # noqa: E402
    CheckFailed,
    Span,
    TooFewSamples,
    run_closed_loop,
    self_times,
    tail_percentile,
)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd, *args, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


# -- tail percentile ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond():
    n = harness.min_samples_for(0.9)
    with pytest.raises(TooFewSamples):
        tail_percentile(range(n - 1), 0.9)
    xs = [float(v) for v in range(n)]
    p90 = tail_percentile(xs, 0.9)
    assert sum(1 for x in xs if x > p90) == harness.MIN_TAIL
    assert p90 == pytest.approx(
        statistics.quantiles(xs, n=10, method="inclusive")[-1])


def test_tail_rule_holds_at_every_size():
    for n in range(harness.min_samples_for(0.9), 400):
        assert harness.samples_beyond(n, 0.9) >= harness.MIN_TAIL


# -- self time ----------------------------------------------------------------


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span("parent", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 6.0, 0, 0),    # overlaps a: union [1, 6]
        Span("c", 8.0, 12.0, 0, 0),   # runs past the parent: clipped to 10
        Span("a.child", 1.5, 2.0, 1, 0),  # grandchild: only a loses it
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 0.5)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_tracer_records_parent_and_op():
    ticks = iter(range(100))
    tracer = harness.Tracer(clock=lambda: float(next(ticks)))
    tracer.op_id = 7
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    names = {s.name: s for s in tracer.spans}
    assert names["inner"].parent == 0 and names["outer"].parent is None
    assert {s.op_id for s in tracer.spans} == {7}
    assert self_times(tracer.spans)[0] == pytest.approx(
        (names["outer"].end - names["outer"].start)
        - (names["inner"].end - names["inner"].start))


# -- failure accounting -------------------------------------------------------


def test_injected_failed_check_raises_fail_ratio():
    def op(i):
        if i == 3:
            raise CheckFailed("injected")
        return "x", 1

    loop = run_closed_loop(op, 0.0, "x", 200, 60.0)
    assert loop.attempted == 201 and loop.failed == 1
    assert len(loop.latencies_ms["x"]) == 200
    metrics = run.end_to_end_metrics(loop, "x", [1.0], loop.attempted,
                                     loop.failed, 1.0)
    assert metrics["ok_ratio"]["value"] == pytest.approx(1 - 1 / 201)

    clean = run_closed_loop(lambda i: ("x", 1), 0.0, "x", 200, 60.0)
    clean_metrics = run.end_to_end_metrics(clean, "x", [1.0], clean.attempted,
                                           clean.failed, 1.0)
    assert clean_metrics["ok_ratio"]["value"] == 1.0


def test_loop_gives_up_when_failures_dominate():
    def op(i):
        raise CheckFailed("always")

    loop = run_closed_loop(op, 0.0, "x", 100, 60.0)
    assert loop.attempted == 1 and loop.failed == 1


# -- metric names -------------------------------------------------------------


def test_metric_tables_equal_benchmark_json():
    doc = spec()
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOAD_NAMES)
    assert doc["command"][1] == "perfbench/run.py"


@pytest.mark.parametrize("trace, table", [("0", "end_to_end"),
                                          ("1", "per_layer")])
def test_printed_names_equal_benchmark_json(trace, table):
    proc = run_bench(ROOT, "--workload", "eval-none", "--seed", "5",
                     "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = [m["name"] for m in spec()[table]]
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"] for m in spec()[table]}
    for name, m in result["metrics"].items():
        assert m["unit"] == units[name]
        assert isinstance(m["value"], float)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "gates", "--seed", "1",
                     "--seconds", "1", "--trace", "0", timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
