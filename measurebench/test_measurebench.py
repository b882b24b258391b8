"""Self-tests of the benchmark: short runs of every workload.

    python -m pytest measurebench -q

Most tests run ``run.py`` as the benchmark's user would and read the JSON
object on the last line of its output; the self-time check is also tested
directly.  They take about five minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, seed: int, trace: int, *extra, cwd=ROOT, seconds=1):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "measurebench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace), *extra],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def assert_metrics(result: dict, specs: list) -> None:
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"], spec["name"]
        assert isinstance(metric["value"], float), spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_run_is_correct_and_complete(workload):
    proc, result = run(workload, seed=7, trace=0)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    for spec in SPEC["end_to_end"]:
        assert result["metrics"][spec["name"]]["value"] > 0, spec["name"]
    assert "seed 7" in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    proc, result = run(workload, seed=8, trace=1)
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert_metrics(result, SPEC["per_layer"])
    assert "self time by layer" in proc.stdout
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_a_corrupted_result_fails_the_run(workload):
    proc, result = run(workload, 9, 0, "--corrupt")
    assert proc.returncode != 0
    assert result["correct"] is False and result["failed"] >= 1


def test_without_the_engine_source_it_exits_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "measurebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run("tpch_cold", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def _workloads():
    for path in (str(ROOT / "src"), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def _traced_report(statement, repeats=1):
    """The report of a traced phase running ``statement`` ``repeats``
    times, alternating with as many untraced runs."""
    workloads = _workloads()
    tracer = workloads.Tracer()
    untraced, traced = [], []
    for request in range(repeats):
        untraced.append(statement())
        with tracer:
            traced.append(tracer.op(request, statement))
    report = workloads.Report()
    workloads.layer_metrics(report, tracer, untraced, traced, repeats)
    return report


def test_self_time_check_passes_when_the_layers_cover_the_time():
    db = _workloads().Database()
    db.execute("CREATE TABLE t (a INT, b INT)")
    rows = ", ".join(f"({i}, {i % 7})" for i in range(2000))
    db.execute(f"INSERT INTO t VALUES {rows}")

    def statement():
        begin = time.perf_counter()
        db.execute("SELECT b, SUM(a) FROM t GROUP BY b")
        return "read", time.perf_counter() - begin, True

    report = _traced_report(statement, repeats=20)
    assert (report.attempted, report.failed) == (1, 0), report.lines


def test_self_time_check_fails_on_time_outside_every_layer():
    def statement():
        begin = time.perf_counter()
        time.sleep(0.02)
        return "read", time.perf_counter() - begin, True

    report = _traced_report(statement)
    assert (report.attempted, report.failed) == (1, 1), report.lines


def test_self_time_check_fails_when_tracing_costs_too_much():
    workloads = _workloads()
    report = workloads.Report()
    assert not workloads.self_time_check(report, program=2.0, wall_u=1.0, wall_t=2.0)
    assert report.failed == 1
