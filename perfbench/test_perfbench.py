"""Tests of the benchmark itself: ``python -m pytest perfbench``.

The traced runs take about a minute and a half in all, most of it in
``oracle_check``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import COUNT_METRICS, Tracer  # noqa: E402

WORKLOADS = ("sweep_closed", "sweep_pseudomode", "reproduce_figures", "oracle_check")

# The call count that shows each workload reached its dominant layer.
DOMINANT_CALLS = {
    "sweep_closed": "dynamics.survival_amplitude.calls",
    "sweep_pseudomode": "dynamics.general_trajectory.calls",
    "reproduce_figures": "dynamics.survival_amplitude.calls",
    "oracle_check": "oracle.propagate.calls",
}


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly_for_a_seed(workload):
    first, second = (result(bench(ROOT, workload, 3, trace=1)) for _ in range(2))
    for run in (first, second):
        assert run["correct"] and run["failed"] == 0
    counts = {name: first["metrics"][name]["value"] for name in COUNT_METRICS}
    assert counts == {name: second["metrics"][name]["value"] for name in COUNT_METRICS}
    assert all(isinstance(v, int) for v in counts.values())
    assert counts[DOMINANT_CALLS[workload]] > 0
    assert all(counts[f"{layer}.errors"] == 0
               for layer in ("cli", "model", "dynamics", "metrics", "sweep", "oracle"))


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = result(bench(ROOT, "reproduce_figures", 5, trace=0))
    assert run["correct"] and run["attempted"] >= 20
    assert set(run["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in run["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "sweep_closed", 1, trace=0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    tracer = Tracer()
    # parent [0, 10]; children [1, 4] and [3, 6] overlap (two threads); [9, 12]
    # runs past the parent's end and counts only up to 10.
    tracer.spans = [["p", 0.0, 10.0, None, 0, 0], ["a", 1.0, 4.0, 0, 0, 0],
                    ["b", 3.0, 6.0, 0, 0, 0], ["c", 9.0, 12.0, 0, 0, 0]]
    assert tracer.self_times() == [4.0, 3.0, 3.0, 3.0]
