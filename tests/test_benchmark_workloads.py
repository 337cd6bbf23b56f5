"""The benchmark's workloads, one pass each, through the public CLI.

perfbench/workloads.py recomputes sweep rows with the single-point engine and
metric functions and checks figure and oracle outputs; this keeps that
contract checked in the fast suite without a full benchmark run.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from qbattery.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", ["sweep_closed", "sweep_pseudomode",
                                  "reproduce_figures", "oracle_check"])
def test_one_benchmark_pass_passes_its_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    ops = workload.ops(1)
    if name == "oracle_check":
        # The warm-up op walks the pass's code on a 400-mode bath; the
        # pass's own 4000-mode commands take seconds each.
        ops = workload.warmup(ops)
    for i, op in enumerate(ops):
        out = tmp_path / str(i)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(list(op.argv) + ["--out", str(out)]) == 0, op.argv
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        assert workload.check(op, files) == [], op.argv
