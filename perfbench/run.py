#!/usr/bin/env python3
"""Closed-loop benchmark of the qbattery CLI.

    python3 perfbench/run.py --workload sweep_closed --seed 1 --seconds 20 --trace 0

Run from a checkout: the package is imported from the checkout's ``src/``.
One client in one process calls ``qbattery.cli.main(argv)`` and starts the
next command only when the previous one has returned.  The workload's seeded
pass of commands (see ``workloads.py``) is repeated until ``--seconds`` is
used up, and at least twice, so every command's outputs are checked once
against an independent engine and then for byte-identity on each repeat.
Checks and output reads run outside the timed region.  The process runs on
one CPU, and every command's time is corrected for the host's current speed
by a calibration kernel run just before and after it (``calibrate``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of
``tracing.py``; the spans are written to ``.perfbench_out/spans/``.  Both
modes write the metrics and the environment, without timestamps, to
``.perfbench_out/results/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 5      # fresh interpreters timed per run; the median is reported
MIN_PASSES = 2         # the second pass is the byte-identity check
P90_MIN_OPS = 100      # a p90 needs ten samples beyond it
SETUP_TIMEOUT_S = 60

# Duration of calibrate() on the reference host (2-vCPU VM, x86-64, Python
# 3.11, numpy 2.4) in a quiet phase.  Corrected times are seconds at that speed.
CAL_REF_S = 0.002

IMPORT_PROBE = ("import time; t = time.perf_counter(); import qbattery.cli; "
                "t = time.perf_counter() - t; import qbattery; "
                "print(repr(t)); print(qbattery.__file__)")


def pin_to_one_cpu() -> int:
    """Run this process, and every thread it starts, on one CPU.

    Called before numpy is imported, so OpenBLAS also sizes its thread pool
    to one CPU.  On a small shared VM two busy threads on two CPUs pay a
    cross-CPU hand-off of the interpreter lock and feel the load of both
    CPUs' neighbours: a 2-thread sweep ran about 1.6x slower there than
    pinned, and its fastest repeats varied about twice as much across runs.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def calibrate() -> float:
    """Time a fixed kernel that does not touch qbattery: the host's current speed.

    The shared host slows this process by up to 2x for seconds to minutes at
    a time.  The kernel mixes what the workloads spend their time on
    (vectorised complex exponentials, per-value float formatting, many small
    numpy calls), so its duration just before and after a command tracks how
    much slower than usual the host ran that command.
    """
    import numpy as np
    t = np.linspace(0.0, 10.0, 2000)
    y = np.zeros(3, dtype=complex)
    start = time.perf_counter()
    for _ in range(4):
        z = np.exp((-0.5 + 1j) * t)
        ",".join(f"{v:.17g}" for v in z.real[:200])
        for _ in range(100):
            y = y * 0.5 + 1.0
    return time.perf_counter() - start


def corrected(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two calibrations, at the reference speed."""
    return seconds * CAL_REF_S / (0.5 * (before + after))


def load_package():
    """Import qbattery from this checkout's src/, or exit with an error."""
    package = SRC / "qbattery"
    if not (package / "cli.py").is_file():
        sys.exit(f"perfbench: {package} not found; run from a qbattery checkout")
    sys.path.insert(0, str(SRC))
    import qbattery.cli
    if Path(qbattery.cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported {qbattery.cli.__file__}, not {package}")
    return qbattery.cli


def measure_setup() -> tuple[float, float]:
    """Median import time of qbattery.cli in fresh interpreters: corrected, raw.

    One unreported import first, so a fresh checkout's bytecode compilation
    is not counted.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, fixed = [], []
    for k in range(SETUP_REPEATS + 1):
        before = calibrate()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        after = calibrate()
        seconds, path = proc.stdout.split()
        if Path(path).resolve().parent != (SRC / "qbattery").resolve():
            sys.exit(f"perfbench: fresh interpreter imported {path}")
        if k:
            raw.append(float(seconds))
            fixed.append(corrected(float(seconds), before, after))
    return statistics.median(fixed), statistics.median(raw)


def run_op(cli, op, out_dir: Path) -> tuple[int, float, float, str]:
    """Run one command in-process; return exit code, wall and CPU seconds, log."""
    argv = [op.argv[0], "--out", str(out_dir), *op.argv[1:]]
    log = io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            code = cli.main(argv)
    except SystemExit as exc:   # argparse rejected the command line
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:           # a traceback is a failed op, not a dead run
        code = -1
        log.write(traceback.format_exc())
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    return code, wall, cpu, log.getvalue()


def take_outputs(out_dir: Path) -> dict[str, bytes]:
    """Read and remove the files a command wrote, so a repeat must rewrite them."""
    files = {}
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            files[path.name] = path.read_bytes()
            path.unlink()
    return files


def digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in sorted(files.items()):
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


class Runner:
    """Runs passes over one op list and keeps per-op timings and failures."""

    def __init__(self, cli, workload, ops, work: Path):
        self.cli, self.workload, self.ops, self.work = cli, workload, ops, work
        self.reference: dict[int, str] = {}
        self.passes: list[dict] = []
        self.problems: list[str] = []

    def run_pass(self, tracer=None) -> None:
        index = len(self.passes)
        walls, cpus, cals, failed = [], [], [], 0
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op, tracer.pass_index = i, index
            cals.append(calibrate())
            code, wall, cpu, log = run_op(self.cli, op, self.work / str(i))
            walls.append(wall)
            cpus.append(cpu)
            problems = self.verify(i, op, code, log)
            if problems:
                failed += 1
                self.problems += [f"pass {index} op {i} {' '.join(op.argv)}: {p}"
                                  for p in problems]
        cals.append(calibrate())
        self.passes.append({"walls": walls, "cpus": cpus, "cals": cals,
                            "failed": failed, "traced": tracer is not None})

    def verify(self, i: int, op, code: int, log: str) -> list[str]:
        files = take_outputs(self.work / str(i))
        if code != 0:
            return [f"exit code {code}: {log.strip()[-400:]}"]
        if i in self.reference:
            return [] if digest(files) == self.reference[i] else [
                "outputs differ from the first pass"]
        self.reference[i] = digest(files)
        try:
            return self.workload.check(op, files)
        except (ValueError, KeyError, TypeError) as exc:
            return [f"malformed output: {exc!r}"]


def run_body(runner: Runner, seconds: float, tracer=None) -> None:
    """Repeat rounds (one pass, or an untraced + traced pair) for ``seconds``.

    A round starts only if the previous round's duration still fits, so the
    body stays within ``seconds`` once the minimum number of passes is done.
    """
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        if len(runner.passes) >= MIN_PASSES and elapsed + last > seconds:
            return
        round_start = time.perf_counter()
        runner.run_pass()
        if tracer is not None:
            with tracer.installed():
                runner.run_pass(tracer)
        last = time.perf_counter() - round_start


def corrected_ops(runner: Runner, key: str) -> list[list[float]]:
    """Per pass, the corrected ``walls`` or ``cpus`` of each command."""
    return [[corrected(t, p["cals"][i], p["cals"][i + 1]) for i, t in enumerate(p[key])]
            for p in runner.passes]


def end_to_end(runner: Runner, setup_s: float, peak_rss_mb: float) -> dict:
    """End-to-end metrics, times corrected to the reference host speed.

    Each command's wall and CPU time is corrected by the calibrations run
    just before and after it, and the median over the run's repeats of the
    same command is taken; ``wall_s`` is one pass made of those medians.
    """
    def per_command(key: str) -> list[float]:
        return [statistics.median(times) for times in zip(*corrected_ops(runner, key))]

    walls = per_command("walls")
    points = sum(op.points for op in runner.ops)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (sum(walls), "s"),
        "points_per_s": (points / sum(walls), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(walls), "ms"),
        "cpu_s": (sum(per_command("cpus")), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def uncorrected(runner: Runner, setup_raw_s: float) -> dict:
    """The same times as measured, for the table and the results file."""
    passes = runner.passes
    op_walls = [w for p in passes for w in p["walls"]]
    values = {
        "raw.setup_s": (setup_raw_s, "s"),
        "raw.wall_s": (statistics.median(sum(p["walls"]) for p in passes), "s"),
        "raw.op_p50_ms": (1e3 * statistics.median(op_walls), "ms"),
        "raw.cpu_s": (statistics.median(sum(p["cpus"]) for p in passes), "s"),
        "host_slowdown": (statistics.median(c for p in passes for c in p["cals"])
                          / CAL_REF_S, "x"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(runner: Runner, tracer) -> tuple[dict, list[str]]:
    """Per-layer metrics and notes on what the trace could not measure."""
    from tracing import LAYER_METRICS, summarize
    walls = {k: sum(p["walls"]) for k, p in enumerate(runner.passes) if p["traced"]}
    untraced = [sum(p["walls"]) for p in runner.passes if not p["traced"]]
    values, notes = summarize(tracer.pass_metrics(walls), untraced)
    if tracer.unbound:
        notes.append(f"call sites not traced, their metrics read 0: {tracer.unbound}")
    units = dict(LAYER_METRICS)
    return {name: {"value": values[name], "unit": units[name]}
            for name, _ in LAYER_METRICS}, notes


def environment(args, cpu: int) -> dict:
    import numpy
    import scipy
    import qbattery
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(), "pinned_cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "qbattery": qbattery.__version__}


def print_table(metrics: dict, extra: dict) -> None:
    for name, entry in list(metrics.items()) + list(extra.items()):
        value = entry["value"]
        text = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:<44} {text:>14} {entry['unit']}")


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    cpu = pin_to_one_cpu()
    cli = load_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        setup_s, setup_raw_s = measure_setup() if args.trace == 0 else (None, None)
        warm = Runner(cli, workload, workload.warmup(ops), work / "warmup")
        warm.run_pass()
        runner = Runner(cli, workload, ops, work)
        tracer = Tracer() if args.trace else None
        run_body(runner, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runner.problems = warm.problems + runner.problems
    attempted = sum(len(p["walls"]) for p in runner.passes)
    failed = sum(p["failed"] for p in runner.passes)
    extra = {"fail_frac": {"value": failed / attempted, "unit": "fraction"}}
    notes = []
    if args.trace:
        metrics, notes = per_layer(runner, tracer)
        spans = OUT / "spans" / f"{tag}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text("".join(json.dumps(s) + "\n" for s in tracer.span_records()))
    else:
        metrics = end_to_end(runner, setup_s, peak_rss_mb)
        op_walls = [w for p in corrected_ops(runner, "walls") for w in p]
        p90 = (f"{1e3 * statistics.quantiles(op_walls, n=10)[-1]:.6g}"
               if len(op_walls) >= P90_MIN_OPS else f"n/a ({len(op_walls)} ops < 100)")
        extra["op_p90_ms"] = {"value": p90, "unit": "ms"}
        extra.update(uncorrected(runner, setup_raw_s))

    correct = failed == 0 and not runner.problems
    env = environment(args, cpu)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    results = OUT / "results" / f"{tag}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({"environment": env, **result, "extra": extra,
                                   "pass_op_walls_s": [p["walls"] for p in runner.passes],
                                   "problems": runner.problems, "notes": notes},
                                  indent=2, sort_keys=True) + "\n")

    for problem in runner.problems[:20] + notes:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"{args.workload}: {attempted} ops in {len(runner.passes)} passes, "
          f"{failed} failed")
    print_table(metrics, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
