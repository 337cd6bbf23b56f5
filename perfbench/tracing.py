"""Outside-in span tracer for the qbattery layers.

The package modules import functions by name (``from .dynamics import
trajectory``), so a call is looked up in the *caller's* module.  The tracer
therefore rebinds every module attribute through which a traced function is
reached, e.g. both ``qbattery.cli.run_sweep`` and ``qbattery.sweep.run_sweep``,
and puts the originals back when ``installed()`` exits.  Nothing in ``src/`` is
changed, and untraced passes run the unmodified functions.

Spans are kept in memory as ``[name, start, end, parent, op, pass]`` records;
self time, the span's duration minus the part of it covered by its child spans,
is computed after the timed region.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "model", "dynamics", "metrics", "sweep", "oracle")

# Traced function "<layer>.<name>" -> modules whose attribute of that name is
# the call site.  The defining module's own attribute is included where the
# package calls the function internally (``trajectory`` looks up
# ``general_trajectory`` in ``qbattery.dynamics``).
SPAN_SITES = {
    "cli.main": ("cli",),
    "model.validate": ("cli", "sweep", "dynamics", "oracle"),
    "model.dressed_frame": ("cli", "sweep"),
    "dynamics.equal_frequency_trajectory": ("dynamics", "cli"),
    "dynamics.general_trajectory": ("dynamics", "cli"),
    "dynamics.survival_amplitude": ("dynamics",),
    "metrics.compute_metrics": ("cli", "sweep"),
    "metrics.maxima": ("metrics",),
    "sweep.run_sweep": ("cli", "sweep"),
    "sweep.write_sweep_csv": ("cli",),
    "sweep.figure_pipeline": ("cli",),
    "oracle.build_bath": ("cli",),
    "oracle.propagate": ("cli",),
}

# Integrator call sites; each wrapper adds ``sol.nfev`` to "<layer>.rhs_evals".
RHS_SITES = ("dynamics", "oracle")

# Per-layer metrics reported by a traced run, with their units.  Counts are per
# pass over the workload's op list; times are the median over traced passes.
LAYER_METRICS = (
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("model.calls", "count"),
    ("model.self_s", "s"),
    ("dynamics.survival_amplitude.calls", "count"),
    ("dynamics.survival_amplitude.self_s", "s"),
    ("dynamics.survival_amplitude.samples", "count"),
    ("dynamics.equal_frequency_trajectory.self_s", "s"),
    ("dynamics.general_trajectory.calls", "count"),
    ("dynamics.general_trajectory.self_s", "s"),
    ("dynamics.rhs_evals", "count"),
    ("metrics.compute_metrics.calls", "count"),
    ("metrics.compute_metrics.self_s", "s"),
    ("metrics.maxima.self_s", "s"),
    ("sweep.run_sweep.calls", "count"),
    ("sweep.run_sweep.self_s", "s"),
    ("sweep.points", "count"),
    ("sweep.figure_pipeline.self_s", "s"),
    ("sweep.write_sweep_csv.self_s", "s"),
    ("sweep.bytes_written", "count"),
    ("oracle.build_bath.self_s", "s"),
    ("oracle.propagate.calls", "count"),
    ("oracle.propagate.self_s", "s"),
    ("oracle.rhs_evals", "count"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS) + (
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_frac", "fraction"),
)

COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS if unit == "count")

_NAME, _START, _END, _PARENT, _OP, _PASS = range(6)


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _work_counts(name: str, args, kwargs, result) -> dict[str, int]:
    """Work counters read off a traced call's arguments and result."""
    if name == "dynamics.survival_amplitude":
        t = args[1] if len(args) > 1 else kwargs["t"]
        return {"dynamics.survival_amplitude.samples": int(np.size(t))}
    if name == "sweep.run_sweep":
        return {"sweep.points": len(result.rows)}
    if name == "sweep.write_sweep_csv":
        return {"sweep.bytes_written": _file_bytes([result])}
    if name == "sweep.figure_pipeline":
        return {"sweep.bytes_written": _file_bytes(result)}
    return {}


class Tracer:
    """Collects spans and counters for the passes run under ``installed()``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.unbound: list[str] = []
        self.op = 0
        self.pass_index = 0
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    # -- recording -----------------------------------------------------------

    def _open(self, name: str) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            # A sweep worker thread starts with an empty stack; its caller is
            # the span open on the main thread (run_sweep, blocked in map).
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent,
                               self.op, self.pass_index])
        stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def _add(self, key: str, value: int) -> None:
        with self._lock:
            self.counts[(self.pass_index, key)] += value

    def _span_wrapper(self, name: str, fn):
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._add(f"{layer}.errors", 1)
                raise
            finally:
                self._close(index)
            for key, value in _work_counts(name, args, kwargs, result).items():
                self._add(key, value)
            return result

        return traced

    def _rhs_wrapper(self, layer: str, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            self._add(f"{layer}.rhs_evals", int(sol.nfev))
            return sol

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind every call site to a tracing wrapper; restore on exit."""
        saved = []
        self.unbound = []

        def bind(module, attr, wrapper):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        try:
            for name, sites in SPAN_SITES.items():
                layer, attr = name.split(".", 1)
                home = importlib.import_module(f"qbattery.{layer}")
                original = getattr(home, attr, None)
                if original is None:
                    self.unbound.append(name)
                    continue
                wrapper = self._span_wrapper(name, original)
                for site in sites:
                    module = importlib.import_module(f"qbattery.{site}")
                    if getattr(module, attr, None) is original:
                        bind(module, attr, wrapper)
                    else:
                        self.unbound.append(f"qbattery.{site}.{attr}")
            for site in RHS_SITES:
                module = importlib.import_module(f"qbattery.{site}")
                if hasattr(module, "solve_ivp"):
                    bind(module, "solve_ivp",
                         self._rhs_wrapper(site, module.solve_ivp))
                else:
                    self.unbound.append(f"qbattery.{site}.solve_ivp")
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time of every span: duration minus the union of its children."""
        children: dict[int, list[int]] = defaultdict(list)
        for index, span in enumerate(self.spans):
            if span[_PARENT] is not None:
                children[span[_PARENT]].append(index)
        out = []
        for index, span in enumerate(self.spans):
            start, end = span[_START], span[_END]
            covered, reach = 0.0, start
            kids = sorted((max(self.spans[k][_START], start),
                           min(self.spans[k][_END], end))
                          for k in children.get(index, ()))
            for lo, hi in kids:
                lo = max(lo, reach)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def pass_metrics(self, pass_walls: dict[int, float]) -> dict[int, dict]:
        """Per traced pass: every layer metric except ``trace.overhead_s``."""
        self_time = self.self_times()
        per_pass = {}
        for pass_index, wall in pass_walls.items():
            calls: dict[str, int] = defaultdict(int)
            busy: dict[str, float] = defaultdict(float)
            top = 0.0
            for span, own in zip(self.spans, self_time):
                if span[_PASS] != pass_index:
                    continue
                name = span[_NAME]
                calls[name] += 1
                busy[name] += own
                if span[_PARENT] is None:
                    top += span[_END] - span[_START]
                if name.startswith("model."):
                    calls["model"] += 1
                    busy["model"] += own
            values = {}
            for metric, unit in LAYER_METRICS:
                if metric.startswith("trace."):
                    continue
                if metric.endswith(".calls"):
                    values[metric] = calls[metric[:-len(".calls")]]
                elif metric.endswith(".self_s"):
                    values[metric] = busy[metric[:-len(".self_s")]]
                else:
                    values[metric] = self.counts.get((pass_index, metric), 0)
            values["trace.wall_s"] = wall
            values["trace.unaccounted_frac"] = (wall - top) / wall
            per_pass[pass_index] = values
        return per_pass

    def span_records(self) -> list[list]:
        """Spans with times relative to the first span, for writing out."""
        if not self.spans:
            return []
        origin = self.spans[0][_START]
        return [[s[_NAME], round(s[_START] - origin, 9), round(s[_END] - origin, 9),
                 s[_PARENT], s[_OP], s[_PASS]] for s in self.spans]


def summarize(per_pass: dict[int, dict], untraced_walls: list[float]) -> tuple[dict, list[str]]:
    """Median times over traced passes; counts of the first traced pass.

    Counts differ between passes only if the program carries work over from
    one command to the next, e.g. a cache; that is noted, not an error.
    """
    passes = [per_pass[k] for k in sorted(per_pass)]
    notes = []
    out = {}
    for metric, unit in LAYER_METRICS:
        if metric == "trace.overhead_s":
            continue
        values = [p[metric] for p in passes]
        if unit == "count":
            if len(set(values)) != 1:
                notes.append(f"count {metric} differs between traced passes: {values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    out["trace.overhead_s"] = out["trace.wall_s"] - statistics.median(untraced_walls)
    return out, notes
