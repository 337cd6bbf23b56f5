"""Cartesian parameter sweeps and figure-reproduction pipelines.

Sweep points are evaluated in chunks of at most BUDGET time samples, each
chunk as one (points x time) batch through the engines and metrics, by
workers that each take the next chunk when free; the calling thread is one
of them.  A chunk's arrays are freed when it ends, and the allocator policy
set at import of dynamics lets the next chunk reuse their memory.  The
chunk boundaries depend only on the grid, so rows are bit-identical and
come back in lexicographic axis order for every thread count, and CSV
payloads are byte-reproducible (17-significant-digit floats, no
timestamps).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (ENGINE_CLOSED, AmplitudeTrajectory, TimeGrid, default_grid,
                       trajectory)
from .metrics import MetricsSeries, compute_metrics
from .model import SystemParams, dressed_frame

AXIS_NAMES = ("omega_drive", "delta_A", "delta_B", "delta_common", "delta_L", "R", "r1")

MAXIMA_FIELDS = ("E_max", "t_E", "P_max", "t_P", "W_max", "t_W")

# Time samples per chunk: keeps each (points x time) temporary near 0.5 MB.
BUDGET = 2 ** 15

# Largest Cartesian product of sweep axes: a sweep holds one point dict, one
# row and one CSV line per point, about 0.75 KB, so one at the cap peaks near
# 0.8 GB.
MAX_SWEEP_POINTS = 2 ** 20

# The CSV float format: 17 significant digits, so values round-trip.
FLOAT_FORMAT = "%.17g"


class SweepPointError(RuntimeError):
    """Engine failure at one sweep point, with the point attached."""

    def __init__(self, point: dict, cause: Exception):
        super().__init__(f"sweep point {point} failed: {cause}")
        self.point = dict(point)
        self.cause = cause


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    grid: TimeGrid
    engine: str = ENGINE_CLOSED

    def __post_init__(self):
        axes = tuple((str(name), tuple(float(v) for v in values))
                     for name, values in self.axes)
        names = [name for name, _ in axes]
        for name, values in axes:
            if names.count(name) > 1:
                raise ValueError(f"repeated sweep axis: {name!r}")
            if name not in AXIS_NAMES:
                raise ValueError(f"unknown sweep axis: {name!r}")
            if not values:
                raise ValueError(f"empty value list for axis {name!r}")
            if not all(math.isfinite(v) for v in values):
                raise ValueError(f"non-finite value on axis {name!r}")
            if name in ("delta_A", "delta_B") and "delta_common" in names:
                raise ValueError(f"sweep axes 'delta_common' and {name!r} conflict: "
                                 f"delta_common sets both delta_A and delta_B")
        count = math.prod(len(values) for _, values in axes)
        if count > MAX_SWEEP_POINTS:
            raise ValueError(f"sweep of {count} points exceeds MAX_SWEEP_POINTS "
                             f"= {MAX_SWEEP_POINTS}")
        object.__setattr__(self, "axes", axes)


@dataclass(frozen=True)
class SweepRow:
    point: dict[str, float]
    E_max: float
    t_E: float
    P_max: float
    t_P: float
    W_max: float
    t_W: float


@dataclass(frozen=True, eq=False)
class SweepResult:
    spec: SweepSpec
    rows: tuple[SweepRow, ...]


def apply_point(base: SystemParams, point: dict) -> SystemParams:
    """Override base parameters with one point, or a batch of (points,) arrays."""
    updates = {}
    for name, value in point.items():
        if name == "delta_common":
            updates["delta_A"] = value
            updates["delta_B"] = value
        else:
            updates[name] = value
    return replace(base, **updates)


def evaluate(spec: SweepSpec,
             points: list[dict[str, float]]) -> tuple[AmplitudeTrajectory, MetricsSeries]:
    """Trajectories and metrics of a batch of points, as (points x time) arrays.

    Each point overrides spec.base as one (points,) array per axis; points
    that override nothing are the base point alone, with (time,) arrays.
    The axes of spec are not used.  This is the one path from parameters
    through the engines to the metrics, with their peaks, that sweeps,
    figures and single runs share.
    """
    params = apply_point(spec.base, {name: np.array([point[name] for point in points])
                                     for name in points[0]})
    frame = dressed_frame(params)
    traj = trajectory(params, frame, spec.grid, spec.engine)
    return traj, compute_metrics(traj, frame.chi_B)


def _rows(spec: SweepSpec, points: list[dict[str, float]]) -> list[SweepRow]:
    """The rows of one chunk of points, as Python floats.

    A failure names the first failing point in row order: the chunk is then
    evaluated again point by point until that point raises.
    """
    try:
        _, series = evaluate(spec, points)
    except Exception as exc:
        if len(points) == 1:
            raise SweepPointError(points[0], exc) from exc
        for point in points:
            _rows(spec, [point])
        raise
    peaks = np.column_stack([series.max_energy.value, series.max_energy.time,
                             series.max_power.value, series.max_power.time,
                             series.max_ergotropy.value, series.max_ergotropy.time])
    rows = zip(points, peaks.tolist(), strict=True)
    return [SweepRow(point, *peak) for point, peak in rows]


def _drain(spec: SweepSpec, chunks: list, todo: deque, results: list) -> None:
    """Evaluate the chunks popped from `todo`; results[i] gets chunk i's rows
    or exception.  A failure empties `todo`: no later chunk starts."""
    with contextlib.suppress(IndexError):        # popleft on an empty deque
        for index in iter(todo.popleft, None):
            try:
                results[index] = _rows(spec, chunks[index])
            except Exception as exc:
                results[index] = exc
                todo.clear()


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Evaluate every Cartesian point; row order is lexicographic in the axes.

    The points go in chunks of max(1, BUDGET // n_points).  Up to `threads`
    workers, the calling thread and a pool, each take the next chunk when
    free.  A failure names the first failing point in row order.  An empty
    axis list gives the base-parameter row.
    """
    names = [name for name, _ in spec.axes]
    points = [dict(zip(names, combo))
              for combo in itertools.product(*(values for _, values in spec.axes))]
    size = max(1, BUDGET // spec.grid.n_points)
    chunks = [points[k:k + size] for k in range(0, len(points), size)]
    todo, results = deque(range(len(chunks))), [None] * len(chunks)
    workers = max(1, min(threads, len(chunks)))
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:
        rest = [pool.submit(_drain, spec, chunks, todo, results) for _ in range(workers - 1)]
        _drain(spec, chunks, todo, results)
        for worker in rest:
            worker.result()
    for chunk_rows in results:
        if isinstance(chunk_rows, Exception):
            raise chunk_rows
    return SweepResult(spec=spec, rows=tuple(itertools.chain.from_iterable(results)))


def csv_text(header, rows) -> str:
    """A CSV file: the header, then one line per row of floats.

    Each line is formatted in one step; every cell reads as
    FLOAT_FORMAT % cell.
    """
    line = ",".join([FLOAT_FORMAT] * len(header))
    return "\n".join([",".join(header)] + [line % tuple(row) for row in rows]) + "\n"


def write_json(path, payload) -> Path:
    """Write payload as indented JSON with sorted keys and a final newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")
    return path


def sweep_csv_text(result: SweepResult) -> str:
    names = [name for name, _ in result.spec.axes]
    header = [f"param_{n}" for n in names] + list(MAXIMA_FIELDS)
    return csv_text(header, ([row.point[n] for n in names]
                             + [getattr(row, f) for f in MAXIMA_FIELDS]
                             for row in result.rows))


def write_sweep_csv(result: SweepResult, path) -> Path:
    path = Path(path)
    path.write_text(sweep_csv_text(result), newline="\n")
    return path


# --- figure pipelines -------------------------------------------------------
#
# The published figure captions fix R, the detunings and r1 = 1/sqrt(2) but
# not the family values; the grids below are documented defaults and are
# recorded in each figure's metadata file.

OMEGA_FAMILY = (0.0, 0.5, 1.0, 2.0)
DELTA_FAMILY = (0.0, 1.0, 3.0, 5.0)
DELTA_L_FAMILY = (0.0, 2.0, 5.0, 10.0)
OMEGA_AXIS = tuple(np.linspace(0.0, 2.0, 41))


@dataclass(frozen=True)
class FigureSpec:
    R: float
    kind: str                      # "timeseries" | "maxima"
    family: tuple[str, tuple[float, ...]]
    fixed: dict[str, float]


FIGURES: dict[str, FigureSpec] = {
    "fig2": FigureSpec(0.5, "timeseries", ("omega_drive", OMEGA_FAMILY),
                       {"delta_common": 0.0, "delta_L": 0.0}),
    "fig3": FigureSpec(0.5, "timeseries", ("delta_common", DELTA_FAMILY),
                       {"omega_drive": 1.0, "delta_L": 0.0}),
    "fig4": FigureSpec(0.5, "timeseries", ("delta_L", DELTA_L_FAMILY),
                       {"omega_drive": 1.0, "delta_common": 0.0}),
    "fig5": FigureSpec(0.5, "maxima", ("delta_common", DELTA_FAMILY),
                       {"delta_L": 0.0}),
    "fig6": FigureSpec(0.5, "maxima", ("delta_L", DELTA_L_FAMILY),
                       {"delta_common": 0.0}),
    "fig7": FigureSpec(10.0, "timeseries", ("omega_drive", OMEGA_FAMILY),
                       {"delta_common": 0.0, "delta_L": 0.0}),
    "fig8": FigureSpec(10.0, "timeseries", ("delta_common", DELTA_FAMILY),
                       {"omega_drive": 1.0, "delta_L": 0.0}),
    "fig9": FigureSpec(10.0, "timeseries", ("delta_L", DELTA_L_FAMILY),
                       {"omega_drive": 1.0, "delta_common": 0.0}),
    "fig10": FigureSpec(10.0, "maxima", ("delta_common", DELTA_FAMILY),
                        {"delta_L": 0.0}),
    "fig11": FigureSpec(10.0, "maxima", ("delta_L", DELTA_L_FAMILY),
                        {"delta_common": 0.0}),
}

# Panel letter, metric, and the SweepRow field that holds the metric's peak.
_PANELS = (("a", "power", "P_max"), ("b", "energy", "E_max"), ("c", "ergotropy", "W_max"))


def figure_pipeline(figure_id: str, out_dir, n_points: int = 2000) -> list[Path]:
    """Emit one CSV per panel plus a metadata file for a published figure.

    A time-series panel tabulates the metric of each family member against
    lambda t; a peak panel tabulates the metric's peak against omega_drive.
    """
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id: {figure_id!r} "
                         f"(known: {', '.join(sorted(FIGURES))})")
    fig = FIGURES[figure_id]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    base = SystemParams(R=fig.R)
    grid = default_grid(base, n_points)
    family_name, family_values = fig.family

    # One (family x samples) array per panel metric.
    if fig.kind == "timeseries":
        spec = SweepSpec(base=apply_point(base, fig.fixed), axes=(), grid=grid)
        _, series = evaluate(spec, [{family_name: v} for v in family_values])
        first_header, first_column, suffix = "lambda_t", grid.samples, ""
        panels = {metric: getattr(series, metric) for _, metric, _ in _PANELS}
    else:
        spec = SweepSpec(base=apply_point(base, fig.fixed),
                         axes=((family_name, family_values),
                               ("omega_drive", OMEGA_AXIS)), grid=grid)
        rows = run_sweep(spec).rows
        first_header, first_column, suffix = "omega_drive", np.asarray(OMEGA_AXIS), "_max"
        panels = {metric: np.reshape([getattr(r, field) for r in rows],
                                     (len(family_values), len(OMEGA_AXIS)))
                  for _, metric, field in _PANELS}

    header = [first_header] + [f"{family_name}={value:g}" for value in family_values]
    written: list[Path] = []
    for panel, metric, _ in _PANELS:
        table = np.column_stack((first_column, panels[metric].T))
        path = out / f"{figure_id}{panel}_{metric}{suffix}.csv"
        path.write_text(csv_text(header, table.tolist()), newline="\n")
        written.append(path)

    meta = {
        "artifact": "qbattery",
        "version": __version__,
        "figure": figure_id,
        "kind": fig.kind,
        "R": fig.R,
        "family_axis": family_name,
        "family_values": list(family_values),
        "fixed": dict(fig.fixed),
        "defaults": {"r1": base.r1,
                     "c01": [base.c01.real, base.c01.imag],
                     "c02": [base.c02.real, base.c02.imag],
                     "omega_axis": list(OMEGA_AXIS) if fig.kind == "maxima" else None},
        "grid": {"t_max": grid.t_max, "n_points": grid.n_points},
        "engine": spec.engine,
        "files": [p.name for p in written],
    }
    written.append(write_json(out / f"{figure_id}_metadata.json", meta))
    return written
