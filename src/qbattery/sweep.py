"""Cartesian parameter sweeps and figure-reproduction pipelines.

A sweep is one table, a row per point in lexicographic axis order.  Its
rows are evaluated in chunks of at most BUDGET time samples, in row order
on the calling thread, each chunk as one (points x time) batch that writes
its peaks into its rows.  A chunk of either engine forms only the
battery's amplitude C2 and writes its metric rows into C2's block.  A
chunk's arrays are freed when it ends, and the next chunk reuses their
memory (the allocator policy of dynamics halves the page faults of a
process's first sweep only).  The chunk boundaries depend only on the
grid, and CSV payloads are byte-reproducible (17-significant-digit floats,
no timestamps).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__, dynamics
from .dynamics import (ENGINE_CLOSED, ENGINE_PSEUDOMODE, AmplitudeTrajectory, ClosedForm,
                       TimeGrid, closed_form, closed_form_trajectory, default_grid)
from .metrics import MetricsSeries, compute_metrics
from .model import DressedFrame, SystemParams, dressed_frame, take

AXIS_NAMES = ("omega_drive", "delta_A", "delta_B", "delta_common", "delta_L", "R", "r1")

MAXIMA_FIELDS = ("E_max", "t_E", "P_max", "t_P", "W_max", "t_W")

# Time samples per chunk.  A closed-form chunk holds one complex (2, points,
# time) block, 32 B a sample (38 at its tracemalloc peak): 32 points at 2000
# samples hold 2.0 MB.  A pseudomode chunk holds its (3, points, time) state,
# 48 B a sample (51 at its tracemalloc peak).
BUDGET = 2 ** 16

# Largest Cartesian product of sweep axes: a sweep holds its table and,
# while it runs, the (points,) arrays built once per sweep; its CSV is
# written a block at a time.  A 65536-point, two-axis closed-form sweep on
# 200 samples peaked near 370 B a point in tracemalloc (its chunk's block
# is 2.1 MB of that) and held 64 when done, and writing its CSV (92 B a
# point) added 1.6 MB: one at the cap peaks near 0.39 GB.
MAX_SWEEP_POINTS = 2 ** 20

# The CSV float format: 17 significant digits, so values round-trip.
FLOAT_FORMAT = "%.17g"

# Cells per formatting block of csv_text, whose temporaries take about 0.3 KB
# a cell.  Measured on the figure tables: blocks of 1024 to 4096 cells left
# the peak memory of a run alike and 4096 was the fastest of them; 8192
# cells raised the peak by about 1.2 MB.
CSV_BLOCK = 4096


class SweepPointError(RuntimeError):
    """A failure at one sweep point, with the point attached."""

    def __init__(self, point: dict, cause: Exception):
        super().__init__(f"sweep point {point} failed: {cause}")
        self.point = dict(point)
        self.cause = self.__cause__ = cause


@dataclass(frozen=True)
class SweepSpec:
    base: SystemParams
    axes: tuple[tuple[str, tuple[float, ...]], ...]
    grid: TimeGrid
    engine: str = ENGINE_CLOSED

    def __post_init__(self):
        if self.engine not in (ENGINE_CLOSED, ENGINE_PSEUDOMODE):
            raise ValueError(f"unknown engine: {self.engine!r}")
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
    """A sweep as table, one (points, axes + 6) array: each row the point's
    axis values, then MAXIMA_FIELDS."""

    spec: SweepSpec
    table: np.ndarray

    @functools.cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """The table as SweepRows, built on first read."""
        names = [name for name, _ in self.spec.axes]
        return tuple(SweepRow(dict(zip(names, row)), *row[len(names):])
                     for row in self.table.tolist())


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


@dataclass(frozen=True, eq=False)
class Batch:
    """Points made ready for the engines: their parameters and validated
    dressed frame, each field a number or a (points,) array, and, for the
    closed form, its constants; model.take slices it."""

    params: SystemParams
    frame: DressedFrame
    closed: ClosedForm | None


def prepare(spec: SweepSpec, params: SystemParams,
            frame: DressedFrame | None = None) -> Batch:
    """Validate the points (unless their frame is given) and build what the
    engine needs of them; a ValueError names the first failing point."""
    frame = dressed_frame(params) if frame is None else frame
    closed = closed_form(params, frame) if spec.engine == ENGINE_CLOSED else None
    return Batch(params, frame, closed)


def evaluate(spec: SweepSpec, batch: Batch,
             amplitudes: bool = False) -> tuple[AmplitudeTrajectory | None, MetricsSeries]:
    """Trajectories and metrics of a prepared batch of points, as (points x
    time) arrays, or (time,) arrays where every parameter is a number.

    The base and axes of spec are not used.  This is the one path from
    parameters through the engines to the metrics, with their peaks, that
    sweeps, figures and single runs share; it alone picks a batch's engine.
    Without amplitudes the trajectory is None, and either engine forms
    only C2 and writes the metric rows into its block: 32 B a sample for
    the closed form, 48 for the pseudomode.
    """
    if batch.closed is not None:
        traj = closed_form_trajectory(batch.closed, spec.grid, with_c1=amplitudes)
    else:
        # Looked up on dynamics, so that a rebinding there (perfbench's
        # tracer, a test's call count) sees every chunk's call.
        traj = dynamics.general_trajectory(batch.params, batch.frame, spec.grid,
                                           with_c1=amplitudes)
    block = traj.c2.base if traj.c1 is None else None
    return (traj if amplitudes else None), compute_metrics(traj, batch.frame.chi_B,
                                                           out=block)


def _point(spec: SweepSpec, table: np.ndarray, row: int) -> dict[str, float]:
    """The axis values of one row of a sweep's table, by axis name."""
    return dict(zip([name for name, _ in spec.axes], table[row].tolist()))


def _fill(spec: SweepSpec, table: np.ndarray, batch: Batch, index: slice) -> None:
    """Write the peaks of the points in a slice of the table's rows into them.

    batch holds the sweep's prepared points from row 0 on.  A failure names
    the first failing point in row order: a failing slice's halves are
    evaluated again, first half first, down to the row that raises.
    """
    try:
        _, series = evaluate(spec, take(batch, index))
    except Exception as exc:
        if index.stop - index.start == 1:
            raise SweepPointError(_point(spec, table, index.start), exc) from exc
        middle = (index.start + index.stop) // 2
        _fill(spec, table, batch, slice(index.start, middle))
        _fill(spec, table, batch, slice(middle, index.stop))
        raise
    table[index, -len(MAXIMA_FIELDS):] = np.column_stack(
        [*series.max_energy, *series.max_power, *series.max_ergotropy])


def run_sweep(spec: SweepSpec, threads: int = 1) -> SweepResult:
    """Evaluate every Cartesian point; row order is lexicographic in the axes.

    The points are validated, and the closed form's constants built, once
    for the whole sweep, as (points,) arrays, or, if some fail, for the rows
    before the first of them, which run before it is named.  The rows go in
    chunks of max(1, BUDGET // n_points), in row order on the calling
    thread, each of which computes only its trajectories and metrics from
    its slice of those arrays and writes its peaks into its rows.  A failing
    chunk names its first failing point, and no later chunk starts.
    `threads` has no effect.  An empty axis list gives the base-parameter
    row.
    """
    names = [name for name, _ in spec.axes]
    values = [values for _, values in spec.axes]
    columns = [column.ravel() for column in np.meshgrid(*values, indexing="ij")]
    count = math.prod(map(len, values))
    table = np.empty((count, len(names) + len(MAXIMA_FIELDS)))
    for k, column in enumerate(columns):
        table[:, k] = column
    params = apply_point(spec.base, dict(zip(names, columns)))
    stop, failure = count, None
    while stop:
        try:
            batch = prepare(spec, take(params, slice(0, stop)))
            break
        except ValueError as exc:
            stop = exc.row
            failure = SweepPointError(_point(spec, table, stop), exc)
    else:
        raise failure
    size = max(1, BUDGET // spec.grid.n_points)
    for start in range(0, stop, size):
        _fill(spec, table, batch, slice(start, min(start + size, stop)))
    if failure is not None:
        raise failure
    return SweepResult(spec, table)


# --- CSV float formatting -----------------------------------------------------
#
# csv_text writes every cell as FLOAT_FORMAT % cell, computed for a block of
# cells at once.  A finite nonzero cell x with |x| in about [1e-29, 1e17)
# gets p = 16 - floor(log10|x|), and |x| 10^p is formed as a double-double:
# 10^p = 2^p 5^p is a double plus an exact remainder for p <= 45, the
# product with the double is exact (Dekker), and only the remainder's
# product rounds, by under 1e-14.  The nearest integer N of that number
# holds the 17 significant digits, unless its fraction lies within 2^-30 of
# 1/2, which covers exact ties (rounded half to even by dtoa), or N falls
# outside [10^16, 10^17) because the log10 estimate was one off or the
# digits carry to the next power of ten.  Those cells, and non-finite,
# out-of-range and zero ones, are not certified; zeros are written as '0'
# or '-0' and the rest go through FLOAT_FORMAT % cell itself.  The %g layout
# is a 48-byte template per cell whose bytes are kept by a mask that
# depends only on the decimal exponent, the trailing zeros and the sign;
# one boolean compaction joins the kept bytes.  This is the idea of Grisu
# (Loitsch, PLDI 2010): an exact fast path in machine arithmetic, and a
# fallback wherever it cannot certify its result.

_SPLIT = 134217729.0                  # 2^27 + 1: Dekker's splitter


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _halves(v):
    """v as hi + lo with at most 26 significant bits each."""
    c = v * _SPLIT
    hi = c - (c - v)
    return hi, v - hi


def _powers_of_ten():
    """Rows hi, hi's halves and lo with 10^p = hi + lo exactly, p = 0..45."""
    hi = np.array([float(5 ** p) * 2.0 ** p for p in range(46)])
    lo = np.array([float(5 ** p - int(float(5 ** p))) * 2.0 ** p for p in range(46)])
    return np.stack([hi, *_halves(hi), lo])


def _digit_groups():
    """The four ASCII digits of 0000 to 9999 as little-endian words, and
    their trailing zeros (4 for 0000)."""
    g = np.arange(10000)
    words = sum((g // 10 ** (3 - k) - g // 10 ** (4 - k) * 10 + ord("0")) * 256 ** k
                for k in range(4))
    zeros = np.where(g == 0, 4, sum(g // 10 ** k * 10 ** k == g for k in (1, 2, 3)))
    return words.astype("<u4"), zeros


# The decimal exponents of the fast path, -29 to 16.
_X_MIN = -29
_EXPONENT = range(_X_MIN, 17)


def _keep_masks() -> np.ndarray:
    """The kept bytes of the cell template, one row per cell code.

    The template's twelve 4-byte words are: the separator and '-0.'; '000'
    and the first digit; four words of the other 16 digits; '.', two unused
    bytes and the first digit again; the other digits again; the exponent.
    The first copy of the digits is written up to the dot, the second after
    it.  A fast cell's code is ((X - X_MIN) 17 + zeros) 2 + sign, for the
    decimal exponent X and the trailing zeros of its 17 digits; a fallback
    text of length L sits after the separator and has the code
    FAST_CODES + L.
    """
    x = np.array(_EXPONENT)[:, None, None]
    digits = 17 - np.arange(17)[:, None]
    sci = x < -4
    dot = np.where(sci, 0, np.where(x < 0, -1, x))       # index of the digit before '.'
    kept = np.maximum(digits, dot + 1)                   # digits written
    prefix = np.where(x < 0, 1 - x, 0) * ~sci            # bytes of '0.000'
    j = np.arange(48)
    unsigned = ((j == 0)
                | ((2 <= j) & (j < 7) & (j - 2 < prefix))
                | ((7 <= j) & (j < 24) & (j - 7 <= dot))
                | ((j == 24) & (dot >= 0) & (kept > dot + 1))
                | ((27 <= j) & (j < 44) & (j - 27 > dot) & (j - 27 < kept))
                | ((44 <= j) & sci))
    fast = np.repeat(unsigned.reshape(-1, 48), 2, axis=0)
    fast[1::2, 1] = True                                 # '-'
    slow = j <= np.arange(25)[:, None]
    return np.concatenate([fast, slow])


_FAST_CODES = len(_EXPONENT) * 17 * 2


@functools.cache
def _tables():
    """The formatter's tables, built on its first use: powers of ten,
    digit-group words and trailing zeros, the first digit after '.  ', the
    "e-29" to "e+16" words and the keep-masks."""
    group_word, group_zeros = _digit_groups()
    dot_word = (group_word[:10] - _word(b"000") + _word(b".  ")).astype("<u4")
    exp_word = np.array([_word(b"e%+03d" % x) for x in _EXPONENT], dtype="<u4")
    return _powers_of_ten(), group_word, group_zeros, dot_word, exp_word, _keep_masks()


def _format_cells(x: np.ndarray, width: int) -> bytes:
    """FLOAT_FORMAT % cell for each float64 in x, each after its separator.

    x holds whole rows of width cells; a row's first cell follows '\n', the
    others ','.
    """
    ten, group_word, group_zeros, dot_word, exp_word, keep = _tables()
    zero = x == 0
    ax = np.abs(x)
    fast = (ax >= 1.1e-29) & (ax <= 9.9e16)              # False for 0, nan and inf
    ax[~fast] = 1.0                                      # exponent 0: a zero reads '0'
    p = (16.0 - np.floor(np.log10(ax))).astype(np.intp)
    hi, hi_hi, hi_lo, lo = np.take(ten, p, axis=1)
    ph = ax * hi
    ah, al = _halves(ax)
    # ph + t = |x| 10^p; ph is an integer, t its rounded remainder.
    t = (((ah * hi_hi - ph) + ah * hi_lo + al * hi_hi) + al * hi_lo) + ax * lo
    floor_t = np.floor(t)
    t -= floor_t
    fast &= np.abs(t - 0.5) > 2.0 ** -30
    low = ph.astype(np.int64) + floor_t.astype(np.int64)
    N = low + (t > 0.5)
    fast &= (low >= 10 ** 16) & (N < 10 ** 17)
    N[~fast] = 0
    x_code = 16 - _X_MIN - p

    # The first digit and four groups of four, each group's word and zeros.
    groups = np.empty((5, x.size), np.int64)
    np.floor_divide(N, 10 ** 16, out=groups[0])
    N -= groups[0] * 10 ** 16
    high = N // 10 ** 8
    N -= high * 10 ** 8
    np.floor_divide(high, 10 ** 4, out=groups[1])
    np.subtract(high, groups[1] * 10 ** 4, out=groups[2])
    np.floor_divide(N, 10 ** 4, out=groups[3])
    np.subtract(N, groups[3] * 10 ** 4, out=groups[4])
    group_words = group_word[groups]
    tz = group_zeros[groups[1:]]
    z = tz == 4
    code = ((x_code * 17 + (tz[3] + z[3] * (tz[2] + z[2] * (tz[1] + z[1] * tz[0])))) * 2
            + np.signbit(x))

    cells = np.empty((x.size, 48), np.uint8)
    words = cells.view("<u4")
    words[:, 0] = _word(b",-0.")                         # separator, then '-0.'
    words[::width, 0] = _word(b"\n-0.")
    words[:, 1:6] = group_words.T
    words[:, 6] = dot_word[groups[0]]
    words[:, 7:11] = group_words[1:].T
    words[:, 11] = exp_word[x_code]
    slow = np.flatnonzero(~(fast | zero))
    for i, value in zip(slow.tolist(), x[slow].tolist()):
        text = (FLOAT_FORMAT % value).encode()
        cells[i, 1:1 + len(text)] = np.frombuffer(text, np.uint8)
        code[i] = _FAST_CODES + len(text)
    return cells[np.take(keep, code, axis=0)].tobytes()


def _csv_blocks(header, columns):
    """csv_text's bytes in pieces, each block made when it is read; the
    columns are checked at the call."""
    columns = [np.asarray(column, dtype=np.float64) for column in columns]
    shapes = [column.shape for column in columns]
    width = len(header)
    if not width or len(columns) != width or len(set(shapes)) != 1 or len(shapes[0]) != 1:
        raise ValueError(f"columns of shapes {shapes} for {width} header fields: "
                         f"each field needs one 1-D column, all of one length")
    step = max(1, CSV_BLOCK // width)
    # A block's cells in row order, gathered from the columns' slices.
    blocks = (_format_cells(np.stack([column[k:k + step] for column in columns],
                                     axis=1).ravel(), width)
              for k in range(0, len(columns[0]), step))
    return itertools.chain([",".join(header).encode()], blocks, [b"\n"])


def csv_text(header, columns) -> str:
    """A CSV file: the header, then one line per row of floats.

    columns holds one 1-D array of floats (or anything np.asarray turns into
    one) per header field, all of one length: row i is the i-th value of
    each.  Any other count, length or shape, or an empty header, raises
    ValueError.  Every cell reads as FLOAT_FORMAT % cell: the rows are
    formatted CSV_BLOCK cells at a time by a certified fast path in numpy,
    with FLOAT_FORMAT % cell itself wherever that path cannot vouch for its
    digits, and each block decoded as it is made, so the text is held twice
    at most.
    """
    return "".join([block.decode() for block in _csv_blocks(header, columns)])


def write_csv(path, header, columns) -> Path:
    """Write csv_text(header, columns) to path block by block, checking the
    columns before the file is opened."""
    path = Path(path)
    blocks = _csv_blocks(header, columns)
    with path.open("wb") as file:
        file.writelines(blocks)
    return path


def write_json(path, payload) -> Path:
    """Write payload as indented JSON with sorted keys and a final newline."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", newline="\n")
    return path


def _sweep_header(result: SweepResult) -> list[str]:
    return [f"param_{name}" for name, _ in result.spec.axes] + list(MAXIMA_FIELDS)


def sweep_csv_text(result: SweepResult) -> str:
    return csv_text(_sweep_header(result), result.table.T)


def write_sweep_csv(result: SweepResult, path) -> Path:
    return write_csv(path, _sweep_header(result), result.table.T)


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


def figure_pipeline(figure_id: str, out_dir,
                    n_points: int = dynamics.DEFAULT_N_POINTS) -> list[Path]:
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
        family = apply_point(spec.base, {family_name: np.array(family_values)})
        _, series = evaluate(spec, prepare(spec, family))
        first_header, first_column, suffix = "lambda_t", grid.samples, ""
        panels = {metric: getattr(series, metric) for _, metric, _ in _PANELS}
    else:
        spec = SweepSpec(base=apply_point(base, fig.fixed),
                         axes=((family_name, family_values),
                               ("omega_drive", OMEGA_AXIS)), grid=grid)
        peaks = run_sweep(spec).table[:, -len(MAXIMA_FIELDS):]
        first_header, first_column, suffix = "omega_drive", np.asarray(OMEGA_AXIS), "_max"
        panels = {metric: peaks[:, MAXIMA_FIELDS.index(field)].reshape(
                      len(family_values), len(OMEGA_AXIS))
                  for _, metric, field in _PANELS}

    header = [first_header] + [f"{family_name}={value:g}" for value in family_values]
    written: list[Path] = []
    for panel, metric, _ in _PANELS:
        written.append(write_csv(out / f"{figure_id}{panel}_{metric}{suffix}.csv",
                                 header, (first_column, *panels[metric])))

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
