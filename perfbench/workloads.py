"""Seeded workloads: the CLI commands of one pass and the checks on their outputs.

A pass is a fixed list of ``qbattery`` commands made from the seed.  The seed
draws parameter values (stratified, so every seed does about the same amount
of work) and the order of the commands; the shapes, sizes and engines are part
of the workload.  The runner repeats the pass, so the first pass's outputs are
checked against an independent engine and every later pass must reproduce
them byte for byte.

Every value handed to ``--set`` is a plain Python float written with ``repr``,
which the CLI's JSON parsing reads back exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field

from qbattery import (SystemParams, compute_metrics, default_grid, dressed_frame,
                      equal_frequency_trajectory, general_trajectory)

# Acceptance gate 2 (closed form vs pseudomode) and the oracle's
# certification tolerance and norm-conservation abort threshold.
ENGINE_TOL = 1e-6
ORACLE_TOL = 5e-3
NORM_TOL = 1e-6

MAXIMA_COLUMNS = ("E_max", "t_E", "P_max", "t_P", "W_max", "t_W")
VALUE_COLUMNS = ("E_max", "P_max", "W_max")

FIGURES_TIMESERIES = ("fig2", "fig3", "fig4", "fig7", "fig8", "fig9")
FIGURES_MAXIMA = ("fig5", "fig6", "fig10", "fig11")
FAMILY_SIZE = 4        # members per figure family
OMEGA_AXIS_SIZE = 41   # drive values on the peak figures' x axis


@dataclass(frozen=True)
class Op:
    """One CLI command; ``argv`` omits ``--out``, which the runner supplies."""

    argv: tuple[str, ...]
    points: int
    info: dict = field(default_factory=dict, compare=False)


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One value in the middle half of each of n equal bins of [lo, hi].

    The engines' cost depends on the parameter values, so the bins fix the
    work and the seed only moves each value within its bin.  Rounded to 1e-6.
    """
    width = (hi - lo) / n
    return [round(lo + (k + 0.25 + 0.5 * rng.random()) * width, 6) for k in range(n)]


def _set(key: str, value) -> tuple[str, str]:
    return ("--set", f"{key}={json.dumps(value)}")


def _parse_csv(data: bytes) -> tuple[list[str], list[list[float]]]:
    reader = csv.reader(io.StringIO(data.decode()))
    header = next(reader)
    rows = [[float(cell) for cell in row] for row in reader]
    return header, rows


def _finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def _close(a: float, b: float, chi: float) -> bool:
    # Energy, power and ergotropy scale with the battery splitting chi_B.
    return abs(a - b) <= ENGINE_TOL * max(1.0, chi)


def _run_json_problems(files: dict[str, bytes], command: str) -> list[str]:
    if "run.json" not in files:
        return ["run.json missing"]
    if json.loads(files["run.json"]).get("command") != command:
        return ["run.json names another command"]
    return []


def _sweep_rows(op: Op, files: dict[str, bytes]) -> tuple[list[dict], list[str]]:
    """Parse sweep.csv; its rows must be the Cartesian points in axis order."""
    problems = _run_json_problems(files, "sweep")
    if "sweep.csv" not in files:
        return [], problems + ["sweep.csv missing"]
    header, rows = _parse_csv(files["sweep.csv"])
    axes = op.info["axes"]
    names = [name for name, _ in axes]
    if header != [f"param_{n}" for n in names] + list(MAXIMA_COLUMNS):
        return [], problems + [f"unexpected sweep.csv header {header}"]
    expected = list(itertools.product(*(values for _, values in axes)))
    if [tuple(row[:len(names)]) for row in rows] != expected:
        problems.append("sweep.csv rows are not the Cartesian points in order")
    if not _finite(rows):
        problems.append("sweep.csv holds a non-finite value")
    return [dict(zip(header, row)) for row in rows], problems


def _compare_engine(row: dict, base_R: float, engine) -> list[str]:
    """Recompute one sweep row's peaks with ``engine`` on the sweep's grid.

    A sweep takes its default window from the configured R, not from the R
    of each point, so the grid is the one of the base R.
    """
    if "param_delta_common" in row:
        delta_A = delta_B = row["param_delta_common"]
    else:
        delta_A, delta_B = row["param_delta_A"], row["param_delta_B"]
    params = SystemParams(delta_A=delta_A, delta_B=delta_B,
                          delta_L=row.get("param_delta_L", 0.0),
                          omega_drive=row["param_omega_drive"],
                          R=row.get("param_R", base_R))
    frame = dressed_frame(params)
    grid = default_grid(SystemParams(R=base_R))
    series = compute_metrics(engine(params, frame, grid), frame.chi_B)
    reference = {"E_max": series.max_energy.value, "P_max": series.max_power.value,
                 "W_max": series.max_ergotropy.value}
    return [f"{col} {row[col]!r} vs {reference[col]!r} at {params}"
            for col in VALUE_COLUMNS
            if not _close(row[col], reference[col], frame.chi_B)]


class Workload:
    """A named pass generator with the checks on its commands' outputs."""

    name = ""

    def ops(self, seed: int) -> list[Op]:
        raise NotImplementedError

    def warmup(self, ops: list[Op]) -> list[Op]:
        """Commands run once, untimed, before the body."""
        return ops[:1]

    def check(self, op: Op, files: dict[str, bytes]) -> list[str]:
        """Problems with one command's output files; empty when correct."""
        raise NotImplementedError


class SweepClosed(Workload):
    """Cartesian closed-form sweeps of 8 to 200 points at the default 1 thread."""

    name = "sweep_closed"
    # (omega_drive, delta_common, delta_L) axis lengths; the R axis is always
    # {0.5, 10}.  19 sizes from 8 to 200 points.  The configured R, which
    # picks the time window of the whole sweep, alternates between 0.5 and 10
    # so both default windows occur.
    shapes = ((2, 2, 1), (3, 2, 1), (2, 2, 2), (5, 2, 1), (3, 2, 2), (4, 2, 2),
              (3, 3, 2), (5, 2, 2), (4, 3, 2), (5, 3, 2), (4, 4, 2), (6, 3, 2),
              (5, 4, 2), (4, 4, 3), (5, 4, 3), (6, 4, 3), (5, 5, 3), (6, 5, 3),
              (5, 5, 4))

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for k, (n_omega, n_delta, n_L) in enumerate(self.shapes):
            base_R = 0.5 if k % 2 == 0 else 10.0
            axes = (("omega_drive", _stratified(rng, n_omega, 0.0, 2.0)),
                    ("delta_common", _stratified(rng, n_delta, 0.0, 5.0)),
                    ("delta_L", _stratified(rng, n_L, 0.0, 10.0)),
                    ("R", [0.5, 10.0]))
            points = n_omega * n_delta * n_L * 2
            ops.append(Op(argv=("sweep", *_set("R", base_R),
                                *_set("axes", [list(a) for a in axes])),
                          points=points,
                          info={"axes": axes, "R": base_R,
                                "check_row": rng.randrange(points)}))
        rng.shuffle(ops)
        return ops

    def check(self, op: Op, files: dict[str, bytes]) -> list[str]:
        rows, problems = _sweep_rows(op, files)
        if rows and not problems:
            problems += _compare_engine(rows[op.info["check_row"]], op.info["R"],
                                        general_trajectory)
        return problems


class SweepPseudomode(Workload):
    """Pseudomode sweeps over unequal delta_A x delta_B x omega_drive, 2 threads."""

    name = "sweep_pseudomode"
    # (R, n_delta_A, n_delta_B, n_omega); delta_A and delta_B share exactly one
    # value, the lowest, so every sweep holds n_omega equal-detuning points.
    shapes = ((0.5, 2, 2, 2), (0.5, 2, 3, 2), (0.5, 3, 3, 2),
              (10.0, 2, 2, 2), (10.0, 2, 3, 2))

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        ops = []
        for R, n_A, n_B, n_omega in self.shapes:
            deltas = _stratified(rng, n_A + n_B - 1, 0.0, 5.0)
            delta_A, delta_B = deltas[:n_A], deltas[:1] + deltas[n_A:]
            axes = (("delta_A", delta_A), ("delta_B", delta_B),
                    ("omega_drive", _stratified(rng, n_omega, 0.0, 2.0)))
            ops.append(Op(argv=("sweep", "--engine", "pseudomode", "--threads", "2",
                                *_set("R", R), *_set("axes", [list(a) for a in axes])),
                          points=n_A * n_B * n_omega, info={"axes": axes, "R": R}))
        rng.shuffle(ops)
        return ops

    def check(self, op: Op, files: dict[str, bytes]) -> list[str]:
        rows, problems = _sweep_rows(op, files)
        if problems:
            return problems
        equal = [row for row in rows if row["param_delta_A"] == row["param_delta_B"]]
        if not equal:
            return ["no equal-detuning point in the sweep"]
        for row in equal:
            problems += _compare_engine(row, op.info["R"], equal_frequency_trajectory)
        return problems


class ReproduceFigures(Workload):
    """``qbattery reproduce`` for fig2..fig11; the seed only permutes the order."""

    name = "reproduce_figures"

    def ops(self, seed: int) -> list[Op]:
        figures = list(FIGURES_TIMESERIES + FIGURES_MAXIMA)
        random.Random(seed).shuffle(figures)
        return [Op(argv=("reproduce", "--figure", fig),
                   points=FAMILY_SIZE * (OMEGA_AXIS_SIZE if fig in FIGURES_MAXIMA else 1),
                   info={"figure": fig})
                for fig in figures]

    def check(self, op: Op, files: dict[str, bytes]) -> list[str]:
        figure = op.info["figure"]
        meta_name = f"{figure}_metadata.json"
        problems = _run_json_problems(files, "reproduce")
        if meta_name not in files:
            return problems + [f"{meta_name} missing"]
        listed = json.loads(files[meta_name])["files"]
        if len(listed) != 3:
            problems.append(f"{meta_name} lists {len(listed)} panels, not 3")
        for name in listed:
            if name not in files:
                problems.append(f"{name} missing")
                continue
            header, rows = _parse_csv(files[name])
            width = FAMILY_SIZE + 1
            if len(header) != width or any(len(row) != width for row in rows):
                problems.append(f"{name} does not have {width} columns")
            if not rows or not _finite(rows):
                problems.append(f"{name} is empty or holds a non-finite value")
        return problems


class OracleCheck(Workload):
    """``qbattery oracle-check`` near the two certification points.

    The certification points are weak coupling with equal detunings (the
    defaults) and R = 10 with delta_B = 4.  The seed moves each by a small
    offset; a pass holds one command per point, so each command repeats
    several times within a run even though one takes over a second.
    """

    name = "oracle_check"

    def ops(self, seed: int) -> list[Op]:
        rng = random.Random(seed)
        delta = round(rng.uniform(0.0, 0.25), 6)
        weak = Op(argv=("oracle-check",
                        *_set("omega_drive", round(rng.uniform(0.9, 1.1), 6)),
                        *_set("delta_A", delta), *_set("delta_B", delta)),
                  points=1, info={"equal": True})
        strong = Op(argv=("oracle-check", *_set("R", 10.0),
                          *_set("omega_drive", round(rng.uniform(0.9, 1.1), 6)),
                          *_set("delta_B", round(rng.uniform(3.8, 4.2), 6))),
                    points=1, info={"equal": False})
        ops = [weak, strong]
        rng.shuffle(ops)
        return ops

    def warmup(self, ops: list[Op]) -> list[Op]:
        # A small bath walks the same code without the full 4000-mode cost.
        return [Op(argv=("oracle-check", *_set("n_modes", 400), *_set("span", 10.0)),
                   points=1, info={"equal": True})]

    def check(self, op: Op, files: dict[str, bytes]) -> list[str]:
        problems = _run_json_problems(files, "oracle-check")
        if "oracle_check.json" not in files:
            return problems + ["oracle_check.json missing"]
        report = json.loads(files["oracle_check.json"])
        engines = report["engines"]
        expected = {"pseudomode", "closed_form"} if op.info["equal"] else {"pseudomode"}
        if set(engines) != expected:
            problems.append(f"engines {sorted(engines)}, expected {sorted(expected)}")
        for name, entry in engines.items():
            gap = entry["sup_norm_gap"]
            if not (math.isfinite(gap) and gap <= ORACLE_TOL and entry["pass"]):
                problems.append(f"{name} gap {gap!r} exceeds {ORACLE_TOL}")
        drift = report["norm_drift"]
        if not (math.isfinite(drift) and drift <= NORM_TOL):
            problems.append(f"norm drift {drift!r} exceeds {NORM_TOL}")
        return problems


WORKLOADS = {w.name: w for w in (SweepClosed(), SweepPseudomode(),
                                 ReproduceFigures(), OracleCheck())}
