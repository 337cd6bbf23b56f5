"""Command-line front end.

Subcommands: timeseries, maxima, sweep, reproduce, oracle-check.  A flat
JSON config file supplies any parameter; flags override config values.
Every run writes a run.json with the fully resolved configuration, enough
to reproduce the outputs bit-exactly.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 oracle tolerance failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (DEFAULT_N_POINTS, ENGINE_CLOSED, ENGINE_PSEUDOMODE,
                       IntegrationError, TimeGrid, default_grid,
                       equal_frequency_trajectory, general_trajectory, trajectory)
from .metrics import MetricsSeries, compute_metrics
from .model import INV_SQRT2, SystemParams, dressed_frame, validate
from .oracle import DEFAULT_N_MODES, DEFAULT_SPAN, build_bath, propagate
from .sweep import (MAXIMA_FIELDS, SweepPointError, SweepSpec, csv_text,
                    figure_pipeline, run_sweep, write_sweep_csv)

ORACLE_TOLERANCE = 5e-3
TIMESERIES_FIELDS = ("t", "re_C1", "im_C1", "re_C2", "im_C2", "E_B", "P_B", "W_B")
OUT_ROOT_ENV = "QBATTERY_OUT"

ENGINE_ALIASES = {"closed": ENGINE_CLOSED, ENGINE_CLOSED: ENGINE_CLOSED,
                  ENGINE_PSEUDOMODE: ENGINE_PSEUDOMODE}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Flat run configuration; mirrors the JSON config file."""

    delta_A: float = 0.0
    delta_B: float = 0.0
    delta_L: float = 0.0
    omega_drive: float = 1.0
    lambda_: float = 1.0
    alpha_T: float = 1.0
    r1: float = INV_SQRT2
    R: float = 0.5
    c01: complex = 1.0 + 0.0j
    c02: complex = 0.0 + 0.0j
    t_max: float | None = None
    n_points: int = DEFAULT_N_POINTS
    engine: str = ENGINE_CLOSED
    tol: float = 1e-9
    threads: int = 1
    out_dir: str | None = None
    axes: tuple = ()
    figure: str | None = None
    n_modes: int = DEFAULT_N_MODES
    span: float = DEFAULT_SPAN

    def params(self) -> SystemParams:
        return validate(SystemParams(**{f.name: getattr(self, f.name)
                                        for f in fields(SystemParams)}))

    def grid(self) -> TimeGrid:
        if self.t_max is None:
            return default_grid(self.params(), self.n_points)
        return TimeGrid.uniform(self.t_max, self.n_points)


_KEY_MAP = {"lambda": "lambda_"}
_KEY_UNMAP = {"lambda_": "lambda"}
_COMPLEX_KEYS = ("c01", "c02")


def _number(value):
    """A finite int or float, returned unchanged."""
    if isinstance(value, bool) or not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _integer(value) -> int:
    if _number(value) != int(value):
        raise ValueError("not an integer")
    return int(value)


def _complex(value) -> complex:
    re, im = value if isinstance(value, (list, tuple)) else (value, 0.0)
    return complex(float(_number(re)), float(_number(im)))


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _axes(value) -> tuple:
    return tuple((str(axis), tuple(float(v) for v in values)) for axis, values in value)


# Parser of each key's value; every other key holds a finite number.
_PARSERS = {"c01": _complex, "c02": _complex, "axes": _axes,
            "n_points": _integer, "threads": _integer, "n_modes": _integer,
            "engine": _string, "out_dir": _string, "figure": _string}


def config_from_dict(data: dict) -> RunConfig:
    defaults = {f.name: f.default for f in fields(RunConfig)}
    updates = {}
    for key, value in data.items():
        name = _KEY_MAP.get(key, key)
        if name not in defaults:
            raise ConfigError(f"unknown config key: {key!r}")
        if value is not None or defaults[name] is not None:
            try:
                value = _PARSERS.get(name, _number)(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"invalid value for {key!r}: {value!r} ({exc})") from exc
        updates[name] = value
    return RunConfig(**updates)


def config_to_dict(config: RunConfig) -> dict:
    out = {}
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name in _COMPLEX_KEYS:
            value = [value.real, value.imag]
        elif f.name == "axes":
            value = [[name, list(vals)] for name, vals in value]
        out[_KEY_UNMAP.get(f.name, f.name)] = value
    return out


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must contain a JSON object")
    return config_from_dict(data)


def _write_run_json(out: Path, command: str, config: RunConfig,
                    outputs: list[str]) -> Path:
    payload = {
        "artifact": "qbattery",
        "version": __version__,
        "command": command,
        "config": config_to_dict(config),
        "oracle_tolerance": ORACLE_TOLERANCE if command == "oracle-check" else None,
        "outputs": outputs,
    }
    path = out / "run.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    newline="\n")
    return path


def _run_metrics(config: RunConfig):
    """Compute the trajectory and metrics for a single-run config."""
    params = config.params()
    frame = dressed_frame(params)
    grid = config.grid()
    traj = trajectory(params, frame, grid, engine=config.engine)
    return traj, compute_metrics(traj, frame.chi_B)


def cmd_timeseries(config: RunConfig, out: Path) -> list[Path]:
    traj, series = _run_metrics(config)
    table = np.column_stack((traj.grid.samples, traj.c1.real, traj.c1.imag,
                             traj.c2.real, traj.c2.imag, series.energy,
                             series.power, series.ergotropy))
    path = out / "timeseries.csv"
    path.write_text(csv_text(TIMESERIES_FIELDS, table.tolist()), newline="\n")
    return [path]


def maxima_csv_text(series: MetricsSeries) -> str:
    return csv_text(MAXIMA_FIELDS, [(
        series.max_energy.value, series.max_energy.time,
        series.max_power.value, series.max_power.time,
        series.max_ergotropy.value, series.max_ergotropy.time)])


def cmd_maxima(config: RunConfig, out: Path) -> list[Path]:
    _, series = _run_metrics(config)
    path = out / "maxima.csv"
    path.write_text(maxima_csv_text(series), newline="\n")
    return [path]


def cmd_sweep(config: RunConfig, out: Path) -> list[Path]:
    spec = SweepSpec(base=config.params(), axes=config.axes,
                     grid=config.grid(), engine=config.engine)
    result = run_sweep(spec, threads=config.threads)
    return [write_sweep_csv(result, out / "sweep.csv")]


def cmd_reproduce(config: RunConfig, out: Path) -> list[Path]:
    if not config.figure:
        raise ConfigError("reproduce requires --figure (e.g. --figure fig2)")
    return figure_pipeline(config.figure, out, n_points=config.n_points)


def cmd_oracle_check(config: RunConfig, out: Path) -> tuple[list[Path], bool]:
    """Compare the discretized-bath ground truth against both engines."""
    params = config.params()
    frame = dressed_frame(params)
    grid = config.grid()
    # The engines run first: they fail fast (exit 3) where the bath would
    # only fail after its whole evaluation budget.
    engines = {ENGINE_PSEUDOMODE: general_trajectory(params, frame, grid)}
    if params.equal_detunings():
        engines[ENGINE_CLOSED] = equal_frequency_trajectory(params, frame, grid)
    bath = build_bath(frame, n_modes=config.n_modes, span=config.span)
    reference = propagate(params, frame, bath, grid, tol=config.tol)
    gaps = {name: float(max(np.max(np.abs(traj.c1 - reference.c1)),
                            np.max(np.abs(traj.c2 - reference.c2))))
            for name, traj in engines.items()}

    report = {
        "tolerance": ORACLE_TOLERANCE,
        "n_modes": bath.n_modes,
        "span": bath.span,
        "norm_drift": float(np.max(np.abs(reference.total_norm - 1.0))),
        "engines": {name: {"sup_norm_gap": gap, "pass": gap <= ORACLE_TOLERANCE}
                    for name, gap in gaps.items()},
    }
    path = out / "oracle_check.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    newline="\n")
    ok = all(entry["pass"] for entry in report["engines"].values())
    for name, entry in sorted(report["engines"].items()):
        status = "PASS" if entry["pass"] else "FAIL"
        print(f"oracle-check {name}: gap {entry['sup_norm_gap']:.3e} "
              f"vs {ORACLE_TOLERANCE:g} -> {status}")
    return [path], ok


def _resolve_out_dir(args, config: RunConfig, command: str) -> Path:
    if args.out:
        out = Path(args.out)
    elif config.out_dir:
        out = Path(config.out_dir)
    else:
        root = os.environ.get(OUT_ROOT_ENV, ".")
        out = Path(root) / command.replace("-", "_")
    out.mkdir(parents=True, exist_ok=True)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Charging dynamics of a driven open quantum battery.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
            ("timeseries", "write amplitude and metric time series as CSV"),
            ("maxima", "write the peak energy/power/ergotropy record"),
            ("sweep", "run a Cartesian parameter sweep"),
            ("reproduce", "regenerate the CSV data behind a published figure"),
            ("oracle-check", "validate engines against the discretized bath")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="path to a flat JSON config file")
        p.add_argument("--out", help=f"output directory (default: ${OUT_ROOT_ENV} "
                                     "or the current directory)")
        p.add_argument("--engine", choices=sorted(ENGINE_ALIASES),
                       help="trajectory engine for single runs and sweeps")
        p.add_argument("--tol", type=float,
                       help="relative tolerance of the oracle's integrator")
        p.add_argument("--threads", type=int, help="worker threads for sweeps")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (JSON-parsed value); "
                            "repeatable")
        if name == "reproduce":
            p.add_argument("--figure", help="figure id, fig2 through fig11")
    return parser


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    updates = {}
    for pair in args.set:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        try:
            updates[key] = json.loads(raw)
        except json.JSONDecodeError:
            updates[key] = raw
    if args.engine:
        updates["engine"] = ENGINE_ALIASES[args.engine]
    if args.tol is not None:
        updates["tol"] = args.tol
    if args.threads is not None:
        updates["threads"] = args.threads
    if getattr(args, "figure", None):
        updates["figure"] = args.figure
    if updates:
        config = config_from_dict({**config_to_dict(config), **updates})
    if config.engine not in (ENGINE_CLOSED, ENGINE_PSEUDOMODE):
        raise ConfigError(f"unknown engine: {config.engine!r}")
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _resolve_config(args)
        out = _resolve_out_dir(args, config, args.command)
        if args.command == "timeseries":
            outputs = cmd_timeseries(config, out)
        elif args.command == "maxima":
            outputs = cmd_maxima(config, out)
        elif args.command == "sweep":
            outputs = cmd_sweep(config, out)
        elif args.command == "reproduce":
            outputs = cmd_reproduce(config, out)
        else:
            outputs, ok = cmd_oracle_check(config, out)
            _write_run_json(out, args.command, config,
                            [p.name for p in outputs])
            if not ok:
                print("oracle-check: tolerance failure", file=sys.stderr)
                return 4
            return 0
        _write_run_json(out, args.command, config, [p.name for p in outputs])
        return 0
    except (SweepPointError, IntegrationError, ValueError, OSError) as exc:
        cause = exc.cause if isinstance(exc, SweepPointError) else exc
        numerical = isinstance(cause, IntegrationError)
        kind = "numerical failure" if numerical else "config error"
        print(f"qbattery: {kind}: {exc}", file=sys.stderr)
        return 3 if numerical else 2


if __name__ == "__main__":
    sys.exit(main())
