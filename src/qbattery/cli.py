"""Command-line front end.

Subcommands: timeseries, maxima, sweep, reproduce, oracle-check.  A flat
JSON config file supplies any parameter.  Its keys, then the --set KEY=VALUE
pairs, then the flags --engine, --threads and --figure (each read exactly
as --set KEY=VALUE) merge into one dict, a later value of a key
replacing an earlier one, which config_from_dict parses once.  Every run
writes a run.json with the fully resolved configuration (for reproduce, the
keys it reads), enough to reproduce the outputs bit-exactly when fed back
as a config file.

Exit codes: 0 success, 2 config error, 3 numerical failure,
4 oracle tolerance failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import (DEFAULT_N_POINTS, ENGINE_CLOSED, ENGINE_PSEUDOMODE,
                       IntegrationError, TimeGrid, default_grid)
from .model import SystemParams, dressed_frame
from .oracle import DEFAULT_N_MODES, DEFAULT_SPAN, build_bath, propagate
from .sweep import (SweepPointError, SweepSpec, csv_text, evaluate,
                    figure_pipeline, run_sweep, write_json, write_sweep_csv)

ORACLE_TOLERANCE = 5e-3
TIMESERIES_FIELDS = ("t", "re_C1", "im_C1", "re_C2", "im_C2", "E_B", "P_B", "W_B")
OUT_ROOT_ENV = "QBATTERY_OUT"

ENGINE_ALIASES = {"closed": ENGINE_CLOSED, ENGINE_CLOSED: ENGINE_CLOSED,
                  ENGINE_PSEUDOMODE: ENGINE_PSEUDOMODE}

# Most worker threads a sweep may ask for; a sweep starts up to one per chunk.
MAX_THREADS = 64

# The flags that set a config key, with their help; each flag is read
# exactly as --set KEY=VALUE.
FLAGS = {"engine": "trajectory engine: closed_form (alias closed) or pseudomode",
         "threads": f"worker threads for sweeps, 1 to {MAX_THREADS}",
         "figure": "figure id, fig2 through fig11"}

# The config keys reproduce reads; every figure fixes the rest itself.
REPRODUCE_KEYS = ("figure", "n_points", "out_dir")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig(SystemParams):
    """Flat run configuration; mirrors the JSON config file.

    The physical parameters with their defaults, plus the run settings.
    """

    t_max: float | None = None
    n_points: int = DEFAULT_N_POINTS
    engine: str = ENGINE_CLOSED
    threads: int = 1
    out_dir: str | None = None
    axes: tuple = ()
    figure: str | None = None
    n_modes: int = DEFAULT_N_MODES
    span: float = DEFAULT_SPAN

    def spec(self, axes=()) -> SweepSpec:
        """The configured point as the base of a sweep over axes.

        The base point is validated where its frame is built, like every
        point of the sweep.
        """
        base = SystemParams(**{f.name: getattr(self, f.name) for f in fields(SystemParams)})
        grid = (default_grid(base, self.n_points) if self.t_max is None
                else TimeGrid.uniform(self.t_max, self.n_points))
        return SweepSpec(base=base, axes=axes, grid=grid, engine=self.engine)


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


def _threads(value) -> int:
    threads = _integer(value)
    if not 1 <= threads <= MAX_THREADS:
        raise ValueError(f"need 1 to {MAX_THREADS} threads")
    return threads


def _engine(value) -> str:
    if value not in ENGINE_ALIASES:
        raise ValueError(f"unknown engine; known: {', '.join(sorted(ENGINE_ALIASES))}")
    return ENGINE_ALIASES[value]


def _string(value) -> str:
    if not isinstance(value, str):
        raise TypeError("not a string")
    return value


def _axes(value) -> tuple:
    return tuple((str(axis), tuple(float(_number(v)) for v in values))
                 for axis, values in value)


# Parser of each key's value; every other key holds a finite number.
_PARSERS = {"c01": _complex, "c02": _complex, "axes": _axes,
            "n_points": _integer, "threads": _threads, "n_modes": _integer,
            "engine": _engine, "out_dir": _string, "figure": _string}


def config_from_dict(data: dict) -> RunConfig:
    defaults = {f.name: f.default for f in fields(RunConfig)}
    updates = {}
    for key, value in data.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {key!r}")
        if value is not None or defaults[key] is not None:
            try:
                value = _PARSERS.get(key, _number)(value)
            except (TypeError, ValueError, OverflowError) as exc:
                raise ConfigError(
                    f"invalid value for {key!r}: {value!r} ({exc})") from exc
        updates[key] = value
    return RunConfig(**updates)


def config_to_dict(config: RunConfig) -> dict:
    out = {}
    for f in fields(RunConfig):
        value = getattr(config, f.name)
        if f.name in _COMPLEX_KEYS:
            value = [value.real, value.imag]
        elif f.name == "axes":
            value = [[name, list(vals)] for name, vals in value]
        out[f.name] = value
    return out


def _read_config(path) -> dict:
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
    return data


def _write_run_json(out: Path, command: str, config: RunConfig,
                    outputs: list[str]) -> Path:
    recorded = config_to_dict(config)
    if command == "reproduce":
        recorded = {key: recorded[key] for key in REPRODUCE_KEYS}
    payload = {
        "artifact": "qbattery",
        "version": __version__,
        "command": command,
        "config": recorded,
        "oracle_tolerance": ORACLE_TOLERANCE if command == "oracle-check" else None,
        "outputs": outputs,
    }
    return write_json(out / "run.json", payload)


def cmd_timeseries(config: RunConfig, out: Path) -> tuple[list[Path], int]:
    traj, series = evaluate(config.spec(), [{}])
    table = np.stack((traj.grid.samples, traj.c1.real, traj.c1.imag, traj.c2.real,
                      traj.c2.imag, series.energy, series.power, series.ergotropy))
    path = out / "timeseries.csv"
    path.write_text(csv_text(TIMESERIES_FIELDS, table.T), newline="\n")
    return [path], 0


def cmd_maxima(config: RunConfig, out: Path) -> tuple[list[Path], int]:
    """The sweep without axes: the one row of the configured point."""
    return [write_sweep_csv(run_sweep(config.spec()), out / "maxima.csv")], 0


def cmd_sweep(config: RunConfig, out: Path) -> tuple[list[Path], int]:
    result = run_sweep(config.spec(config.axes), threads=config.threads)
    return [write_sweep_csv(result, out / "sweep.csv")], 0


def cmd_reproduce(config: RunConfig, out: Path) -> tuple[list[Path], int]:
    if not config.figure:
        raise ConfigError("reproduce requires --figure (e.g. --figure fig2)")
    return figure_pipeline(config.figure, out, n_points=config.n_points), 0


def cmd_oracle_check(config: RunConfig, out: Path) -> tuple[list[Path], int]:
    """Compare the discretized-bath ground truth against both engines; 4 on a miss."""
    spec = config.spec()
    params = spec.base
    names = ((ENGINE_PSEUDOMODE, ENGINE_CLOSED) if params.equal_detunings()
             else (ENGINE_PSEUDOMODE,))
    # One frame, built and validated once, serves both engines and the bath.
    # The engines run first, so an input that overflows them (exit 3) is
    # reported by the engine before the bath is built.
    frame = dressed_frame(params)
    engines = {name: evaluate(replace(spec, engine=name), [{}], frame)[0] for name in names}
    bath = build_bath(frame, n_modes=config.n_modes, span=config.span)
    reference = propagate(params, frame, bath, spec.grid)
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
    path = write_json(out / "oracle_check.json", report)
    ok = all(entry["pass"] for entry in report["engines"].values())
    for name, entry in sorted(report["engines"].items()):
        status = "PASS" if entry["pass"] else "FAIL"
        print(f"oracle-check {name}: gap {entry['sup_norm_gap']:.3e} "
              f"vs {ORACLE_TOLERANCE:g} -> {status}")
    if not ok:
        print("oracle-check: tolerance failure", file=sys.stderr)
    return [path], 0 if ok else 4


# Each subcommand: the function that writes its outputs and returns them
# with the exit code, and its help line.
COMMANDS = {
    "timeseries": (cmd_timeseries, "write amplitude and metric time series as CSV"),
    "maxima": (cmd_maxima, "write the peak energy/power/ergotropy record"),
    "sweep": (cmd_sweep, "run a Cartesian parameter sweep"),
    "reproduce": (cmd_reproduce, "regenerate the CSV data behind a published figure"),
    "oracle-check": (cmd_oracle_check, "validate engines against the discretized bath"),
}


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process (a large share of a short command's
    time); parsing keeps nothing in it."""
    parser = argparse.ArgumentParser(
        prog="qbattery",
        description="Charging dynamics of a driven open quantum battery.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="path to a flat JSON config file")
        p.add_argument("--out", help=f"output directory (default: ${OUT_ROOT_ENV} "
                                     "or the current directory)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override any config key (JSON-parsed value); "
                            "repeatable")
        for key, about in FLAGS.items():
            if key != "figure" or name == "reproduce":
                p.add_argument(f"--{key}", help=f"{about}; same as --set {key}=VALUE")
    return parser


def _resolve_config(args) -> RunConfig:
    data = _read_config(args.config) if args.config else {}
    flags = [f"{key}={getattr(args, key)}" for key in FLAGS
             if getattr(args, key, None) is not None]
    for pair in args.set + flags:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        data.pop(key, None)  # parsed last
        try:
            data[key] = json.loads(raw)
        except json.JSONDecodeError:
            data[key] = raw
    config = config_from_dict(data)
    unread = sorted(set(data) - set(REPRODUCE_KEYS))
    if args.command == "reproduce" and unread:
        raise ConfigError(f"reproduce reads only {', '.join(REPRODUCE_KEYS)}; "
                          f"it does not read {', '.join(map(repr, unread))}")
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help or --version and 2 on a command line
        # it rejects, having printed the reason.
        if not exc.code:
            return 0
        print("qbattery: config error: invalid command line", file=sys.stderr)
        return 2
    try:
        config = _resolve_config(args)
        out = _resolve_out_dir(args, config, args.command)
        outputs, code = COMMANDS[args.command][0](config, out)
        _write_run_json(out, args.command, config, [p.name for p in outputs])
        return code
    except (SweepPointError, IntegrationError, ValueError, OSError) as exc:
        cause = exc.cause if isinstance(exc, SweepPointError) else exc
        numerical = isinstance(cause, IntegrationError)
        kind = "numerical failure" if numerical else "config error"
        print(f"qbattery: {kind}: {exc}", file=sys.stderr)
        return 3 if numerical else 2


if __name__ == "__main__":
    sys.exit(main())
