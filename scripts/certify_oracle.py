#!/usr/bin/env python3
"""Certify both analytic engines against the discretized-bath ground truth.

Usage:  python scripts/certify_oracle.py [OUT_DIR]

Runs `qbattery oracle-check` at the two certification points, at full bath
size (4000 modes, span 50) on the default windows and 2000-sample grids:

  1. weak coupling, resonance, equal detunings (the defaults):
     closed form and pseudomode
  2. strong coupling, unequal detunings (R = 10, delta_B = 4): pseudomode

Each point writes oracle_check.json and run.json to its own subdirectory of
OUT_DIR (default: a temporary directory, removed afterwards) and prints one
gap line per engine, then the bath's norm drift (the completeness defect of
its eigenvectors as seen by the initial state) and the command's time in
milliseconds.  It then estimates the error
of the bath's truncation at +-span from a second bath with twice the span
and twice the modes, built through the Python API: the truncation estimate
max |ref(2 span) - ref(span)|, and each engine's gap to the Richardson
extrapolation (8 ref(2 span) - ref(span)) / 7, which removes the leading
term of the cut-off Lorentzian tail (it falls about 8x per doubling of the
span).  Exits with the worst exit code of the two runs: 0 when every gap is
within the certification tolerance, 4 when one is not; the truncation lines
are information only.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from qbattery import (SystemParams, build_bath, default_grid, dressed_frame,
                      equal_frequency_trajectory, general_trajectory, propagate)
from qbattery.cli import main as qbattery
from qbattery.oracle import DEFAULT_N_MODES, DEFAULT_SPAN

POINTS = {
    "weak": {},
    "strong": {"R": 10.0, "delta_B": 4.0},
}


def sup_gap(a, b) -> float:
    """Largest |a - b| over the (c1, c2) pairs a and b."""
    return float(max(np.max(np.abs(x - y)) for x, y in zip(a, b)))


def truncation(name: str, overrides: dict) -> None:
    """Print the truncation estimate and the engines' extrapolated gaps."""
    params = SystemParams(**overrides)
    frame = dressed_frame(params)
    grid = default_grid(params)
    refs = [propagate(params, frame,
                      build_bath(frame, k * DEFAULT_N_MODES, k * DEFAULT_SPAN), grid)
            for k in (1, 2)]
    coarse, fine = ((ref.c1, ref.c2) for ref in refs)
    print(f"{name}: truncation estimate max |ref(2 span) - ref(span)| "
          f"{sup_gap(fine, coarse):.2e}")
    extrapolated = [(8.0 * x - y) / 7.0 for x, y in zip(fine, coarse)]
    engines = ((general_trajectory, equal_frequency_trajectory) if params.equal_detunings()
               else (general_trajectory,))
    for engine in engines:
        traj = engine(params, frame, grid)
        print(f"{name}: {traj.engine_tag} gap to the extrapolated oracle "
              f"{sup_gap((traj.c1, traj.c2), extrapolated):.2e}")


def certify(out_root: Path) -> int:
    codes = []
    for name, overrides in POINTS.items():
        out = out_root / name
        flags = [arg for key, value in overrides.items()
                 for arg in ("--set", f"{key}={value!r}")]
        start = time.monotonic()
        code = qbattery(["oracle-check", "--out", str(out)] + flags)
        codes.append(code)
        if code in (0, 4):
            drift = json.loads((out / "oracle_check.json").read_text())["norm_drift"]
            print(f"{name}: norm drift (completeness defect) {drift:.1e}, "
                  f"{(time.monotonic() - start) * 1e3:.0f} ms")
            truncation(name, overrides)
    return max(codes)


def main() -> int:
    if len(sys.argv) > 1:
        return certify(Path(sys.argv[1]))
    with tempfile.TemporaryDirectory() as out_root:
        return certify(Path(out_root))


if __name__ == "__main__":
    sys.exit(main())
