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
gap line per engine, then the bath's norm drift: the completeness defect of
its eigenvectors as seen by the initial state.  Exits with the worst exit code of the two runs: 0 when
every gap is within the certification tolerance, 4 when one is not.
"""

import json
import sys
import tempfile
import time
from pathlib import Path

from qbattery.cli import main as qbattery

POINTS = {
    "weak": [],
    "strong": ["--set", "R=10", "--set", "delta_B=4"],
}


def certify(out_root: Path) -> int:
    codes = []
    for name, flags in POINTS.items():
        out = out_root / name
        start = time.monotonic()
        code = qbattery(["oracle-check", "--out", str(out)] + flags)
        codes.append(code)
        if code in (0, 4):
            drift = json.loads((out / "oracle_check.json").read_text())["norm_drift"]
            print(f"{name}: norm drift (completeness defect) {drift:.1e}, "
                  f"{time.monotonic() - start:.1f}s")
    return max(codes)


def main() -> int:
    if len(sys.argv) > 1:
        return certify(Path(sys.argv[1]))
    with tempfile.TemporaryDirectory() as out_root:
        return certify(Path(out_root))


if __name__ == "__main__":
    sys.exit(main())
