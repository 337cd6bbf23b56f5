#!/usr/bin/env python3
"""Regenerate the CSV data behind every figure (fig2 through fig11).

Usage:  python scripts/reproduce_figures.py [OUT_DIR]

Runs `qbattery reproduce --figure figN` for each figure, so each one lands in
its own subdirectory of OUT_DIR (default: figures_out) with three panel
CSVs, a metadata file recording every parameter default, and run.json.
Exits with the worst exit code of the runs.
"""

import sys
import time
from pathlib import Path

from qbattery import FIGURES
from qbattery.cli import main as qbattery


def main() -> int:
    out_root = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("figures_out")
    codes = []
    for figure_id in sorted(FIGURES, key=lambda f: int(f.removeprefix("fig"))):
        out = out_root / figure_id
        start = time.monotonic()
        codes.append(qbattery(["reproduce", "--figure", figure_id, "--out", str(out)]))
        print(f"{figure_id}: exit {codes[-1]} in {time.monotonic() - start:.2f}s -> {out}")
    return max(codes)


if __name__ == "__main__":
    sys.exit(main())
