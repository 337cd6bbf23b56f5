#!/usr/bin/env python3
"""One sha256 over the outputs of a fixed list of qbattery commands.

Usage:  python scripts/output_digest.py [-v]

Runs every command of COMMANDS in-process through `qbattery.cli.main`, each
in a fresh output directory, and hashes its argv, its exit code and the name
and bytes of every file it wrote (CSVs, *_metadata.json, oracle_check.json,
run.json).  Prints the digest; with -v, also one line per command on
standard error and, below it, one line per file it wrote: the file's
sha256 prefix, its size in bytes and its name.  Two checkouts that print
the same digest wrote the same bytes; a diff of their -v output names the
files that differ.  The digest depends on the host's floating-point
rounding (numpy's SIMD kernels differ between CPUs), so compare two
checkouts on one host and do not pin a digest.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from qbattery.cli import main as qbattery


def _set(key, value):
    return ["--set", f"{key}={json.dumps(value)}"]


# Points of timeseries and maxima: the defaults, the critically damped point
# Omega = Delta = 0, a detuned strong-coupling point and, for the
# pseudomode, unequal detunings.
POINTS = {
    "default": [],
    "critical": _set("omega_drive", 0.0),
    "strong_detuned": _set("R", 10.0) + _set("delta_A", 3.0) + _set("delta_B", 3.0)
    + _set("delta_L", 2.0),
}
UNEQUAL = {
    "weak_unequal": _set("delta_B", 2.0) + _set("delta_L", 1.0),
    "strong_unequal": _set("R", 10.0) + _set("delta_B", 4.0),
}
OMEGAS = [0.125 * k for k in range(33)]

COMMANDS = (
    [["reproduce", "--figure", f"fig{k}"] for k in range(2, 12)]
    + [[command, "--engine", engine] + flags
       for command in ("timeseries", "maxima")
       for engine in ("closed_form", "pseudomode")
       for flags in POINTS.values()]
    + [[command, "--engine", "pseudomode"] + flags
       for command in ("timeseries", "maxima") for flags in UNEQUAL.values()]
    # Two worker threads on both engines.
    + [["sweep", "--threads", "2", "--engine", engine]
       + _set("axes", [["omega_drive", [0.0, 0.5, 1.0, 2.0]],
                       ["delta_common", [0.0, 3.0]], ["R", [0.5, 10.0]]])
       for engine in ("closed_form", "pseudomode")]
    + [["sweep", "--threads", "2", "--engine", "pseudomode"]
       + _set("axes", [["delta_A", [0.0, 1.5]], ["delta_B", [0.0, 4.0]],
                       ["omega_drive", [0.5, 1.0, 1.5]]])]
    # 33 x 16 points at 16 points per chunk: 33 chunks, evaluated serially
    # and shared by three workers.
    + [["sweep"] + threads
       + _set("axes", [["omega_drive", OMEGAS], ["delta_L", [0.5 * k for k in range(16)]]])
       for threads in ([], ["--threads", "3"])]
    # 2 x 33 pseudomode points at unequal detunings in 5 chunks, evaluated
    # serially and by two workers: the pseudomode's buffers are reused
    # across chunks.
    + [["sweep", "--engine", "pseudomode"] + threads
       + _set("axes", [["delta_B", [0.0, 2.0]], ["omega_drive", OMEGAS]])
       for threads in ([], ["--threads", "2"])]
    + [["oracle-check"] + _set("n_modes", 400) + _set("span", 10.0),
       ["oracle-check"] + _set("n_modes", 400) + _set("span", 10.0)
       + _set("R", 10.0) + _set("delta_B", 4.0)]
    # A numerical failure: exit 3 and no CSV.
    + [["maxima"] + _set("R", 1e308)]
)


def run(argv: list[str], out: Path) -> tuple[int, dict[str, bytes]]:
    """Exit code and written files of one command, its printed lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = qbattery(argv + ["--out", str(out)])
    files = ({p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {})
    return code, files


def main() -> int:
    verbose = "-v" in sys.argv[1:]
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as root:
        for k, argv in enumerate(COMMANDS):
            code, files = run(argv, Path(root) / str(k))
            one = hashlib.sha256(json.dumps([argv, code]).encode())
            for name in sorted(files):
                one.update(f"\n{name} {len(files[name])}\n".encode())
                one.update(files[name])
            total.update(one.digest())
            if verbose:
                print(f"{one.hexdigest()[:16]} exit {code} {len(files)} files: "
                      f"{' '.join(argv)}", file=sys.stderr)
                for name in sorted(files):
                    print(f"    {hashlib.sha256(files[name]).hexdigest()[:16]} "
                          f"{len(files[name]):>9} {name}", file=sys.stderr)
    print(total.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
