#!/usr/bin/env python3
"""Reference values of the closed form's battery population, in mpmath.

Usage:  python scripts/reference_closed_form.py [OUT.json]

Evaluates |C2(t)|^2 at t = 5 and t = 10 for the points of POINTS, from the
survival amplitude Z(t) = e^{-Mt/2} (cosh(Ft/2) + (M/F) sinh(Ft/2)) with
F^2 = M^2 - c^2, c = W (1 + cos eta), and C2 = -r1 beta_minus + r2 Z
beta_plus (README), taken from each point's double-precision inputs with
no rounding of its own.  The working precision starts at 30 digits and
doubles until two successive results agree to 1e-20 relative; the digits
used are printed per point.  Writes the JSON (default
tests/data/reference_closed_form.json) that tests/test_dynamics.py reads.
mpmath is needed here only, never by the package or its tests.
"""

import json
import math
import sys
from pathlib import Path

import mpmath

TIMES = (5.0, 10.0)
AGREEMENT = mpmath.mpf("1e-20")

# The defaults of qbattery.SystemParams.
DEFAULT = {"delta_A": 0.0, "delta_B": 0.0, "delta_L": 0.0, "omega_drive": 1.0,
           "r1": 1.0 / math.sqrt(2.0), "R": 0.5, "c01": [1.0, 0.0], "c02": [0.0, 0.0]}


def _point(name, **changes):
    point = dict(DEFAULT, **changes)
    if "delta" in point:
        point["delta_A"] = point["delta_B"] = point.pop("delta")
    return name, point


POINTS = dict(
    [_point(f"default, omega_drive={w:g}", omega_drive=w) for w in (1e2, 1e4, 1e6, 1e8, 1e16)]
    + [_point("dispersive", delta_L=3.94e16, R=2.05e8)]
    + [_point(f"critical, e={e:g}", omega_drive=0.0, R=0.5 * (1.0 + e))
       for e in (0.0, 1e-12, 1e-9, 1e-6, 1e-4, 1e-3)]
    # Near critical damping with a complex M, where e^{lt} and e^{(l-F)t} nearly
    # cancel in Z - e^{lt} and are not each other's conjugates.
    + [_point(f"critical, delta_L={d:g}", omega_drive=0.0, delta_L=d) for d in (1e-8, 1e-4)]
    + [_point("strong detuned", R=10.0, delta=2.0, delta_L=3.0, r1=0.3)]
)


def population(point: dict, t: float) -> mpmath.mpf:
    """|C2(t)|^2 at the working precision."""
    mpf, mpc = mpmath.mpf, mpmath.mpc
    delta, omega, R = (mpf(point[k]) for k in ("delta_A", "omega_drive", "R"))
    chi = mpmath.sqrt(delta ** 2 + 4 * omega ** 2)
    cos_eta = 1 if chi == 0 else delta / chi
    c = R * (1 + cos_eta)
    M = 1 - 1j * (chi + mpf(point["delta_L"]))
    F = mpmath.sqrt(M * M - c * c)
    t = mpf(t)
    if F == 0:
        Z = mpmath.exp(-M * t / 2) * (1 + M * t / 2)
    else:
        Z = mpmath.exp(-M * t / 2) * (mpmath.cosh(F * t / 2) + M / F * mpmath.sinh(F * t / 2))
    r1 = mpf(point["r1"])
    r2 = mpmath.sqrt(1 - r1 * r1)
    c01, c02 = (mpc(*point[k]) for k in ("c01", "c02"))
    beta_plus = r1 * c01 + r2 * c02
    beta_minus = r2 * c01 - r1 * c02
    return abs(-r1 * beta_minus + r2 * Z * beta_plus) ** 2


def converged(point: dict) -> tuple[list[float], int]:
    """The populations at TIMES, and the digits at which they settled."""
    digits, previous = 30, None
    while True:
        with mpmath.workdps(digits):
            values = [population(point, t) for t in TIMES]
            if previous is not None and all(
                    abs(v - p) <= AGREEMENT * abs(v) for v, p in zip(values, previous)):
                return [float(v) for v in values], digits
        previous, digits = values, 2 * digits


def main(path: str = "tests/data/reference_closed_form.json") -> None:
    rows = []
    for name, point in POINTS.items():
        values, digits = converged(point)
        print(f"{name}: {digits} digits")
        rows.append({"name": name, "point": point, "digits": digits,
                     "t": list(TIMES), "population": values})
    Path(path).write_text(json.dumps(rows, indent=1) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:])
