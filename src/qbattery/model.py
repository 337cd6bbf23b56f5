"""Physical parameters and the dressed-frame quantities derived from them.

Two driven qubits (a charger and a battery) share a lossy cavity whose
spectral density is a Lorentzian of width lambda centered on the cavity
frequency.  The loss rate lambda is the unit: all frequencies are measured
in units of it, all times in its inverse, so lambda itself is 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Inputs of a single run, in cavity-loss units.

    delta_A, delta_B: detuning of charger / battery qubit from the drive.
    delta_L: detuning of the drive from the cavity center frequency.
    omega_drive: classical drive strength (real, >= 0).
    r1: the charger's share of the collective cavity coupling; the
        battery's share is r2 = sqrt(1 - r1^2).  The collective coupling
        itself enters only through R, so it is not a parameter.
    R: coupling-regime ratio (vacuum Rabi frequency over loss rate); R > 1
       is the strong-coupling regime.
    c01, c02: initial dressed-state amplitudes of |charger excited> and
       |battery excited>; must be normalized.
    """

    delta_A: float = 0.0
    delta_B: float = 0.0
    delta_L: float = 0.0
    omega_drive: float = 1.0
    r1: float = INV_SQRT2
    R: float = 0.5
    c01: complex = 1.0 + 0.0j
    c02: complex = 0.0 + 0.0j

    @property
    def r2(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.r1 * self.r1))

    def equal_detunings(self) -> bool:
        return self.delta_A == self.delta_B


@dataclass(frozen=True)
class DressedFrame:
    """Per-qubit dressed-basis quantities plus the shared kernel scales.

    chi_A, chi_B: dressed splittings sqrt(delta^2 + 4 omega_drive^2).
    cos2_A, cos2_B: coupling weights cos^2(eta/2) = (1 + cos eta)/2 of the
        mixing angles eta of the driven qubits.
    W: vacuum Rabi frequency of the pair, R in units of lambda.
    delta_L: copied from the parameters; every kernel consumer (closed
        form, pseudomode, bath discretization) needs it alongside the
        dressed quantities.
    """

    chi_A: float
    chi_B: float
    cos2_A: float
    cos2_B: float
    W: float
    delta_L: float


def validate(params: SystemParams) -> SystemParams:
    """Check every parameter invariant; return the params unchanged.

    Raises ValueError naming the first violated invariant.
    """
    for name, value in vars(params).items():
        if not cmath.isfinite(value):
            raise ValueError(f"non-finite {name}: {value}")
    if not (0.0 <= params.r1 <= 1.0):
        raise ValueError(f"r1 out of [0,1]: {params.r1}")
    if not (params.omega_drive >= 0.0):
        raise ValueError(f"negative omega_drive: {params.omega_drive}")
    if not (params.R >= 0.0):
        raise ValueError(f"negative R: {params.R}")
    # Products, so a huge amplitude gives norm inf, not an OverflowError.
    norm = sum(x * x for c in (params.c01, params.c02) for x in (c.real, c.imag))
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"initial state not normalized: |c01|^2+|c02|^2 = {norm}")
    return params


def dressed_frame(params: SystemParams) -> DressedFrame:
    """Validate the parameters and derive their dressed-basis frame.

    Every engine takes a point together with its frame, so the point is
    validated here, once, and nowhere downstream.

    The mixing angle is the two-argument arctangent of (2 omega_drive,
    delta), so eta lies in [0, pi] for omega_drive >= 0 and negative
    detunings are handled unambiguously.  The fully degenerate point
    omega_drive = delta = 0 resolves to eta = 0 (bare basis, cos2 = 1) with
    a vanishing splitting chi = 0.  An overflowing chi raises ValueError.
    """
    validate(params)
    two_omega = 2.0 * params.omega_drive
    frame = DressedFrame(
        chi_A=math.hypot(params.delta_A, two_omega),
        chi_B=math.hypot(params.delta_B, two_omega),
        cos2_A=(1.0 + math.cos(math.atan2(two_omega, params.delta_A))) / 2.0,
        cos2_B=(1.0 + math.cos(math.atan2(two_omega, params.delta_B))) / 2.0,
        W=params.R,
        delta_L=params.delta_L,
    )
    for name in ("chi_A", "chi_B"):
        if not math.isfinite(getattr(frame, name)):
            raise ValueError(f"non-finite {name}: {getattr(frame, name)}")
    return frame
