"""Physical parameters and the dressed-frame quantities derived from them.

Two driven qubits (a charger and a battery) share a lossy cavity whose
spectral density is a Lorentzian of width lambda centered on the cavity
frequency.  The loss rate lambda is the unit: all frequencies are measured
in units of it, all times in its inverse, so lambda itself is 1.  A batch
of points is one SystemParams whose fields are (points,) arrays or numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class SystemParams:
    """Inputs of a point, or of a batch of points, in cavity-loss units.

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
    def r2(self):
        return unbatched(np.sqrt(np.maximum(0.0, 1.0 - self.r1 * self.r1)))

    def equal_detunings(self):
        return np.equal(self.delta_A, self.delta_B)


@dataclass(frozen=True)
class DressedFrame:
    """Per-qubit dressed-basis quantities plus the shared kernel scales,
    arrays where their inputs vary across a batch.

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


def unbatched(value):
    """A single point's value as a Python number; a batch's array unchanged."""
    return value.item() if np.ndim(value) == 0 else value


def take(batch, index: slice):
    """The points in a slice of a batch (SystemParams or DressedFrame): each
    field along the points axis sliced, each number shared by all kept."""
    return type(batch)(**{name: value[index] if getattr(value, "ndim", 0) else value
                          for name, value in vars(batch).items()})


def require(ok, message: str, *values) -> None:
    """Raise ValueError unless ok holds at every point; message is formatted
    with each of values at the first point where ok fails."""
    ok = np.asarray(ok)
    if not ok.all():
        raise ValueError(message.format(*(np.broadcast_to(v, ok.shape)[~ok][0].item()
                                          for v in values)))


def validate(params: SystemParams) -> SystemParams:
    """Check every parameter invariant; return the params unchanged.

    Raises ValueError naming the first violated invariant, at its first point.
    """
    for name, value in vars(params).items():
        require(np.isfinite(value), f"non-finite {name}: {{}}", value)
    require((0.0 <= params.r1) & (params.r1 <= 1.0), "r1 out of [0,1]: {}", params.r1)
    require(params.omega_drive >= 0.0, "negative omega_drive: {}", params.omega_drive)
    require(params.R >= 0.0, "negative R: {}", params.R)
    # Products, so a huge amplitude gives norm inf, not an OverflowError.
    with np.errstate(over="ignore"):
        norm = sum(x * x for c in (params.c01, params.c02) for x in (c.real, c.imag))
    require(np.abs(norm - 1.0) <= 1e-12,
            "initial state not normalized: |c01|^2+|c02|^2 = {}", norm)
    return params


def dressed_frame(params: SystemParams) -> DressedFrame:
    """Validate the parameters and derive their dressed-basis frame.

    Every engine takes its points together with their frame, so they are
    validated here, once, and nowhere downstream.

    The mixing angle is the two-argument arctangent of (2 omega_drive,
    delta), so eta lies in [0, pi] for omega_drive >= 0 and negative
    detunings are handled unambiguously.  The fully degenerate point
    omega_drive = delta = 0 resolves to eta = 0 (bare basis, cos2 = 1) with
    a vanishing splitting chi = 0.  An overflowing chi raises ValueError.
    """
    validate(params)
    dressed = {}
    for qubit, delta in (("A", params.delta_A), ("B", params.delta_B)):
        with np.errstate(over="ignore"):
            two_omega = np.multiply(2.0, params.omega_drive)
            chi = np.hypot(delta, two_omega)
        require(np.isfinite(chi), f"non-finite chi_{qubit}: {{}}", chi)
        eta = np.arctan2(two_omega, delta)
        dressed[f"chi_{qubit}"] = unbatched(chi)
        dressed[f"cos2_{qubit}"] = unbatched((1.0 + np.cos(eta)) / 2.0)
    return DressedFrame(**dressed, W=params.R, delta_L=params.delta_L)
