"""Amplitude dynamics of the charger-battery pair.

Two engines produce the same trajectories:

* ``equal_frequency_trajectory``: closed form, valid when both qubits have
  the same detuning from the drive.  The initial state splits into a
  decoherence-free (sub-radiant) component and a decaying (super-radiant)
  component whose survival amplitude Z(t) is known analytically.
* ``general_trajectory``: exact pseudomode reduction of the memory-kernel
  equations, valid for arbitrary detunings.  The exponential memory kernel
  of the Lorentzian cavity is traded for one auxiliary lossy amplitude b(t),
  giving a local 3-component ODE system:

      dC_j/dt = -W a_j cos^2(eta_j/2) e^{+i chi_j t} b(t)
      db/dt   = -(lambda - i delta_L) b(t)
                + W sum_j a_j cos^2(eta_j/2) e^{-i chi_j t} C_j(t)

  with b(0) = 0.  Eliminating b reproduces the kernel
  W^2 e^{-(lambda - i delta_L)(t-t')} e^{i chi_i t} e^{-i chi_j t'} exactly.
  In the co-rotating amplitudes C_j e^{-i chi_j t} the system has a
  constant 3x3 generator, so its matrix exponential solves it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .model import DressedFrame, SystemParams, validate

DEFAULT_N_POINTS = 2000

ENGINE_CLOSED = "closed_form"
ENGINE_PSEUDOMODE = "pseudomode"
ENGINE_ORACLE = "oracle"


class IntegrationError(RuntimeError):
    """An integrator missed its tolerance or an engine gave non-finite amplitudes."""


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """n_points evenly spaced sample times from 0 to t_max."""

    t_max: float
    n_points: int
    samples: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (self.n_points >= 2 and 0.0 < self.t_max < math.inf):
            raise ValueError(f"need n_points >= 2 and a finite t_max > 0, "
                             f"got {self.n_points} and {self.t_max}")
        s = np.linspace(0.0, self.t_max, self.n_points)
        if not np.all(np.diff(s) > 0.0):
            raise ValueError(f"t_max {self.t_max} too small for {self.n_points} samples")
        object.__setattr__(self, "samples", s)

    @classmethod
    def uniform(cls, t_max: float, n_points: int = DEFAULT_N_POINTS) -> "TimeGrid":
        return cls(t_max=float(t_max), n_points=int(n_points))


def default_grid(params: SystemParams, n_points: int = DEFAULT_N_POINTS) -> TimeGrid:
    """Default window: 10/lambda in weak coupling, 5/lambda in strong."""
    t_max = (10.0 if params.R <= 1.0 else 5.0) / params.lambda_
    return TimeGrid.uniform(t_max, n_points)


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Charger (c1) and battery (c2) amplitudes sampled on a grid.

    total_norm is filled only by the bath-discretization engine, where the
    evolution is unitary over qubits plus modes.
    """

    grid: TimeGrid
    c1: np.ndarray
    c2: np.ndarray
    engine_tag: str
    total_norm: np.ndarray | None = None

    def __post_init__(self):
        # The summed |c|^2 is non-finite if any amplitude is (or exceeds ~1e154).
        if not math.isfinite(np.vdot(self.c1, self.c1).real
                             + np.vdot(self.c2, self.c2).real):
            raise IntegrationError(f"{self.engine_tag} engine gave non-finite amplitudes")

    def qubit_norm(self) -> np.ndarray:
        return np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2


@dataclass(frozen=True)
class KernelParams:
    """Laplace-domain constants of the equal-frequency survival amplitude.

    M = lambda - i(chi + delta_L); F = sqrt(M^2 - alpha_T^2 W^2 (1+cos eta)^2).
    Z(t) depends on F only through F^2, so either branch of the square root
    gives the same amplitude.
    """

    M: complex
    F: complex


def kernel_params(params: SystemParams, frame: DressedFrame) -> KernelParams:
    """Kernel constants for equal detunings (chi_A = chi_B, eta_A = eta_B)."""
    if not params.equal_detunings():
        raise ValueError(
            f"kernel requires delta_A == delta_B, got {params.delta_A} != {params.delta_B}")
    M = frame.lambda_ - 1j * (frame.chi_A + frame.delta_L)
    coupling = params.alpha_T * frame.W * 2.0 * frame.cos2_A  # alpha_T W (1 + cos eta)
    F = np.sqrt(complex(M * M - coupling * coupling))
    return KernelParams(M=M, F=F)


def survival_amplitude(kernel: KernelParams, t):
    """Survival amplitude Z(t) of the super-radiant component.

    Z(t) = e^{-Mt/2} (cosh(Ft/2) + (M/F) sinh(Ft/2)), evaluated with the
    e^{-Mt/2} factor absorbed into the hyperbolic exponentials,
        Z = (ep + em)/2 + (M/F) (ep - em)/2,
        ep = e^{(F-M)t/2},  em = e^{-(F+M)t/2},
    whose exponents have non-positive real part for the principal branch,
    so the evaluation never overflows and Z(0) = 1 exactly.
    Near the critically damped point F -> 0 the series limit
        Z = e^{-Mt/2} (1 + Mt/2 + (Ft)^2/8 (1 + Mt/6))
    is used instead.  Accepts scalar or array t >= 0.
    """
    t = np.asarray(t, dtype=float)
    M, F = kernel.M, kernel.F
    series = (np.abs(F) * t < 1e-6) | (np.abs(F) < 1e-10 * np.abs(M))
    F_safe = np.where(series, 1.0, F) if series.ndim else (1.0 if series else F)
    # Principal-branch F has 0 <= Re F <= lambda, so both exponents decay.
    ep = np.exp((F_safe - M) * t / 2.0)
    em = np.exp(-(F_safe + M) * t / 2.0)
    exact = (ep + em) / 2.0 + (M / F_safe) * (ep - em) / 2.0
    ft2 = (F * t) ** 2
    limit = np.exp(-M * t / 2.0) * (1.0 + M * t / 2.0 + ft2 / 8.0 * (1.0 + M * t / 6.0))
    out = np.where(series, limit, exact)
    return complex(out) if out.ndim == 0 else out


def equal_frequency_trajectory(params: SystemParams, frame: DressedFrame,
                               grid: TimeGrid) -> AmplitudeTrajectory:
    """Closed-form amplitudes for identical qubit detunings.

    The initial state is decomposed into the constant sub-radiant amplitude
    beta_minus and the super-radiant amplitude beta_plus, which evolves with
    Z(t):

        C1(t) = r2 beta_minus + r1 Z(t) beta_plus
        C2(t) = -r1 beta_minus + r2 Z(t) beta_plus
    """
    validate(params)
    r1, r2 = params.r1, params.r2
    beta_plus = r1 * params.c01 + r2 * params.c02
    beta_minus = r2 * params.c01 - r1 * params.c02
    Z = survival_amplitude(kernel_params(params, frame), grid.samples)
    c1 = r2 * beta_minus + r1 * Z * beta_plus
    c2 = -r1 * beta_minus + r2 * Z * beta_plus
    return AmplitudeTrajectory(grid=grid, c1=c1, c2=c2, engine_tag=ENGINE_CLOSED)


def general_trajectory(params: SystemParams, frame: DressedFrame,
                       grid: TimeGrid) -> AmplitudeTrajectory:
    """Exact pseudomode amplitudes, valid for unequal detunings.

    The co-rotating state y = (C_A e^{-i chi_A t}, C_B e^{-i chi_B t}, b)
    obeys y' = A y with the constant generator below, so on the uniform grid
    y_k = P^k y_0 with P = expm(A dt).  Doubling (y[m:2m] = P^m y[:m], then
    square P^m) fills the grid with about log2(n_points) 3x3 products.
    """
    validate(params)
    w_A = frame.W * params.alpha_A * frame.cos2_A
    w_B = frame.W * params.alpha_B * frame.cos2_B
    generator = np.array([
        [-1j * frame.chi_A, 0.0, -w_A],
        [0.0, -1j * frame.chi_B, -w_B],
        [w_A, w_B, -(frame.lambda_ - 1j * frame.delta_L)],
    ])
    t = grid.samples
    step = expm(generator * t[1])
    y = np.empty((grid.n_points, 3), dtype=complex)
    y[0] = (params.c01, params.c02, 0.0)
    filled = 1
    while filled < grid.n_points:
        count = min(filled, grid.n_points - filled)
        y[filled:filled + count] = y[:count] @ step.T
        step = step @ step
        filled += count
    return AmplitudeTrajectory(grid=grid, c1=y[:, 0] * np.exp(1j * frame.chi_A * t),
                               c2=y[:, 1] * np.exp(1j * frame.chi_B * t),
                               engine_tag=ENGINE_PSEUDOMODE)


def trajectory(params: SystemParams, frame: DressedFrame, grid: TimeGrid,
               engine: str = ENGINE_CLOSED) -> AmplitudeTrajectory:
    """Dispatch to the requested engine."""
    if engine == ENGINE_CLOSED:
        return equal_frequency_trajectory(params, frame, grid)
    if engine == ENGINE_PSEUDOMODE:
        return general_trajectory(params, frame, grid)
    raise ValueError(f"unknown engine: {engine!r}")
