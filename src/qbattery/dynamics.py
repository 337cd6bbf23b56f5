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

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .model import DressedFrame, SystemParams, validate

DEFAULT_N_POINTS = 2000

# Largest grid a run may ask for: one (points x time) array of it is 16 MB,
# and a single-point run of it peaks near 1 GB.
MAX_N_POINTS = 2 ** 20

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
        if not (2 <= self.n_points <= MAX_N_POINTS and 0.0 < self.t_max < math.inf):
            raise ValueError(f"need 2 <= n_points <= {MAX_N_POINTS} and a finite "
                             f"t_max > 0, got {self.n_points} and {self.t_max}")
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

    A batch of points holds (points, time) arrays.  total_norm is filled
    only by the bath-discretization engine, where the evolution is unitary
    over qubits plus modes.
    """

    grid: TimeGrid
    c1: np.ndarray
    c2: np.ndarray
    engine_tag: str
    total_norm: np.ndarray | None = None

    def __post_init__(self):
        # The summed amplitudes are non-finite if any amplitude is.  A plain
        # sum, not a BLAS dot product: on (points x time) batches BLAS would
        # hand the reduction to its threads, whose wake-up costs milliseconds.
        if not cmath.isfinite(np.sum(self.c1) + np.sum(self.c2)):
            raise IntegrationError(f"{self.engine_tag} engine gave non-finite amplitudes")

    def qubit_norm(self) -> np.ndarray:
        return np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2


@dataclass(frozen=True)
class KernelParams:
    """Laplace-domain constants of the equal-frequency survival amplitude.

    M = lambda - i(chi + delta_L); F = sqrt(M^2 - alpha_T^2 W^2 (1+cos eta)^2).
    Z(t) depends on F only through F^2, so either branch of the square root
    gives the same amplitude.  M and F may be arrays along a points axis.
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
        Z = (1 + M/F)/2 ep + (1 - M/F)/2 em,
        ep = e^{(F-M)t/2},  em = e^{-(F+M)t/2},
    whose exponents have non-positive real part for the principal branch,
    so the evaluation never overflows.  Near the critically damped point
    F -> 0 (|F| t < 1e-6, or |F| < 1e-10 |M|) the series limit
        Z = e^{-Mt/2} (1 + Mt/2 + (Ft)^2/8 (1 + Mt/6))
    is used instead, evaluated only on the samples that need it; it gives
    Z(0) = 1 exactly.

    t is a scalar or array of times >= 0, or a TimeGrid.  On a TimeGrid the
    exponentials are filled over the uniform samples by doubling, which
    agrees with the direct np.exp form to about 1e-14.  kernel.M and
    kernel.F may be arrays with a leading points axis; the result then has
    shape M.shape + t.shape.
    """
    on_grid = isinstance(t, TimeGrid)
    t = t.samples if on_grid else np.asarray(t, dtype=float)
    M, F = (np.asarray(x, dtype=complex) for x in (kernel.M, kernel.F))
    M, F = (x.reshape(x.shape + (1,) * t.ndim) for x in (M, F))
    # Overflowing inputs (huge splittings or loss rates) give non-finite
    # samples, which AmplitudeTrajectory rejects; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        degenerate = np.abs(F) < 1e-10 * np.abs(M)
        F_safe = np.where(degenerate, 1.0, F)
        ratio = M / F_safe
        terms = (((1.0 + ratio) / 2.0, (F_safe - M) / 2.0),
                 ((1.0 - ratio) / 2.0, -(F_safe + M) / 2.0))
        if on_grid:
            ep, em = (_exp_on_grid(scale, rate, t) for scale, rate in terms)
            out = np.add(ep, em, out=ep)
        else:
            ep, em = (scale * np.exp(rate * t) for scale, rate in terms)
            out = np.asarray(ep + em)
        series = degenerate | (t < 1e-6 / np.abs(F_safe))
        if series.any():
            M, F, t = (np.broadcast_to(x, out.shape)[series] for x in (M, F, t))
            out[series] = np.exp(-M * t / 2.0) * (1.0 + M * t / 2.0
                                                 + (F * t) ** 2 / 8.0 * (1.0 + M * t / 6.0))
    return complex(out) if out.ndim == 0 else out


def _exp_on_grid(scale: np.ndarray, rate: np.ndarray, t: np.ndarray) -> np.ndarray:
    """scale e^{rate t} over uniform samples t, for rates shaped (..., 1).

    The factor for a shift of m samples is taken directly as e^{rate t_m},
    so rounding grows with the log2(n) doubling levels, not with n.
    """
    out = np.empty(rate.shape[:-1] + t.shape, dtype=complex)
    out[..., :1] = scale
    shifts = (np.exp(rate * t[2 ** k]) for k in itertools.count())
    return _fill_by_doubling(out, shifts, np.multiply)


def _squarings(step: np.ndarray):
    """step, step^2, step^4, ...: the shifts of a doubling fill."""
    while True:
        yield step
        step = step @ step


def _fill_by_doubling(y: np.ndarray, shifts, product) -> np.ndarray:
    """Fill y along its last (time) axis from y[..., 0].

    y[..., m:2m] = product(shift, y[..., :m]) for m = 1, 2, 4, ..., where
    shifts yields, in that order, the factors that advance a sample by m
    steps of a uniform grid: about log2(n) products fill n samples.
    """
    n = y.shape[-1]
    m = 1
    while m < n:
        count = min(m, n - m)
        shift = next(shifts)
        if count > 1:
            product(shift, y[..., :count], out=y[..., m:m + count])
        else:
            # A one-sample block of a batch is a strided column, on which
            # numpy's complex kernels round differently from the contiguous
            # block of a single point; a contiguous copy keeps a row's bits
            # independent of the batch it is in.
            y[..., m:m + 1] = product(shift, y[..., :1].copy())
        m *= 2
    return y


def _batch(params, frame) -> tuple[list[SystemParams], list[DressedFrame]]:
    """The validated points of a single point or of a batch, as lists."""
    if isinstance(params, SystemParams):
        params, frame = [params], [frame]
    params, frame = list(params), list(frame)
    if len(params) != len(frame) or not params:
        raise ValueError(f"need one frame per point, got {len(params)} points "
                         f"and {len(frame)} frames")
    for p in params:
        validate(p)
    return params, frame


def _values(items, name: str) -> np.ndarray:
    """One attribute of every point of a batch, along the points axis."""
    return np.array([getattr(x, name) for x in items])


def _trajectory(params, grid: TimeGrid, c1: np.ndarray, c2: np.ndarray,
                engine_tag: str) -> AmplitudeTrajectory:
    """A batch's trajectory, or row 0 of it when params is one point."""
    if isinstance(params, SystemParams):
        c1, c2 = c1[0], c2[0]
    return AmplitudeTrajectory(grid=grid, c1=c1, c2=c2, engine_tag=engine_tag)


def equal_frequency_trajectory(params, frame, grid: TimeGrid) -> AmplitudeTrajectory:
    """Closed-form amplitudes for identical qubit detunings.

    The initial state is decomposed into the constant sub-radiant amplitude
    beta_minus and the super-radiant amplitude beta_plus, which evolves with
    Z(t):

        C1(t) = r2 beta_minus + r1 Z(t) beta_plus
        C2(t) = -r1 beta_minus + r2 Z(t) beta_plus

    params and frame are one point, or equal-length sequences of points;
    a batch gives amplitudes shaped (points, time).
    """
    points, frames = _batch(params, frame)
    kernels = [kernel_params(p, f) for p, f in zip(points, frames)]
    Z = survival_amplitude(KernelParams(M=np.array([k.M for k in kernels]),
                                        F=np.array([k.F for k in kernels])), grid)
    r1, r2, c01, c02 = (_values(points, name)[:, None]
                        for name in ("r1", "r2", "c01", "c02"))
    beta_plus = r1 * c01 + r2 * c02
    beta_minus = r2 * c01 - r1 * c02
    # In place, so a batch holds no more than three (points x time) arrays.
    c2 = np.multiply(Z, r2 * beta_plus)
    c2 -= r1 * beta_minus
    c1 = np.multiply(Z, r1 * beta_plus, out=Z)
    c1 += r2 * beta_minus
    return _trajectory(params, grid, c1, c2, ENGINE_CLOSED)


def general_trajectory(params, frame, grid: TimeGrid) -> AmplitudeTrajectory:
    """Exact pseudomode amplitudes, valid for unequal detunings.

    The co-rotating state y = (C_A, C_B, b) e^{i chi t} with the mean
    splitting chi = (chi_A + chi_B)/2, which takes the common phase out of
    the fast rotation, obeys y' = A y with the constant generator below,
    so on the uniform grid y_k = P^k y_0 with P = expm(A dt).  Doubling
    (y[m:2m] = P^m y[:m]) fills the grid with about log2(n_points) 3x3
    products, and C_j = y_j e^{i (chi_j - chi) t}.

    params and frame are one point, or equal-length sequences of points;
    a batch gives amplitudes shaped (points, time).
    """
    points, frames = _batch(params, frame)
    chi_A, chi_B, lambda_, delta_L, W, cos2_A, cos2_B = (
        _values(frames, name) for name in
        ("chi_A", "chi_B", "lambda_", "delta_L", "W", "cos2_A", "cos2_B"))
    chi = (chi_A + chi_B) / 2.0
    w_A = W * _values(points, "alpha_A") * cos2_A
    w_B = W * _values(points, "alpha_B") * cos2_B
    generator = np.zeros((len(points), 3, 3), dtype=complex)
    generator[:, 0, 0] = -1j * (chi_A - chi)
    generator[:, 1, 1] = -1j * (chi_B - chi)
    generator[:, 0, 2], generator[:, 1, 2] = -w_A, -w_B
    generator[:, 2, 0], generator[:, 2, 1] = w_A, w_B
    generator[:, 2, 2] = -(lambda_ - 1j * (delta_L + chi))
    t = grid.samples
    step = expm(generator * t[1])
    # Stored component-major, so C_A and C_B are contiguous (points, time) blocks.
    y = np.empty((3, len(points), grid.n_points), dtype=complex)
    y[0, :, 0], y[1, :, 0], y[2, :, 0] = _values(points, "c01"), _values(points, "c02"), 0.0
    _fill_by_doubling(y.transpose(1, 0, 2), _squarings(step), np.matmul)
    c1, c2 = y[0], y[1]
    c1 *= _exp_on_grid(1.0, 1j * (chi_A - chi)[:, None], t)
    c2 *= _exp_on_grid(1.0, 1j * (chi_B - chi)[:, None], t)
    return _trajectory(params, grid, c1, c2, ENGINE_PSEUDOMODE)


def trajectory(params, frame, grid: TimeGrid,
               engine: str = ENGINE_CLOSED) -> AmplitudeTrajectory:
    """Dispatch one point or a batch of points to the requested engine."""
    if engine == ENGINE_CLOSED:
        return equal_frequency_trajectory(params, frame, grid)
    if engine == ENGINE_PSEUDOMODE:
        return general_trajectory(params, frame, grid)
    raise ValueError(f"unknown engine: {engine!r}")
