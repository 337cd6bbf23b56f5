"""Amplitude dynamics of the charger-battery pair.

Two engines produce the same trajectories:

* ``equal_frequency_trajectory``: closed form, valid when both qubits have
  the same detuning from the drive.  The initial state splits into a
  decoherence-free (sub-radiant) component and a decaying (super-radiant)
  component whose survival amplitude Z(t) is known analytically.
* ``general_trajectory``: exact pseudomode reduction of the memory-kernel
  equations, valid for arbitrary detunings.  The exponential memory kernel
  of the Lorentzian cavity is traded for one auxiliary lossy amplitude b(t),
  giving a local 3-component ODE system (in units of the loss rate):

      dC_j/dt = -W r_j cos^2(eta_j/2) e^{+i chi_j t} b(t)
      db/dt   = -(1 - i delta_L) b(t)
                + W sum_j r_j cos^2(eta_j/2) e^{-i chi_j t} C_j(t)

  with b(0) = 0.  Eliminating b reproduces the kernel
  W^2 e^{-(1 - i delta_L)(t-t')} e^{i chi_i t} e^{-i chi_j t'} exactly.
  In the battery's rotating frame, (C_A, C_B, b) e^{i chi_B t}, the system
  has a constant 3x3 generator, so its matrix exponential solves it exactly.

Both engines take one point, or a batch whose fields are (points,) arrays,
and return fresh (time,) or (points, time) arrays.  Importing this module
sets the C allocator's policy (MALLOPT) once, so that a repeated bath-oracle
propagate reuses freed memory instead of faulting fresh pages in.
"""

from __future__ import annotations

import cmath
import ctypes
import math
import sys
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .model import DressedFrame, SystemParams, require, unbatched

DEFAULT_N_POINTS = 2000

# Largest grid a run may ask for: one (points x time) array of it is 16 MB,
# and a single-point timeseries of it peaked at 96 MB RSS with the closed
# form and 112 MB with the pseudomode, writing a 151 MiB CSV block by block
# from its eight series.
MAX_N_POINTS = 2 ** 20

ENGINE_CLOSED = "closed_form"
ENGINE_PSEUDOMODE = "pseudomode"
ENGINE_ORACLE = "oracle"


# How far |C1|^2 + |C2|^2, or |C2|^2 alone, may exceed 1 before a trajectory
# is rejected: validate admits initial states normalised to within 1e-12,
# and rounding added at most 1.1e-15 over 750 random closed-form points at
# magnitudes up to 1e16 and 4.4e-16 over 300 pseudomode points up to 1e4.
# Wrong pseudomode runs pass it: norms of 1 + 2.6e-8 at magnitudes from 1e4
# to 1e8, and a |C2|^2 of 9e128 at omega_drive = 3.16e17.
POPULATION_SLACK = 1e-10


class IntegrationError(RuntimeError):
    """A numerical failure: amplitudes or metrics that are not finite or
    exceed their physical bounds, or a bath eigenproblem the oracle cannot
    solve."""


# glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD, set at import: blocks below
# 32 MiB come from the heap, not from a mapping that a free unmaps, and a
# freed heap top of up to 64 MiB stays mapped.  Setting either switches off
# glibc's dynamic thresholds, so they work only as a pair.  They pay in the
# bath oracle (0 faults a repeated propagate, against about 590) and in a
# process's first sweep (half the faults), not in a sweep's later chunks.
MALLOPT = ((-3, 32 << 20), (-1, 64 << 20))


def _keep_freed_heap() -> None:
    """Set MALLOPT, best effort: on Linux only (musl ignores glibc's
    parameters); elsewhere, or without a C library, only speed differs."""
    if sys.platform != "linux":
        return
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param, value in MALLOPT:
        mallopt(param, value)


_keep_freed_heap()


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
    """Default window: 10 in weak coupling, 5 in strong."""
    return TimeGrid.uniform(10.0 if params.R <= 1.0 else 5.0, n_points)


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Charger (c1) and battery (c2) amplitudes sampled on a grid.

    A batch of points holds (points, time) arrays.  c1 is None where only
    the battery's amplitude was formed.  total_norm is filled only by the
    bath-discretization engine, where the evolution is unitary over qubits
    plus modes.
    """

    grid: TimeGrid
    c1: np.ndarray | None
    c2: np.ndarray
    engine_tag: str
    total_norm: np.ndarray | None = None

    def __post_init__(self):
        # The summed amplitudes are non-finite if any amplitude is.  A plain
        # sum, not a BLAS dot product: on (points x time) batches BLAS would
        # hand the reduction to its threads, whose wake-up costs milliseconds.
        if not cmath.isfinite(np.sum(self.c2) + (0 if self.c1 is None else np.sum(self.c1))):
            raise IntegrationError(f"{self.engine_tag} engine gave non-finite amplitudes")
        if self.c1 is not None:  # else compute_metrics checks |C2|^2 alone
            norm = np.max(self.qubit_norm())
            if norm > 1.0 + POPULATION_SLACK:
                raise IntegrationError(f"{self.engine_tag} engine gave a qubit norm "
                                       f"|C1|^2 + |C2|^2 of {norm:.17g}, above 1")

    def qubit_norm(self) -> np.ndarray:
        with np.errstate(over="ignore"):  # a huge finite amplitude squares to inf
            return np.abs(self.c1) ** 2 + np.abs(self.c2) ** 2


@dataclass(frozen=True)
class KernelParams:
    """Laplace-domain constants of the equal-frequency survival amplitude.

    M = 1 - i(chi + delta_L); F = sqrt(M^2 - c^2), with the coupling
    c = W (1 + cos eta).  Z(t) depends on F only through F^2, so either
    branch of the square root gives the same amplitude.  c is optional:
    without it c^2 is taken as M^2 - F^2, which loses c^2 where it is far
    below |M|^2.  M, F and c may be arrays along a points axis.
    """

    M: complex
    F: complex
    c: complex | None = None


def kernel_params(params: SystemParams, frame: DressedFrame) -> KernelParams:
    """Kernel constants for equal detunings (chi_A = chi_B, cos2_A = cos2_B):
    the M, F and c of closed_form."""
    closed = closed_form(params, frame)
    return KernelParams(*(unbatched(x) for x in (closed.M, closed.F, closed.c)))


def survival_amplitude(kernel: KernelParams | ClosedForm, t, out: np.ndarray | None = None):
    """Survival amplitude Z(t) of the super-radiant component.

    Z(t) = e^{-Mt/2} (cosh(Ft/2) + (M/F) sinh(Ft/2)) = ep + ep h, with
        ep = e^{lt},  h = -lt phi1(-Ft) = kappa (e^{-Ft} - 1),  kappa = l/F,
    phi1(z) = (e^z - 1)/z and phi1(0) = 1.  The slow rate l = (F - M)/2 is
    taken as -c (c/(F + M))/2 on the branch Re F >= 0, where F + M does
    not cancel, so it keeps its digits where F rounds to M (a drive or
    detuning far above the coupling).  h, a divided difference of the
    exponential, keeps them at and near the critically damped point F = 0,
    where the two exponentials ep and em = e^{(l-F)t} nearly cancel in
    Z - ep.  F = 0 is not a special case, and Z(0) = 1 exactly.

    t is a scalar or array of times >= 0, or a TimeGrid.  On a TimeGrid
    the samples are filled by doubling, which agrees with the direct form
    to about 1e-14: where |kappa| <= 1, as Z = (1 - kappa) ep + kappa em,
    two geometric sequences whose scales are at most 2 and 1 in modulus;
    elsewhere as ep and h, h by h(t + s) = e^{-Fs} h(t) + h(s).
    kernel is a KernelParams or any record with M, F and c (a ClosedForm),
    which may be arrays with a leading points axis; the result then has
    shape M.shape + t.shape.  On a TimeGrid, out may be a complex array of
    shape (2,) + that shape: Z is written into out[0], and out[1] is
    overwritten.
    """
    on_grid = isinstance(t, TimeGrid)
    t = t.samples if on_grid else np.asarray(t, dtype=float)
    shape = np.shape(kernel.M) + t.shape
    # One row per kernel and one column per sample, so that a point's
    # arithmetic is that of every batch: numpy rounds products of scalars
    # unlike those of arrays.
    M, F, c = (None if x is None else np.asarray(x).reshape(-1, 1)
               for x in (kernel.M, kernel.F, kernel.c))
    # Overflowing inputs (huge splittings or couplings) give non-finite
    # samples, which AmplitudeTrajectory rejects; numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        c = np.sqrt(M * M - F * F) if c is None else c
        F = np.where(F.real < 0.0, -F, F)
        rate = -c * (c / (F + M)) / 2.0
        if not on_grid:
            ep, h = _terms(rate, F, t.reshape(-1))
            Z = np.add(ep, ep * h).reshape(shape)
            return complex(Z) if Z.ndim == 0 else Z
        if out is None:
            out = np.empty((2,) + shape, complex)
        # Each half starts from its scale: (1 - kappa, kappa), or (1, 0) for
        # ep and h near F = 0; each doubling level's factors are e^{ls} and
        # e^{(l-F)s}, or e^{-Fs} for h, which also adds h(s).
        near = np.abs(rate) > np.abs(F)
        kappa = np.where(near, 0.0, rate / F)
        rows = out.reshape(2, -1, len(t))
        rows[0, :, :1] = 1.0 - kappa
        rows[1, :, :1] = kappa
        steps = t[2 ** np.arange((len(t) - 1).bit_length())].reshape(-1, 1, 1)
        ep_steps, h_steps = _terms(rate, F, steps)
        second = np.exp(np.where(near, -F, -(F + M) / 2.0) * steps)
        factors = np.stack((ep_steps, second), axis=1)
        if near.any():
            _fill_by_doubling(rows, zip(factors, h_steps), partial(_affine_step, near))
            np.multiply(rows[1], rows[0], out=rows[1], where=near)
        else:
            _fill_by_doubling(rows, iter(factors), np.multiply)
        np.add(rows[0], rows[1], out=rows[0])
    return out[0]


def _terms(rate: np.ndarray, F: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ep = e^{lt} and h = -lt phi1(-Ft) of survival_amplitude, with
    phi1(z) = (e^z - 1)/z taken as 1 at z = 0 (inside its errstate)."""
    lt = rate * t
    z = -F * t
    return np.exp(lt), -lt * np.where(z == 0.0, 1.0, np.expm1(z) / z)


def _affine_step(near: np.ndarray, shift, y: np.ndarray,
                 out: np.ndarray | None = None) -> np.ndarray:
    """survival_amplitude's doubling step: factors times (ep, h), plus the
    offsets in the rows of h where near."""
    factors, offsets = shift
    out = np.multiply(factors, y, out=out)
    np.add(out[1], offsets, out=out[1], where=near)
    return out


def _exp_on_grid(scale: np.ndarray, rate: np.ndarray, t: np.ndarray,
                 out: np.ndarray) -> np.ndarray:
    """scale e^{rate t} over uniform samples t, for rates shaped (..., 1).

    The factor for a shift of m samples is taken directly as e^{rate t_m},
    all of them from one np.exp, so rounding grows with the log2(n)
    doubling levels, not with n.  out is a complex array of the result's
    shape, which it returns filled.
    """
    out[..., :1] = scale
    # One contiguous block of factors per level, as (levels,) + rate.shape.
    steps = t[2 ** np.arange((len(t) - 1).bit_length())]
    shifts = np.exp(rate * steps.reshape((-1,) + (1,) * rate.ndim))
    return _fill_by_doubling(out, iter(shifts), np.multiply)


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


# _expm takes E = e^X - I, X = A / 2^s, from the degree-12 Taylor polynomial
# and squares it s times as (I + E)^2 - I = E^2 + 2E.  Carrying the
# deviation E from the identity keeps the small deviations of slowly
# evolving amplitudes, which I + E would round to an ulp, through every
# squaring.  The polynomial's backward error stays below 2^-53 while the
# 1-norm of X is at most EXPM_THETA (Al-Mohy & Higham, SIAM J. Matrix Anal.
# Appl. 31, 970 (2009)), so a default-grid step with |A dt| below 0.3 needs
# no squaring.  It is evaluated by Paterson-Stockmeyer in powers of X^4:
# E = B_0 + X^4 (B_1 + X^4 B_2), where row j of EXPM_BLOCKS holds the
# coefficients of I, X, X^2, X^3 and X^4 in B_j.
EXPM_THETA = 0.2996
_TAYLOR = [1.0 / math.factorial(k) for k in range(13)]
EXPM_BLOCKS = np.array([[0.0, *_TAYLOR[1:4], 0.0], [*_TAYLOR[4:8], 0.0], _TAYLOR[8:13]],
                       dtype=complex)


def _expm(A: np.ndarray) -> np.ndarray:
    """e^A for a (points, 3, 3) stack of complex matrices, by scaling and squaring.

    Each matrix takes its own scaling exponent s from its own 1-norm, and
    every product is one matrix's own 3x3 product, so a matrix's bits do not
    depend on the stack it is in.  Non-finite entries give non-finite
    results.
    """
    n = len(A)
    # hypot on the strided parts takes numpy's scalar loop whatever n is.
    size = np.hypot(A.real, A.imag)
    norm = (size[:, 0] + size[:, 1] + size[:, 2]).max(axis=1)
    s = np.maximum(np.frexp(norm / EXPM_THETA)[1], 0)
    powers = np.empty((n, 5, 3, 3), dtype=complex)
    powers[:, 0] = np.eye(3)
    np.multiply(A, np.ldexp(1.0, -s)[:, None, None], out=powers[:, 1])
    np.matmul(powers[:, 1], powers[:, 1], out=powers[:, 2])
    np.matmul(powers[:, 2], powers[:, 1], out=powers[:, 3])
    np.matmul(powers[:, 2], powers[:, 2], out=powers[:, 4])
    blocks = (EXPM_BLOCKS @ powers.reshape(n, 5, 9)).reshape(n, 3, 3, 3)
    E = powers[:, 4] @ blocks[:, 2]
    E += blocks[:, 1]
    E = powers[:, 4] @ E
    E += blocks[:, 0]
    for k in range(int(s.max())):
        rows = s > k
        part = E[rows]
        E[rows] = part @ part + 2.0 * part
    return E + np.eye(3)


def _columns(*values) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """The points shape of the values, () for a single point, and each value
    as one fresh array along a points axis: a single point is a batch of
    one, whose array operations are those of every batch."""
    shape = max(np.shape(v) for v in values)
    return shape, [np.full(math.prod(shape), v) for v in values]


@dataclass(frozen=True, eq=False)
class ClosedForm:
    """The closed form's constants: (points,) arrays, or 0-d for one point.

    M, F and the coupling c are the kernel's (KernelParams); the amplitudes
    are C_j(t) = a_j Z(t) + b_j.  A sweep builds them once for all its
    points, and each chunk takes its slice with model.take.
    """

    M: np.ndarray
    F: np.ndarray
    c: np.ndarray
    a1: np.ndarray
    b1: np.ndarray
    a2: np.ndarray
    b2: np.ndarray


def closed_form(params, frame) -> ClosedForm:
    """The closed form's constants of one point or a batch of points.

    The initial state is decomposed into the constant sub-radiant amplitude
    beta_minus and the super-radiant amplitude beta_plus, which evolves with
    Z(t):

        C1(t) = r2 beta_minus + r1 Z(t) beta_plus
        C2(t) = -r1 beta_minus + r2 Z(t) beta_plus

    It needs equal detunings.  M and the coupling are squared in units of
    s, the power of two just below the largest of Re M = 1, |Im M| and the
    coupling: exact, and no square overflows, however large R or chi.
    """
    require(params.equal_detunings(), "kernel requires delta_A == delta_B, got {} != {}",
            params.delta_A, params.delta_B)
    shape, (chi, delta_L, W, cos2, r1, r2, c01, c02) = _columns(
        frame.chi_A, frame.delta_L, frame.W, frame.cos2_A, params.r1, params.r2,
        params.c01, params.c02)
    # Overflows give non-finite constants, which AmplitudeTrajectory rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        M = 1.0 - 1j * (chi + delta_L)
        coupling = W * 2.0 * cos2  # W (1 + cos eta)
        # Components, as abs(M) may overflow; s >= 1, as Re M = 1.
        largest = np.maximum(np.maximum(np.abs(M.real), np.abs(M.imag)), coupling)
        s = np.ldexp(1.0, np.frexp(largest)[1] - 1)
        m, c = M / s, coupling / s
        F = s * np.sqrt(m * m - c * c)  # overflows to inf silently
    beta_plus = r1 * c01 + r2 * c02
    beta_minus = r2 * c01 - r1 * c02
    return ClosedForm(*(x.reshape(shape) for x in (M, F, coupling, r1 * beta_plus,
                                                    r2 * beta_minus, r2 * beta_plus,
                                                    -(r1 * beta_minus))))


def closed_form_trajectory(closed: ClosedForm, grid: TimeGrid,
                           with_c1: bool = True) -> AmplitudeTrajectory:
    """Closed-form amplitudes, shaped M.shape + (time,), from the constants.

    Z and survival_amplitude's second half share one block,
    c2.base, whose second half then holds C2 and, with_c1, whose first
    holds C1 in place of Z.  Without it c1 is None and the first half is
    free; C2 is non-finite exactly where Z is, as a2 and b2 are finite.
    """
    block = np.empty((2,) + closed.M.shape + (grid.n_points,), dtype=complex)
    Z = survival_amplitude(closed, grid, out=block)
    c2 = np.multiply(Z, closed.a2[..., None], out=block[1])
    c2 += closed.b2[..., None]
    c1 = None
    if with_c1:
        c1 = np.multiply(Z, closed.a1[..., None], out=Z)
        c1 += closed.b1[..., None]
    return AmplitudeTrajectory(grid, c1, c2, ENGINE_CLOSED)


def equal_frequency_trajectory(params, frame, grid: TimeGrid) -> AmplitudeTrajectory:
    """Closed-form amplitudes for identical qubit detunings (closed_form).

    params and frame are one point, or a batch whose fields are (points,)
    arrays; a batch gives amplitudes shaped (points, time).
    """
    return closed_form_trajectory(closed_form(params, frame), grid)


# As in survival_amplitude, AmplitudeTrajectory rejects overflowed samples, so
# numpy need not warn anywhere in the engine.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def general_trajectory(params, frame, grid: TimeGrid,
                       with_c1: bool = True) -> AmplitudeTrajectory:
    """Exact pseudomode amplitudes, valid for unequal detunings.

    In the battery's rotating frame, y = (C_A, C_B, b) e^{i chi_B t} obeys
    y' = A y with the constant generator below, so C_B = y_B needs no
    rotation back, and on the uniform grid y_k = P^k y_0 with P = e^{A dt}
    (_expm).  Doubling (y[m:2m] = P^m y[:m]) fills the grid with about
    log2(n_points) 3x3 products, and, with_c1, C_A = y_A e^{i (chi_A -
    chi_B) t}.  Without it c1 is None and c2 is y_B in c2.base, the complex
    (3, points, time) block y, whose first row and b's are then free.  A
    point whose rotation overflows fails either way.

    params and frame are one point, or a batch whose fields are (points,)
    arrays; a batch gives amplitudes shaped (points, time).
    """
    shape, (chi_A, chi_B, delta_L, W, cos2_A, cos2_B, r1, r2, c01, c02) = _columns(
        frame.chi_A, frame.chi_B, frame.delta_L, frame.W, frame.cos2_A, frame.cos2_B,
        params.r1, params.r2, params.c01, params.c02)
    w_A = W * r1 * cos2_A
    w_B = W * r2 * cos2_B
    generator = np.zeros((len(w_A), 3, 3), dtype=complex)
    generator[:, 0, 0] = -1j * (chi_A - chi_B)
    generator[:, 0, 2], generator[:, 1, 2] = -w_A, -w_B
    generator[:, 2, 0], generator[:, 2, 1] = w_A, w_B
    generator[:, 2, 2] = -(1.0 - 1j * (delta_L + chi_B))
    t = grid.samples
    # The rotation's largest doubling step: C_A is non-finite exactly where
    # this is, so a point fails the same with C1 formed or not.
    if not np.all(np.isfinite((chi_A - chi_B) * t[2 ** ((len(t) - 1).bit_length() - 1)])):
        raise IntegrationError(f"{ENGINE_PSEUDOMODE} engine gave non-finite amplitudes")
    step = _expm(generator * t[1])
    # Stored component-major, so C_A and C_B are contiguous (points, time) blocks.
    y = np.empty((3, len(w_A), grid.n_points), dtype=complex)
    y[0, :, 0], y[1, :, 0], y[2, :, 0] = c01, c02, 0.0
    _fill_by_doubling(y.transpose(1, 0, 2), _squarings(step), np.matmul)
    c1, c2, phase = y
    if with_c1:
        # The pseudomode amplitude b is not returned, so its block holds the phase.
        c1 *= _exp_on_grid(1.0, 1j * (chi_A - chi_B)[:, None], t, phase)
    c1, c2 = (c.reshape(shape + (-1,)) for c in (c1, c2))
    return AmplitudeTrajectory(grid, c1 if with_c1 else None, c2, ENGINE_PSEUDOMODE)
