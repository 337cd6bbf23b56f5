"""Brute-force ground truth: explicit discretization of the Lorentzian bath.

The cavity continuum is replaced by n_modes equally spaced modes on a
window of +-span loss rates around the cavity center, each coupled with
g_k^2 = J(omega_k) * d_omega.  The resulting single-excitation Schrodinger
equations for the qubit and mode amplitudes are integrated directly, in the
frame where their generator is a constant real Hamiltonian; the evolution is
exactly unitary, so total norm conservation measures nothing but integrator
error.  This engine validates both analytic engines and is deliberately
independent of them: no kernel, no survival amplitude, no pseudomode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .model import DressedFrame, SystemParams, validate
from .dynamics import AmplitudeTrajectory, ENGINE_ORACLE, IntegrationError, TimeGrid

DEFAULT_N_MODES = 4000
DEFAULT_SPAN = 50.0

NORM_ABORT = 1e-6

# Right-hand-side evaluations allowed per propagation.  The certification
# points take about 6000; the budget bounds the runtime of inputs whose
# splittings the integrator can only resolve with vanishing steps.
RHS_BUDGET = 100_000

# Size caps.  Each right-hand-side evaluation costs time linear in n_modes,
# and the integrator stores (n_modes + 2) x n_points complex states; the
# certification points use 4000 modes and 8.0e6 states.
MAX_N_MODES = 2 ** 16
MAX_STATES = 2 ** 24


@dataclass(frozen=True, eq=False)
class DiscretizedBath:
    """Uniform midpoint discretization of the Lorentzian spectral density."""

    n_modes: int
    span: float
    mode_detunings: np.ndarray
    couplings: np.ndarray

    @property
    def spacing(self) -> float:
        return float(self.mode_detunings[1] - self.mode_detunings[0])

    @property
    def recurrence_time(self) -> float:
        """Revival horizon 2 pi / d_omega of the discrete frequency comb."""
        return 2.0 * math.pi / self.spacing


def window_fraction(span: float) -> float:
    """Fraction of the Lorentzian weight inside +-span half-widths."""
    return 2.0 / math.pi * math.atan(span)


def build_bath(frame: DressedFrame, n_modes: int = DEFAULT_N_MODES,
               span: float = DEFAULT_SPAN) -> DiscretizedBath:
    """Midpoint-sample the Lorentzian J on [-span*lambda, +span*lambda].

    Requires 100 <= n_modes <= MAX_N_MODES, span >= 10, and a mode spacing
    of at most lambda/20 so the Lorentzian width is resolved.
    """
    if not 100 <= n_modes <= MAX_N_MODES:
        raise ValueError(f"n_modes must be in [100, {MAX_N_MODES}], got {n_modes}")
    if span < 10.0:
        raise ValueError(f"span must be >= 10, got {span}")
    lam, W = frame.lambda_, frame.W
    d_omega = 2.0 * span * lam / n_modes
    if d_omega > lam / 20.0 + 1e-15:
        raise ValueError(
            f"mode spacing {d_omega:g} exceeds lambda/20; "
            f"need n_modes >= {40.0 * span:g} for span {span:g}")
    detunings = -span * lam + (np.arange(n_modes) + 0.5) * d_omega
    density = W * W * lam / math.pi / (detunings ** 2 + lam ** 2)
    couplings = np.sqrt(density * d_omega)
    if W > 0.0:
        weight = float(np.sum(couplings ** 2))
        target = W * W * window_fraction(span)
        if abs(weight - target) > 0.01 * W * W:
            raise ValueError(
                f"discretized weight {weight:g} misses truncated-window "
                f"integral {target:g} by more than 1%")
    return DiscretizedBath(n_modes=n_modes, span=span,
                           mode_detunings=detunings, couplings=couplings)


def propagate(params: SystemParams, frame: DressedFrame, bath: DiscretizedBath,
              grid: TimeGrid, tol: float = 1e-9) -> AmplitudeTrajectory:
    """Integrate the full qubits-plus-modes amplitude equations.

    In the frame rotating with each amplitude's own frequency, the state
    y = (q_A, q_B, a_1..a_n) obeys y' = -i H y with the constant real
    arrowhead Hamiltonian

        H_jj = chi_j + delta_L,  H_kk = dw_k,  H_jk = H_kj = alpha_j cos^2(eta_j/2) g_k,

    with every a_k(0) = 0, so the right-hand side computes no exponentials.
    The qubit amplitudes are rotated back only at the samples,
    C_j = q_j e^{i (chi_j + delta_L) t}; the phases have modulus 1, so the
    total norm is that of y.  Comparisons are only meaningful before bath
    revivals, so the grid must end below half the recurrence time.  At most
    MAX_STATES states (n_modes + 2) x n_points are stored.
    """
    validate(params)
    states = (bath.n_modes + 2) * grid.n_points
    if states > MAX_STATES:
        raise ValueError(
            f"{bath.n_modes} modes on {grid.n_points} samples store {states} "
            f"states, more than MAX_STATES = {MAX_STATES}")
    half_rec = 0.5 * bath.recurrence_time
    if grid.t_max >= half_rec:
        raise ValueError(
            f"grid reaches t = {grid.t_max:g}, past half the bath recurrence "
            f"time {bath.recurrence_time:g}; enlarge n_modes/span")
    weights = np.array([params.alpha_A * frame.cos2_A,
                        params.alpha_B * frame.cos2_B])
    rates = np.array([frame.chi_A, frame.chi_B]) + frame.delta_L
    det = bath.mode_detunings
    g = bath.couplings
    evaluations = 0

    def rhs(t, y):
        nonlocal evaluations
        evaluations += 1
        if evaluations > RHS_BUDGET:
            raise IntegrationError(
                f"bath propagation used up its budget of {RHS_BUDGET} "
                f"right-hand-side evaluations before t = {grid.t_max:g} "
                f"(reached t = {t:g}, n_modes={bath.n_modes}, tol={tol:g})")
        q, a = y[:2], y[2:]
        hy = np.empty_like(y)
        hy[:2] = rates * q + weights * np.sum(g * a)
        np.multiply(det, a, out=hy[2:])
        hy[2:] += g * np.sum(weights * q)
        hy *= -1j
        return hy

    y0 = np.zeros(bath.n_modes + 2, dtype=complex)
    y0[0] = params.c01
    y0[1] = params.c02
    sol = solve_ivp(rhs, (0.0, grid.t_max), y0, method="DOP853",
                    rtol=tol, atol=tol * 1e-3, t_eval=grid.samples)
    if not sol.success:
        raise IntegrationError(f"bath propagation failed: {sol.message}")
    total_norm = np.sum(np.abs(sol.y) ** 2, axis=0)
    drift = float(np.max(np.abs(total_norm - 1.0)))
    if drift > NORM_ABORT:
        worst = grid.samples[int(np.argmax(np.abs(total_norm - 1.0)))]
        raise IntegrationError(
            f"norm conservation breached: max |norm - 1| = {drift:.3e} "
            f"at t = {worst:g} (n_modes={bath.n_modes}, tol={tol:g})")
    c1, c2 = sol.y[:2] * np.exp(1j * rates[:, None] * grid.samples)
    return AmplitudeTrajectory(grid=grid, c1=c1, c2=c2,
                               engine_tag=ENGINE_ORACLE, total_norm=total_norm)
