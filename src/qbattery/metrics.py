"""Figures of merit: stored energy, average charging power, ergotropy.

The battery's reduced state stays diagonal in its dressed basis, so every
metric is a function of the excited-state population |C2|^2 and the dressed
splitting chi_B.  The spectral (eigenvalue-overlap) ergotropy is kept
alongside the two-level closed form as an independent route.

The series functions accept one trajectory, or a batch of them with a
leading points axis and one chi_B per point.  Each series is computed in
place in one new array: on a batch, every fresh (points x time) temporary
costs page faults that outweigh the arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .dynamics import AmplitudeTrajectory, TimeGrid


class Extremum(NamedTuple):
    """Peak value and its time; arrays along the points axis for a batch."""

    value: float
    time: float


@dataclass(frozen=True, eq=False)
class MetricsSeries:
    """Energy, power and ergotropy sampled on a time grid.

    A batch of points holds (points, time) arrays.  The max_* records are
    None until filled in by maxima().
    """

    grid: TimeGrid
    energy: np.ndarray
    power: np.ndarray
    ergotropy: np.ndarray
    max_energy: Extremum | None = None
    max_power: Extremum | None = None
    max_ergotropy: Extremum | None = None


def battery_hamiltonian(chi_B: float) -> np.ndarray:
    """(chi_B/2) (excited projector - ground projector), basis (g, e)."""
    return np.diag([-chi_B / 2.0, chi_B / 2.0])


def _splitting(traj: AmplitudeTrajectory, chi_B) -> np.ndarray:
    """chi_B shaped to multiply the trajectory's (points, time) samples."""
    chi_B = np.asarray(chi_B, dtype=float)
    if np.any(chi_B < 0.0):
        raise ValueError(f"negative chi_B: {chi_B}")
    return chi_B[..., None] if traj.c2.ndim > 1 else chi_B


def stored_energy(traj: AmplitudeTrajectory, chi_B) -> np.ndarray:
    """E_B(t) = |C2(t)|^2 chi_B, relative to the empty battery."""
    chi_B = _splitting(traj, chi_B)
    energy = np.abs(traj.c2)
    energy *= energy
    energy *= chi_B
    return energy


def stored_energy_trace(excited_population, chi_B: float,
                        reference_excited: float = 0.0) -> np.ndarray:
    """Trace-form energy Tr[H rho(t)] - Tr[H rho_ref] for diagonal states.

    With the ground-state reference (reference_excited = 0) this reproduces
    stored_energy exactly.
    """
    if chi_B < 0.0:
        raise ValueError(f"negative chi_B: {chi_B}")
    p = np.asarray(excited_population, dtype=float)
    levels = np.diagonal(battery_hamiltonian(chi_B))
    pops = np.stack([1.0 - p, p], axis=-1)
    ref = np.array([1.0 - reference_excited, reference_excited])
    return pops @ levels - ref @ levels


def charging_power(energy: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """P_B(t) = E_B(t)/t, with the t -> 0 limit P_B(0) = 0."""
    energy = np.asarray(energy, dtype=float)
    if energy.shape[-1:] != grid.samples.shape:
        raise ValueError("energy series does not match the time grid")
    power = np.empty_like(energy)
    power[..., 0] = 0.0
    np.divide(energy[..., 1:], grid.samples[1:], out=power[..., 1:])
    return power


def ergotropy_closed(traj: AmplitudeTrajectory, chi_B) -> np.ndarray:
    """Two-level ergotropy (2|C2|^2 - 1) theta(|C2|^2 - 1/2) chi_B.

    The step function is taken as 0 at the threshold; the prefactor vanishes
    there, so the series is continuous either way.
    """
    chi_B = _splitting(traj, chi_B)
    work = np.abs(traj.c2)
    work *= work
    work *= 2.0
    work -= 1.0
    charged = work > 0.0                    # |C2|^2 > 1/2, exactly
    work *= chi_B
    work[~charged] = 0.0
    return work


def ergotropy_spectral(rho_eigenvalues, hamiltonian_eigenvalues, rho_state) -> float:
    """Eigenvalue-overlap ergotropy for an arbitrary finite dimension.

    rho_eigenvalues must be non-increasing and sum to 1,
    hamiltonian_eigenvalues non-decreasing, and rho_state is the density
    matrix written in the ordered Hamiltonian eigenbasis.  Computes

        W = sum_ij r_i eps_j (|<r_i|eps_j>|^2 - delta_ij),

    i.e. the stored energy of rho minus that of its passive state.
    """
    r = np.asarray(rho_eigenvalues, dtype=float)
    eps = np.asarray(hamiltonian_eigenvalues, dtype=float)
    rho = np.asarray(rho_state, dtype=complex)
    d = r.size
    if eps.size != d or rho.shape != (d, d):
        raise ValueError("dimension mismatch between eigenvalues and rho_state")
    if np.any(np.diff(r) > 1e-12):
        raise ValueError("rho_eigenvalues must be sorted in descending order")
    if np.any(np.diff(eps) < -1e-12):
        raise ValueError("hamiltonian_eigenvalues must be sorted in ascending order")
    if abs(float(np.sum(r)) - 1.0) > 1e-9:
        raise ValueError(f"rho_eigenvalues not normalized: sum = {np.sum(r)}")
    if not np.allclose(rho, rho.conj().T, atol=1e-9):
        raise ValueError("rho_state is not Hermitian")
    evals, evecs = np.linalg.eigh(rho)
    evals, evecs = evals[::-1], evecs[:, ::-1]
    if not np.allclose(evals, r, atol=1e-9):
        raise ValueError("rho_eigenvalues disagree with the spectrum of rho_state")
    overlap = np.abs(evecs.T) ** 2          # overlap[i, j] = |<r_i|eps_j>|^2
    return float(np.sum(r[:, None] * eps[None, :] * (overlap - np.eye(d))))


def _refine_peak(t: np.ndarray, y: np.ndarray) -> Extremum:
    """Grid argmax plus the vertex of the parabola through it and its neighbors.

    y holds one series, or one per row, sampled at the times t along its
    last axis.  A peak on the window edge, or without downward curvature,
    stays at the grid point.  The refined value is clamped from below by the
    grid maximum, so refinement can only improve on the sampled peak.
    """
    n = y.shape[-1]
    rows = y.reshape(-1, n)
    r = np.arange(len(rows))
    i = np.argmax(rows, axis=-1)
    inner = np.clip(i, 1, n - 2)           # any index with neighbors when n > 2
    y0, y1, y2 = (rows[r, inner + k] for k in (-1, 0, 1))
    t0, t1, t2 = (t[inner + k] for k in (-1, 0, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # y = y1 + b s + a s^2 in s = t - t1 passes through the three samples.
        g0, g2 = (y0 - y1) / (t0 - t1), (y2 - y1) / (t2 - t1)
        a = (g2 - g0) / (t2 - t0)
        b = g0 - a * (t0 - t1)
        time = np.clip(t1 - b / (2.0 * a), t0, t2)
        value = y1 + (time - t1) * (b + a * (time - t1))
    peak = rows[r, i]
    refined = (i > 0) & (i < n - 1) & (a < 0.0) & (value >= peak)
    value = np.where(refined, value, peak).reshape(y.shape[:-1])
    time = np.where(refined, time, t[i]).reshape(y.shape[:-1])
    if y.ndim == 1:
        return Extremum(float(value), float(time))
    return Extremum(value, time)


def maxima(series: MetricsSeries) -> MetricsSeries:
    """Fill the (value, argmax time) records for all three metrics."""
    t = series.grid.samples
    return replace(
        series,
        max_energy=_refine_peak(t, series.energy),
        max_power=_refine_peak(t, series.power),
        max_ergotropy=_refine_peak(t, series.ergotropy),
    )


def compute_metrics(traj: AmplitudeTrajectory, chi_B,
                    with_maxima: bool = True) -> MetricsSeries:
    """Full metrics pipeline for one trajectory or a batch of them."""
    energy = stored_energy(traj, chi_B)
    series = MetricsSeries(
        grid=traj.grid,
        energy=energy,
        power=charging_power(energy, traj.grid),
        ergotropy=ergotropy_closed(traj, chi_B),
    )
    return maxima(series) if with_maxima else series
