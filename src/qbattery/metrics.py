"""Figures of merit: stored energy, average charging power, ergotropy.

The battery's reduced state stays diagonal in its dressed basis, so every
metric is a function of the excited-state population |C2|^2 and the dressed
splitting chi_B.  The spectral (eigenvalue-overlap) ergotropy is kept
alongside the two-level closed form as an independent route.

The series functions accept one trajectory, or a batch of them with a
leading points axis and chi_B a number or one per point.  The three
series are computed in place as the rows of one array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynamics import POPULATION_SLACK, AmplitudeTrajectory, IntegrationError, TimeGrid


class Extremum(NamedTuple):
    """Peak value and its time: numpy floats for one trajectory, arrays
    along the points axis for a batch."""

    value: float
    time: float


@dataclass(frozen=True, eq=False)
class MetricsSeries:
    """Energy, power and ergotropy sampled on the trajectory's time grid.

    A batch of points holds (points, time) arrays.  The max_* records are
    None when compute_metrics ran without maxima.
    """

    energy: np.ndarray
    power: np.ndarray
    ergotropy: np.ndarray
    max_energy: Extremum | None = None
    max_power: Extremum | None = None
    max_ergotropy: Extremum | None = None


def battery_hamiltonian(chi_B: float) -> np.ndarray:
    """(chi_B/2) (excited projector - ground projector), basis (g, e)."""
    return np.diag([-chi_B / 2.0, chi_B / 2.0])


def ergotropy_closed(traj: AmplitudeTrajectory, chi_B) -> np.ndarray:
    """Two-level ergotropy (2|C2|^2 - 1) theta(|C2|^2 - 1/2) chi_B."""
    return compute_metrics(traj, chi_B, with_maxima=False).ergotropy


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
    last axis; the peak's value and time are arrays over its other axes.  A
    peak on the window edge, or without downward curvature, stays at the
    grid point.  The refined value is clamped from below by the grid
    maximum, so refinement can only improve on the sampled peak.
    """
    n = y.shape[-1]
    rows = y.reshape(-1, n)
    r = np.arange(len(rows))
    i = np.argmax(rows, axis=-1)
    inner = np.minimum(np.maximum(i, 1), n - 2)    # has neighbors when n > 2
    y0, y1, y2 = (rows[r, inner + k] for k in (-1, 0, 1))
    t0, t1, t2 = (t[inner + k] for k in (-1, 0, 1))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # y = y1 + b s + a s^2 in s = t - t1 passes through the three samples.
        g0, g2 = (y0 - y1) / (t0 - t1), (y2 - y1) / (t2 - t1)
        a = (g2 - g0) / (t2 - t0)
        b = g0 - a * (t0 - t1)
        time = np.minimum(np.maximum(t1 - b / (2.0 * a), t0), t2)
        value = y1 + (time - t1) * (b + a * (time - t1))
    peak = rows[r, i]
    refined = (i > 0) & (i < n - 1) & (a < 0.0) & (value >= peak)
    value = np.where(refined, value, peak).reshape(y.shape[:-1])
    time = np.where(refined, time, t[i]).reshape(y.shape[:-1])
    return Extremum(value, time)


def maxima(grid: TimeGrid, series: np.ndarray) -> tuple[Extremum, Extremum, Extremum]:
    """The (value, argmax time) records of the stacked energy, power and
    ergotropy rows of series, from one refinement of all three."""
    peak = _refine_peak(grid.samples, series)
    return tuple(map(Extremum, peak.value, peak.time))


def compute_metrics(traj: AmplitudeTrajectory, chi_B, with_maxima: bool = True,
                    out: np.ndarray | None = None) -> MetricsSeries:
    """Energy, power and ergotropy of one trajectory or a batch of them.

    E_B = |C2|^2 chi_B, P_B(t) = E_B(t)/t with P_B(0) = 0, and
    W_B = max(2|C2|^2 - 1, 0) chi_B, which is
    (2|C2|^2 - 1) theta(|C2|^2 - 1/2) chi_B: the prefactor vanishes at the
    threshold, so the series is continuous there.  The three series are the
    rows of one (3,) + c2.shape array, made in the memory of out if given:
    a C-contiguous complex block whose second row may be traj.c2, as either
    engine leaves it without C1.  The energy and power rows then fill the
    first row, and the ergotropy row overwrites the start of C2 after C2's
    last read, so traj.c2 is spent.  IntegrationError if
    |C2|^2 exceeds 1 by more than POPULATION_SLACK (checked first) or the
    power overflows.
    """
    chi_B = np.asarray(chi_B, dtype=float)
    if not np.all(np.isfinite(chi_B) & (chi_B >= 0.0)):
        raise ValueError(f"chi_B must be finite and non-negative: {chi_B}")
    t = traj.grid.samples
    shape = (3,) + traj.c2.shape
    series = (np.empty(shape) if out is None
              else out.reshape(-1).view(float)[:3 * traj.c2.size].reshape(shape))
    energy, power, ergotropy = series
    # A diverged |C2| may pass 1e154, and its square overflow to inf.
    with np.errstate(over="ignore"):
        np.abs(traj.c2, out=energy)
        energy *= energy                   # |C2|^2 until it is scaled below
        population = np.max(energy)
        if population > 1.0 + POPULATION_SLACK:
            raise IntegrationError("battery population |C2|^2 exceeds 1: max |C2| = "
                                   f"{np.max(np.abs(traj.c2)):.17g}")
    # C2 is not read again: the ergotropy row may lie over it.
    np.multiply(energy, 2.0, out=ergotropy)
    ergotropy -= 1.0
    np.maximum(ergotropy, 0.0, out=ergotropy)
    ergotropy *= chi_B[..., None]
    energy *= chi_B[..., None]
    power[..., 0] = 0.0
    with np.errstate(over="ignore"):
        np.divide(energy[..., 1:], t[1:], out=power[..., 1:])
    # The power is non-negative, so its maximum is finite only if every sample is.
    if not np.isfinite(np.max(power)):
        raise IntegrationError("charging power overflows the float range")
    peaks = maxima(traj.grid, series) if with_maxima else ()
    return MetricsSeries(energy, power, ergotropy, *peaks)
