import collections
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import unitary_group

from qbattery import (SystemParams, TimeGrid, battery_hamiltonian,
                      compute_metrics, dressed_frame,
                      equal_frequency_trajectory, ergotropy_closed,
                      ergotropy_spectral, kernel_params, maxima,
                      survival_amplitude)
from qbattery import metrics
from qbattery.dynamics import AmplitudeTrajectory
from qbattery.metrics import _refine_peak


def synthetic_trajectory(grid: TimeGrid, c2: np.ndarray) -> AmplitudeTrajectory:
    c2 = np.asarray(c2, dtype=complex)
    c1 = np.sqrt(np.clip(1.0 - np.abs(c2) ** 2, 0.0, None)).astype(complex)
    return AmplitudeTrajectory(grid=grid, c1=c1, c2=c2, engine_tag="closed_form")


def resonant_run(omega=1.0, R=0.5, t_max=10.0, n=500):
    p = SystemParams(omega_drive=omega, R=R)
    f = dressed_frame(p)
    g = TimeGrid.uniform(t_max, n)
    return p, f, equal_frequency_trajectory(p, f, g)


# --- stored energy -----------------------------------------------------------

def test_empty_battery_stores_nothing():
    g = TimeGrid.uniform(1.0, 20)
    traj = synthetic_trajectory(g, np.zeros(20))
    assert np.all(compute_metrics(traj, 4.0).energy == 0.0)


def test_fully_charged_battery_stores_one_splitting():
    g = TimeGrid.uniform(1.0, 5)
    traj = synthetic_trajectory(g, np.ones(5))
    np.testing.assert_allclose(compute_metrics(traj, 4.0).energy, 4.0)


def test_stored_energy_rejects_negative_splitting():
    g = TimeGrid.uniform(1.0, 5)
    with pytest.raises(ValueError):
        compute_metrics(synthetic_trajectory(g, np.zeros(5)), -1.0)


@pytest.mark.parametrize("chi_B", [math.inf, math.nan])
def test_metrics_reject_non_finite_splitting(chi_B):
    g = TimeGrid.uniform(1.0, 5)
    with pytest.raises(ValueError, match="finite"):
        compute_metrics(synthetic_trajectory(g, np.zeros(5)), chi_B)


def test_resonant_energy_equals_survival_offset_identity():
    p, f, traj = resonant_run()
    energy = compute_metrics(traj, f.chi_B).energy
    Z = survival_amplitude(kernel_params(p, f), traj.grid.samples)
    np.testing.assert_allclose(energy, np.abs(Z - 1.0) ** 2 * f.chi_B / 4.0,
                               rtol=0, atol=1e-12)


# --- charging power ----------------------------------------------------------

def test_linear_charging_has_constant_power():
    # |C2|^2 = t / t_max stores E_B = 3 t with chi_B = 3 t_max.
    g = TimeGrid.uniform(4.0, 9)
    traj = synthetic_trajectory(g, np.sqrt(g.samples / 4.0))
    power = compute_metrics(traj, 12.0).power
    assert power[0] == 0.0
    np.testing.assert_allclose(power[1:], 3.0)


def test_power_time_product_recovers_energy():
    _, f, traj = resonant_run()
    series = compute_metrics(traj, f.chi_B)
    energy, power = series.energy, series.power
    np.testing.assert_allclose(power * traj.grid.samples, energy,
                               rtol=0, atol=1e-15)
    i2 = int(np.argmin(np.abs(traj.grid.samples - 2.0)))
    assert energy[i2] == pytest.approx(traj.grid.samples[i2] * power[i2])


# --- ergotropy ---------------------------------------------------------------

def test_closed_ergotropy_thresholds():
    g = TimeGrid.uniform(1.0, 3)
    for p_exc, chi, expected in ((0.5, 4.0, 0.0), (1.0, 4.0, 4.0), (0.3, 4.0, 0.0)):
        traj = synthetic_trajectory(g, np.full(3, math.sqrt(p_exc)))
        np.testing.assert_allclose(ergotropy_closed(traj, chi), expected,
                                   atol=1e-15)


def qubit_spectral(p_exc: float, chi: float) -> float:
    populations = [1.0 - p_exc, p_exc]
    eps = np.diagonal(battery_hamiltonian(chi))
    return ergotropy_spectral(sorted(populations, reverse=True), eps, np.diag(populations))


def test_spectral_ergotropy_passive_qubit():
    assert qubit_spectral(0.3, 2.0) == pytest.approx(0.0, abs=1e-15)


def test_spectral_ergotropy_active_qubit():
    assert qubit_spectral(0.8, 2.0) == pytest.approx(1.2, abs=1e-12)


def test_spectral_equals_closed_on_population_grid():
    g = TimeGrid.uniform(1.0, 2)
    for p_exc in np.linspace(0.0, 1.0, 100):
        traj = synthetic_trajectory(g, np.full(2, math.sqrt(p_exc)))
        closed = ergotropy_closed(traj, 2.0)[0]
        assert abs(qubit_spectral(p_exc, 2.0) - closed) <= 1e-12


def test_spectral_ergotropy_rejects_bad_input():
    eps = [-1.0, 1.0]
    with pytest.raises(ValueError, match="descending"):
        ergotropy_spectral([0.3, 0.7], eps, np.diag([0.3, 0.7]))
    with pytest.raises(ValueError, match="ascending"):
        ergotropy_spectral([0.7, 0.3], [1.0, -1.0], np.diag([0.3, 0.7]))
    with pytest.raises(ValueError, match="not normalized"):
        ergotropy_spectral([0.7, 0.5], eps, np.diag([0.5, 0.7]))
    with pytest.raises(ValueError, match="disagree"):
        ergotropy_spectral([0.7, 0.3], eps, np.diag([0.5, 0.5]))
    with pytest.raises(ValueError, match="Hermitian"):
        ergotropy_spectral([0.7, 0.3], eps,
                           np.array([[0.7, 1.0], [0.0, 0.3]]))
    with pytest.raises(ValueError, match="dimension"):
        ergotropy_spectral([0.7, 0.3], [0.0], np.diag([0.7, 0.3]))


def random_state_and_hamiltonian(rng, dim=3):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    hamiltonian = (b + b.conj().T) / 2.0
    return rho, hamiltonian


def test_spectral_ergotropy_bounds_random_unitary_extractions():
    rng = np.random.default_rng(2024)
    for case in range(3):
        rho, H = random_state_and_hamiltonian(rng)
        eps, basis = np.linalg.eigh(H)
        rho_h = basis.conj().T @ rho @ basis
        r = np.sort(np.linalg.eigvalsh(rho))[::-1]
        work = ergotropy_spectral(r, eps, rho_h)

        initial = float(np.trace(rho @ H).real)
        passive = initial - work
        # exact assignment: the anti-ordered pairing minimizes sum r_i eps_pi(i)
        best_perm = min(sum(r[i] * eps[p[i]] for i in range(3))
                        for p in itertools.permutations(range(3)))
        assert work == pytest.approx(initial - best_perm, abs=1e-12)

        unitaries = unitary_group.rvs(3, size=2000, random_state=rng)
        rotated = np.einsum("kij,jl,kml->kim", unitaries, rho,
                            unitaries.conj())
        residual = np.einsum("kij,ji->k", rotated, H).real
        assert np.all(residual >= passive - 1e-12)
        assert np.all(initial - residual <= work + 1e-12)


# --- maxima ------------------------------------------------------------------

def test_monotone_series_peaks_at_window_end():
    g = TimeGrid.uniform(3.0, 50)
    energy, power, ergotropy = maxima(g, np.stack([g.samples, np.ones(50), np.zeros(50)]))
    assert energy.time == 3.0
    assert energy.value == 3.0
    assert power.value == 1.0
    assert ergotropy.value == 0.0


def test_quadratic_refinement_recovers_analytic_peak():
    g = TimeGrid.uniform(2.0, 2000)
    y = np.sin(g.samples) ** 2
    peak = _refine_peak(g.samples, y)
    assert peak.value == pytest.approx(1.0, abs=1e-4)
    assert peak.time == pytest.approx(math.pi / 2, abs=1e-4)


def test_strong_coupling_energy_peaks_at_first_revival():
    p = SystemParams(omega_drive=1.0, R=10.0)
    f = dressed_frame(p)
    g = TimeGrid.uniform(5.0, 2000)
    series = compute_metrics(equal_frequency_trajectory(p, f, g), f.chi_B)
    energy = series.energy
    first = next(i for i in range(1, energy.size - 1)
                 if energy[i] >= energy[i - 1] and energy[i] > energy[i + 1])
    assert series.max_energy.time == pytest.approx(g.samples[first],
                                                   abs=2 * g.samples[1])
    assert series.max_energy.value >= energy.max()


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=40))
def test_refinement_never_undershoots_grid_max(values):
    y = np.asarray(values)
    t = np.linspace(0.0, 1.0, y.size)
    peak = _refine_peak(t, y)
    assert peak.value >= y.max()
    assert t[0] <= peak.time <= t[-1]


def test_metrics_refine_all_three_peaks_in_one_pass(monkeypatch):
    calls = collections.Counter()
    for name in ("_refine_peak", "maxima", "MetricsSeries"):
        def counting(*args, _name=name, _original=getattr(metrics, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(metrics, name, counting)
    _, f, traj = resonant_run()
    series = compute_metrics(traj, f.chi_B)
    assert calls == {"_refine_peak": 1, "maxima": 1, "MetricsSeries": 1}
    for name, values in (("max_energy", series.energy), ("max_power", series.power),
                         ("max_ergotropy", series.ergotropy)):
        assert getattr(series, name) == _refine_peak(traj.grid.samples, values)


@pytest.mark.parametrize("n", [2, 3, 50])
def test_refinement_of_rows_matches_one_series_at_a_time(n):
    t = np.linspace(0.0, 1.0, n)
    rows = np.array([np.sin(3.0 * t), t, -t, np.zeros(n), np.cos(7.0 * t) ** 2,
                     np.where(t > 0.5, 1.0, 0.0)])
    peaks = _refine_peak(t, rows)
    for k, y in enumerate(rows):
        assert (peaks.value[k], peaks.time[k]) == _refine_peak(t, y)


def test_batch_metrics_match_single_trajectories():
    points = [SystemParams(omega_drive=omega, R=R) for omega, R in ((0.5, 0.5), (1.0, 10.0))]
    params = SystemParams(omega_drive=np.array([0.5, 1.0]), R=np.array([0.5, 10.0]))
    frame = dressed_frame(params)
    g = TimeGrid.uniform(5.0, 400)
    batch = compute_metrics(equal_frequency_trajectory(params, frame, g), frame.chi_B)
    for k, p in enumerate(points):
        f = dressed_frame(p)
        single = compute_metrics(equal_frequency_trajectory(p, f, g), f.chi_B)
        for name in ("energy", "power", "ergotropy"):
            np.testing.assert_array_equal(getattr(batch, name)[k], getattr(single, name))
        for name in ("max_energy", "max_power", "max_ergotropy"):
            assert (getattr(batch, name).value[k], getattr(batch, name).time[k]) == \
                getattr(single, name)


@given(theta=st.floats(min_value=0.0, max_value=2 * math.pi))
@settings(max_examples=25, deadline=None)
def test_metrics_invariant_under_global_phase(theta):
    phase = complex(math.cos(theta), math.sin(theta))
    base = SystemParams(omega_drive=1.0, R=10.0, c01=0.6, c02=0.8j)
    rotated = SystemParams(omega_drive=1.0, R=10.0,
                           c01=phase * 0.6, c02=phase * 0.8j)
    g = TimeGrid.uniform(5.0, 300)
    out = []
    for p in (base, rotated):
        f = dressed_frame(p)
        out.append(compute_metrics(equal_frequency_trajectory(p, f, g), f.chi_B))
    np.testing.assert_allclose(out[1].energy, out[0].energy, atol=1e-12)
    np.testing.assert_allclose(out[1].power, out[0].power, atol=1e-12)
    np.testing.assert_allclose(out[1].ergotropy, out[0].ergotropy, atol=1e-12)


def test_ergotropy_never_exceeds_energy():
    for omega, R in ((1.0, 0.5), (1.0, 10.0), (2.0, 10.0)):
        _, f, traj = resonant_run(omega=omega, R=R, t_max=5.0, n=1000)
        series = compute_metrics(traj, f.chi_B)
        assert np.all(series.ergotropy <= series.energy + 1e-12)
