import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh

import qbattery
from qbattery import oracle
from qbattery import (IntegrationError, SystemParams, TimeGrid, build_bath,
                      default_grid, dressed_frame, equal_frequency_trajectory,
                      general_trajectory, propagate)


def weak_frame(omega=1.0, R=1.0):
    p = SystemParams(omega_drive=omega, R=R)
    return p, dressed_frame(p)


def test_bath_weight_matches_truncated_lorentzian():
    # R = 1 makes W = 1, the loss rate
    _, f = weak_frame(R=1.0)
    assert f.W == 1.0
    bath = build_bath(f)  # 4000 modes, span 50
    weight = float(np.sum(bath.couplings ** 2))
    assert 0.98 * f.W**2 <= weight <= 1.0 * f.W**2
    target = f.W**2 * 2 / math.pi * math.atan(50.0)    # the weight inside +-50
    assert abs(weight - target) <= 1e-6 * f.W**2


def test_bath_weight_riemann_convergence():
    _, f = weak_frame()
    w1 = float(np.sum(build_bath(f, n_modes=4000).couplings ** 2))
    w2 = float(np.sum(build_bath(f, n_modes=8000).couplings ** 2))
    assert abs(w2 - w1) / w1 < 1e-4


def test_bath_decoupled_when_W_zero():
    p = SystemParams(R=0.0)
    bath = build_bath(dressed_frame(p))
    assert np.all(bath.couplings == 0.0)


def test_bath_mode_grid_is_midpoint_uniform():
    _, f = weak_frame()
    bath = build_bath(f, n_modes=2000, span=25.0)
    spacing = 2 * 25.0 / 2000
    assert bath.spacing == pytest.approx(spacing)
    assert bath.mode_detunings[0] == pytest.approx(-25.0 + spacing / 2)
    assert bath.mode_detunings[-1] == pytest.approx(25.0 - spacing / 2)
    assert bath.recurrence_time == pytest.approx(2 * math.pi / spacing)


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(n_modes=99), "n_modes"),
    (dict(span=9.0), "span"),
    (dict(n_modes=400, span=50.0), "spacing"),  # d_omega = 0.25 > 1/20
    (dict(n_modes=oracle.MAX_N_MODES + 1), "n_modes"),
])
def test_bath_rejects_unresolved_discretizations(kwargs, fragment):
    _, f = weak_frame()
    with pytest.raises(ValueError, match=fragment):
        build_bath(f, **kwargs)


def test_propagation_initial_condition_is_exact():
    p = SystemParams(c01=0.6, c02=0.8j, omega_drive=0.5)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=800, span=20.0)
    traj = propagate(p, f, bath, TimeGrid.uniform(1.0, 50))
    assert traj.c1[0] == 0.6 + 0j
    assert traj.c2[0] == 0.8j
    assert traj.total_norm[0] == pytest.approx(1.0, abs=1e-15)


def test_propagation_conserves_total_norm():
    p = SystemParams(omega_drive=1.0, R=0.5)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=1200, span=15.0)
    traj = propagate(p, f, bath, TimeGrid.uniform(5.0, 200))
    assert np.abs(traj.total_norm - 1.0).max() <= 1e-8


def test_propagation_matches_closed_form_on_small_bath():
    p = SystemParams(omega_drive=1.0, R=0.5)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=1200, span=15.0)
    g = TimeGrid.uniform(5.0, 200)
    bath_traj = propagate(p, f, bath, g)
    closed = equal_frequency_trajectory(p, f, g)
    gap = max(np.abs(bath_traj.c1 - closed.c1).max(),
              np.abs(bath_traj.c2 - closed.c2).max())
    assert gap <= 5e-3


def test_propagation_matches_exact_propagator_of_its_hamiltonian():
    # The qubits-plus-modes amplitudes obey y' = -i H y with a constant real
    # arrowhead H; on a small bath its eigendecomposition solves them exactly.
    p = SystemParams(delta_A=0.5, delta_B=2.0, delta_L=1.5, omega_drive=0.8,
                     R=3.0, c01=0.6, c02=0.8j)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=400, span=10.0)
    grid = TimeGrid.uniform(5.0, 100)
    rates = np.array([f.chi_A, f.chi_B]) + f.delta_L
    weights = np.array([p.r1 * f.cos2_A, p.r2 * f.cos2_B])
    H = np.diag(np.concatenate((rates, bath.mode_detunings)))
    H[:2, 2:] = np.outer(weights, bath.couplings)
    H[2:, :2] = H[:2, 2:].T
    energies, V = eigh(H)
    y0 = np.zeros(bath.n_modes + 2, dtype=complex)
    y0[:2] = p.c01, p.c02
    y = V @ (np.exp(-1j * np.outer(energies, grid.samples)) * (V.T @ y0)[:, None])
    c1, c2 = y[:2] * np.exp(1j * np.outer(rates, grid.samples))
    traj = propagate(p, f, bath, grid)
    assert max(np.abs(traj.c1 - c1).max(), np.abs(traj.c2 - c2).max()) <= 1e-8
    np.testing.assert_allclose(traj.total_norm, np.sum(np.abs(y) ** 2, axis=0),
                               rtol=0, atol=1e-8)


def test_grid_must_stay_below_recurrence_horizon():
    p = SystemParams()
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=800, span=20.0)  # t_rec = 2 pi / 0.05
    assert bath.recurrence_time == pytest.approx(40 * math.pi)
    with pytest.raises(ValueError, match="recurrence"):
        propagate(p, f, bath, TimeGrid.uniform(70.0, 100))


def test_norm_breach_aborts_with_diagnostics(monkeypatch):
    # A root iteration stopped at a 10% relative step leaves a completeness
    # defect of about 2e-5 here, past NORM_ABORT.
    monkeypatch.setattr(oracle, "STOP", 0.1)
    p = SystemParams(omega_drive=1.0, R=10.0)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=800, span=20.0)
    with pytest.raises(IntegrationError, match="norm conservation"):
        propagate(p, f, bath, TimeGrid.uniform(5.0, 100))


def test_propagation_stops_at_its_evaluation_budget(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_PASSES", 1)
    p = SystemParams()
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=400, span=10.0)
    with pytest.raises(IntegrationError, match="budget of 1 passes"):
        propagate(p, f, bath, TimeGrid.uniform(5.0, 100))


@pytest.mark.parametrize("R", [1e160, 1e200, 1e300])
def test_propagation_stops_at_non_finite_bath_eigenpairs(R):
    # At a huge coupling the bath's eigenpairs overflow.  oracle-check cannot
    # get here (its engines exit 3 first), so propagate is called directly;
    # any warning on the way fails the test.
    p = SystemParams(R=R)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=400, span=10.0)
    with pytest.raises(IntegrationError,
                       match=r"bath eigenpairs are not finite \(n_modes=400\)"):
        propagate(p, f, bath, TimeGrid.uniform(1.0, 50))


def eigh_amplitudes(p, f, bath, grid):
    """Qubit amplitudes from the dense eigendecomposition of H."""
    rates = np.array([f.chi_A, f.chi_B]) + f.delta_L
    weights = np.array([p.r1 * f.cos2_A, p.r2 * f.cos2_B])
    H = np.diag(np.concatenate((rates, bath.mode_detunings)))
    H[:2, 2:] = np.outer(weights, bath.couplings)
    H[2:, :2] = H[:2, 2:].T
    energies, V = eigh(H)
    y0 = np.zeros(bath.n_modes + 2, dtype=complex)
    y0[:2] = p.c01, p.c02
    y = V @ (np.exp(-1j * np.outer(energies, grid.samples)) * (V.T @ y0)[:, None])
    return y[:2] * np.exp(1j * np.outer(rates, grid.samples))


# Points where the perpendicular qubit combination decouples, where the
# arrowhead's extra pole p* falls on a mode frequency or outside the comb,
# and where the qubits do not couple to the bath at all.
@pytest.mark.parametrize("kwargs", [
    dict(delta_A=1.5, delta_B=1.5, R=3.0),                       # equal detunings
    dict(r1=0.0, delta_B=2.0, R=3.0),
    dict(r1=1.0, delta_B=2.0, R=3.0),
    dict(omega_drive=0.0, delta_A=0.0, delta_B=0.0, R=2.0),      # Omega = Delta = 0
    dict(omega_drive=0.0, delta_A=0.625, delta_B=2.625, R=3.0),  # p* = (e_A + e_B)/2 ~ dw_232
    dict(delta_A=10.0, delta_B=80.0, delta_L=5.0, R=5.0),        # p* beyond the comb
    dict(R=0.0, delta_B=2.0),                                    # W = 0
    dict(omega_drive=0.0, delta_A=-1.0, delta_B=-2.0, R=2.0),    # cos2 = 0, w = 0
])
def test_propagation_matches_eigh_at_deflation_and_edge_points(kwargs):
    p = SystemParams(c01=0.6, c02=0.8j, **kwargs)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=400, span=10.0)
    grid = TimeGrid.uniform(5.0, 100)
    c1, c2 = eigh_amplitudes(p, f, bath, grid)
    traj = propagate(p, f, bath, grid)
    assert max(np.abs(traj.c1 - c1).max(), np.abs(traj.c2 - c2).max()) <= 1e-10
    assert np.abs(traj.total_norm - 1.0).max() <= 1e-12


# R = 1e-150 couples so weakly that the coupling moves no amplitude by a
# rounding unit over the window; unequal detunings make the arrowhead full.
@pytest.mark.parametrize("kwargs", [
    dict(R=0.0),
    dict(omega_drive=0.0, delta_A=-1.0, delta_B=-2.0, R=2.0),
    dict(R=1e-150, delta_B=1.0),
])
def test_uncoupled_qubits_keep_their_initial_amplitudes_exactly(kwargs):
    p = SystemParams(c01=0.6, c02=0.8j, **kwargs)
    f = dressed_frame(p)
    traj = propagate(p, f, build_bath(f, n_modes=400, span=10.0),
                     TimeGrid.uniform(5.0, 100))
    assert np.all(traj.c1 == 0.6) and np.all(traj.c2 == 0.8j)


def test_doubling_modes_and_span_at_least_halves_the_gap():
    p = SystemParams(omega_drive=1.0, R=0.5)
    f = dressed_frame(p)
    g = TimeGrid.uniform(10.0, 500)
    closed = equal_frequency_trajectory(p, f, g)

    def gap(n_modes, span):
        traj = propagate(p, f, build_bath(f, n_modes, span), g)
        return max(np.abs(traj.c1 - closed.c1).max(),
                   np.abs(traj.c2 - closed.c2).max())

    coarse = gap(4000, 50.0)
    fine = gap(8000, 100.0)
    assert fine <= coarse / 2.0


# The phase sum rounds each eigenvalue to the frequency grid of an FFT over
# the samples and expands the offset in a Taylor series.  The windows are:
# the longest grid the 400-mode bath allows (t_rec / 2 = 62.8), on 1025
# samples, where the FFT is exactly twice the grid and the Taylor order is
# largest; the shortest grid; outer roots far beyond the comb; p* beyond it.
@pytest.mark.parametrize("kwargs, t_max, n_points", [
    (dict(delta_B=2.0, R=3.0), 62.0, 1025),
    (dict(delta_B=2.0, R=3.0), 5.0, 2),
    (dict(delta_B=1.0, R=300.0), 5.0, 100),
    (dict(delta_A=10.0, delta_B=80.0, delta_L=5.0, R=5.0), 60.0, 600),
])
def test_phase_sum_matches_eigh_on_long_short_and_far_spectra(kwargs, t_max, n_points):
    p = SystemParams(c01=0.6, c02=0.8j, **kwargs)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=400, span=10.0)
    grid = TimeGrid.uniform(t_max, n_points)
    c1, c2 = eigh_amplitudes(p, f, bath, grid)
    traj = propagate(p, f, bath, grid)
    assert max(np.abs(traj.c1 - c1).max(), np.abs(traj.c2 - c2).max()) <= 1e-10



def test_phase_sum_matches_dense_sum_over_folded_and_far_energies():
    # 257 samples on [0, 10]: an FFT of 512 points, grid step b = 0.314.
    # Energies up to 500 fold several times around the FFT grid; 1e13 and
    # -3e12, beyond 2^40 b, take the direct path.  Both sums round phases
    # E s of up to 5000 rad by about 1e-12 rad, so they differ by a few
    # 1e-14 of sum |coef| (1.2e-14 measured).
    rng = np.random.default_rng(11)
    energies = np.concatenate((rng.uniform(-500.0, 500.0, 300), [1e13, -3e12]))
    coef = rng.normal(size=(302, 2)) + 1j * rng.normal(size=(302, 2))
    s = np.linspace(0.0, 10.0, 257)
    dense = np.einsum("kq,km->qm", coef, np.exp(-1j * np.outer(energies, s)))
    scale = np.abs(coef).sum()
    assert np.abs(oracle._phase_sum(energies, coef, s) - dense).max() <= 1e-13 * scale


def test_far_field_series_is_cut_by_the_phase_sums_rounding_rule():
    # Past the NEAR nearest poles the series ratio is at most
    # r = 1 / (2 (NEAR + 1)), so the terms after the first k sum to at most
    # r^k / (1 - r) of the far terms' absolute sum.  TERMS is the smallest k
    # that puts this below an eighth of a rounding unit, _phase_sum's stop.
    r = 1.0 / (2 * (oracle.NEAR + 1))
    stop = 0.125 * np.finfo(float).eps
    assert r ** oracle.TERMS / (1.0 - r) < stop
    assert r ** (oracle.TERMS - 1) / (1.0 - r) >= stop


@pytest.mark.parametrize("overrides", [{}, dict(R=10.0, delta_B=4.0)],
                         ids=["weak", "strong"])
def test_two_more_far_field_terms_move_no_amplitude(monkeypatch, overrides):
    # Both certification points, on their full baths and default grids.
    p = SystemParams(**overrides)
    f = dressed_frame(p)
    bath, grid = build_bath(f), default_grid(p)
    cut = propagate(p, f, bath, grid)
    monkeypatch.setattr(oracle, "TERMS", oracle.TERMS + 2)
    longer = propagate(p, f, bath, grid)
    for a, b in ((cut.c1, longer.c1), (cut.c2, longer.c2),
                 (cut.total_norm, longer.total_norm)):
        assert np.abs(a - b).max() <= 1e-15


@pytest.mark.parametrize("h, weights", [
    (0.05, lambda d: 3.0 * 0.05 / math.pi / (d * d + 1.0)),
    (0.3, lambda d: np.random.default_rng(5).uniform(0.0, 2.0, d.size)),
], ids=["lorentzian", "random"])
def test_far_field_matches_its_direct_sum(h, weights):
    # F[j, o] = sum over |m| > NEAR of z2[o + m] / (m h)^(j + 1) on a
    # 200-mode comb, against the FFT convolutions of _far_field; they agree
    # to 7e-15 of each sum of absolute terms (measured).
    n = 200
    z2 = weights(-0.5 * n * h + (np.arange(n) + 0.5) * h)
    far = oracle._far_field(z2, h)
    assert far.shape == (oracle.TERMS, n)
    m = np.arange(n) - np.arange(n)[:, None]  # m[o, k] = k - o
    shift = np.where(np.abs(m) > oracle.NEAR, m * h, np.inf)
    for j, row in enumerate(far):
        terms = z2 / shift ** (j + 1)
        scale = np.sum(np.abs(terms), axis=1)
        assert np.all(np.abs(row - np.sum(terms, axis=1)) <= 1e-13 * scale), j

ORACLE_CHECK = """
import sys
from qbattery.cli import main
sys.exit(main(["oracle-check", "--set", "n_modes=400", "--set", "span=10",
               "--out", sys.argv[1]]))
"""


def test_oracle_check_bytes_do_not_depend_on_blas_threads(tmp_path):
    src = str(Path(qbattery.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        out = tmp_path / threads
        subprocess.run([sys.executable, "-c", ORACLE_CHECK, str(out)], env=env,
                       timeout=120, capture_output=True, check=True)
        reports.append((out / "oracle_check.json").read_bytes())
    assert reports[0] == reports[1]


def test_pseudomode_matches_richardson_extrapolated_oracle():
    # Not an acceptance gate.  The oracle's gap at unequal detunings is the
    # Lorentzian tail cut off at +-span, which falls about 8x per doubling of
    # the span; (8 ref(2 span) - ref(span)) / 7 removes its leading term.
    p = SystemParams(R=10.0, delta_B=4.0)
    f = dressed_frame(p)
    grid = default_grid(p)
    coarse = propagate(p, f, build_bath(f, 4000, 50.0), grid)
    fine = propagate(p, f, build_bath(f, 8000, 100.0), grid)
    pseudo = general_trajectory(p, f, grid)
    gap = max(np.abs(pseudo.c1 - (8.0 * fine.c1 - coarse.c1) / 7.0).max(),
              np.abs(pseudo.c2 - (8.0 * fine.c2 - coarse.c2) / 7.0).max())
    assert gap <= 1e-5
