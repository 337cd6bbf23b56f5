import math

import numpy as np
import pytest

from qbattery import oracle
from qbattery import (IntegrationError, SystemParams, TimeGrid, build_bath,
                      dressed_frame, equal_frequency_trajectory, propagate,
                      window_fraction)


def weak_frame(omega=1.0, R=1.0):
    p = SystemParams(omega_drive=omega, R=R)
    return p, dressed_frame(p)


def test_bath_weight_matches_truncated_lorentzian():
    # R = alpha_T = 1 makes W = lambda
    _, f = weak_frame(R=1.0)
    assert f.W == 1.0
    bath = build_bath(f)  # 4000 modes, span 50
    weight = float(np.sum(bath.couplings ** 2))
    assert 0.98 * f.W**2 <= weight <= 1.0 * f.W**2
    target = f.W**2 * window_fraction(50.0)
    assert abs(weight - target) <= 1e-6 * f.W**2
    assert window_fraction(50.0) == pytest.approx(2 / math.pi * math.atan(50.0))


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
    (dict(n_modes=400, span=50.0), "spacing"),  # d_omega = 0.25 > lambda/20
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


def test_grid_must_stay_below_recurrence_horizon():
    p = SystemParams()
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=800, span=20.0)  # t_rec = 2 pi / 0.05
    assert bath.recurrence_time == pytest.approx(40 * math.pi)
    with pytest.raises(ValueError, match="recurrence"):
        propagate(p, f, bath, TimeGrid.uniform(70.0, 100))


def test_norm_breach_aborts_with_diagnostics():
    p = SystemParams(omega_drive=1.0, R=10.0)
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=800, span=20.0)
    with pytest.raises(IntegrationError, match="norm conservation"):
        propagate(p, f, bath, TimeGrid.uniform(5.0, 100), tol=1e-3)


def test_propagation_stops_at_its_evaluation_budget(monkeypatch):
    monkeypatch.setattr(oracle, "RHS_BUDGET", 100)
    p = SystemParams()
    f = dressed_frame(p)
    bath = build_bath(f, n_modes=400, span=10.0)
    with pytest.raises(IntegrationError, match="budget of 100 right-hand-side"):
        propagate(p, f, bath, TimeGrid.uniform(5.0, 100))


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
