import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery import (SystemParams, TimeGrid, dressed_frame,
                      equal_frequency_trajectory, general_trajectory,
                      kernel_params, survival_amplitude, validate)

finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)
nonneg = st.floats(min_value=0.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


def test_validate_returns_default_params_unchanged():
    p = SystemParams()
    assert validate(p) is p


@pytest.mark.parametrize("kwargs, fragment", [
    (dict(r1=1.2), "r1 out of [0,1]"),
    (dict(r1=-0.1), "r1 out of [0,1]"),
    (dict(c01=1.0, c02=1.0), "not normalized"),
    (dict(lambda_=0.0), "lambda_"),
    (dict(lambda_=-1.0), "lambda_"),
    (dict(lambda_=1e-320), "subnormal lambda_"),
    (dict(omega_drive=-0.5), "omega_drive"),
    (dict(R=-1.0), "R"),
    (dict(delta_A=math.inf), "delta_A"),
    (dict(R=math.inf), "non-finite R"),
    (dict(lambda_=math.nan), "non-finite lambda_"),
    (dict(omega_drive=math.inf), "non-finite omega_drive"),
    (dict(r1=math.nan), "non-finite r1"),
    (dict(c01=complex(math.nan, 0.0)), "non-finite c01"),
    (dict(c01=0.0, c02=complex(0.0, math.inf)), "non-finite c02"),
])
def test_validate_names_first_violated_invariant(kwargs, fragment):
    with pytest.raises(ValueError, match=None) as err:
        validate(SystemParams(**kwargs))
    assert fragment in str(err.value)


@pytest.mark.parametrize("kwargs, name", [
    (dict(omega_drive=1e308), "chi_A"),
    (dict(delta_B=1.5e308, omega_drive=5e307), "chi_B"),
    (dict(R=1e300, lambda_=1e10), "W"),
])
def test_dressed_frame_rejects_overflowing_scales(kwargs, name):
    with pytest.raises(ValueError, match=f"non-finite {name}"):
        dressed_frame(validate(SystemParams(**kwargs)))


def test_relative_couplings_stay_normalized():
    for r1 in (0.0, 0.3, 1 / math.sqrt(2), 0.99, 1.0):
        p = SystemParams(r1=r1)
        assert abs(p.r1**2 + p.r2**2 - 1.0) < 1e-12


def test_dressed_frame_no_drive_is_bare_basis():
    f = dressed_frame(SystemParams(delta_A=5.0, omega_drive=0.0))
    assert f.chi_A == 5.0
    assert f.cos2_A == 1.0


def test_dressed_frame_resonant_drive():
    f = dressed_frame(SystemParams(delta_A=0.0, omega_drive=2.0))
    assert f.chi_A == pytest.approx(4.0, abs=1e-15)
    assert f.cos2_A == pytest.approx(0.5, abs=1e-15)


def test_dressed_frame_pythagorean_triple():
    f = dressed_frame(SystemParams(delta_A=3.0, omega_drive=2.0))
    assert f.chi_A == pytest.approx(5.0, abs=1e-12)
    assert f.cos2_A == pytest.approx(0.8, abs=1e-12)


def test_dressed_frame_coupling_scale():
    f = dressed_frame(SystemParams(R=10.0, lambda_=0.5))
    assert f.W == 10.0 * 0.5


@given(delta=finite, omega=nonneg)
def test_splitting_reconstruction(delta, omega):
    f = dressed_frame(SystemParams(delta_A=delta, omega_drive=omega))
    target = delta**2 + 4 * omega**2
    assert abs(f.chi_A**2 - target) <= 1e-12 * max(1.0, target)
    assert f.chi_A >= abs(delta) - 1e-15
    assert f.chi_A >= 2 * omega - 1e-15
    assert 0.0 <= f.cos2_A <= 1.0
    # the weight identity of the mixing angle is how cos2 is computed; must
    # hold bit-exactly
    assert f.cos2_A == (1.0 + math.cos(math.atan2(2 * omega, delta))) / 2.0


@given(delta=finite, omega=st.floats(min_value=0.1, max_value=10.0))
def test_mixing_angle_continuous_in_delta(delta, omega):
    h = 1e-8
    a = dressed_frame(SystemParams(delta_A=delta, omega_drive=omega)).cos2_A
    b = dressed_frame(SystemParams(delta_A=delta + h, omega_drive=omega)).cos2_A
    # |d cos2 / d eta| = sin(eta)/2 <= 1/2 and
    # |d eta / d delta| = 2 omega / chi^2 <= 1/(2 omega)
    assert abs(b - a) <= 1.1 * h / (4 * omega) + 1e-15


@given(delta=finite, omega=st.floats(min_value=0.1, max_value=10.0))
def test_mixing_angle_continuous_in_omega(delta, omega):
    h = 1e-8
    a = dressed_frame(SystemParams(delta_A=delta, omega_drive=omega)).cos2_A
    b = dressed_frame(SystemParams(delta_A=delta, omega_drive=omega + h)).cos2_A
    # |d cos2 / d eta| = sin(eta)/2 <= 1/2 and
    # |d eta / d omega| = 2|delta| / chi^2, maximized at delta = 2 omega
    assert abs(b - a) <= 1.1 * h / (4 * omega) + 1e-15


def test_negative_detuning_maps_above_pi_half():
    # eta > pi/2 puts less than half the weight on the cavity coupling
    f = dressed_frame(SystemParams(delta_A=-2.0, omega_drive=1.0))
    assert 0.0 < f.cos2_A < 0.5


def test_degenerate_point_resolves_to_bare_basis():
    f = dressed_frame(SystemParams(delta_A=0.0, omega_drive=0.0))
    assert f.cos2_A == 1.0
    assert f.chi_A == 0.0


def _scaled(p: SystemParams, s: float) -> SystemParams:
    return SystemParams(
        delta_A=s * p.delta_A, delta_B=s * p.delta_B, delta_L=s * p.delta_L,
        omega_drive=s * p.omega_drive, lambda_=s * p.lambda_,
        r1=p.r1, R=p.R, c01=p.c01, c02=p.c02)


# Far from 1, the closed form's squares of M and the coupling would
# underflow or overflow without kernel_params' power-of-two scaling.
@pytest.mark.parametrize("s", [2.0, 1e-250, 1e-200, 1e-100, 1e100, 1e200])
def test_common_frequency_rescaling_leaves_populations_invariant(s):
    p = SystemParams(delta_A=1.5, delta_B=1.5, delta_L=0.7, omega_drive=0.8,
                     R=0.5, r1=0.6)
    q = _scaled(p, s)
    grid_p = TimeGrid.uniform(10.0, 400)
    grid_q = TimeGrid.uniform(10.0 / s, 400)

    Zp = survival_amplitude(kernel_params(p, dressed_frame(p)), grid_p.samples)
    Zq = survival_amplitude(kernel_params(q, dressed_frame(q)), grid_q.samples)
    np.testing.assert_allclose(np.abs(Zq) ** 2, np.abs(Zp) ** 2, atol=1e-12)

    tp = equal_frequency_trajectory(p, dressed_frame(p), grid_p)
    tq = equal_frequency_trajectory(q, dressed_frame(q), grid_q)
    np.testing.assert_allclose(np.abs(tq.c2) ** 2, np.abs(tp.c2) ** 2, atol=1e-12)

    gp = general_trajectory(p, dressed_frame(p), grid_p)
    gq = general_trajectory(q, dressed_frame(q), grid_q)
    np.testing.assert_allclose(np.abs(gq.c2) ** 2, np.abs(gp.c2) ** 2, atol=1e-7)
