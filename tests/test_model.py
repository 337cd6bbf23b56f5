import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qbattery import SystemParams, dressed_frame, validate

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
    (dict(delta_B=-math.inf), "non-finite delta_B"),
    (dict(delta_L=math.nan), "non-finite delta_L"),
    (dict(r1=2.0, R=-1.0), "r1 out of [0,1]"),
    (dict(omega_drive=-0.5), "omega_drive"),
    (dict(R=-1.0), "R"),
    (dict(delta_A=math.inf), "delta_A"),
    (dict(R=math.inf), "non-finite R"),
    (dict(omega_drive=-0.5, R=-1.0), "negative omega_drive"),
    (dict(omega_drive=math.inf), "non-finite omega_drive"),
    (dict(r1=math.nan), "non-finite r1"),
    (dict(c01=complex(math.nan, 0.0)), "non-finite c01"),
    (dict(c01=0.0, c02=complex(0.0, math.inf)), "non-finite c02"),
])
def test_validate_names_first_violated_invariant(kwargs, fragment):
    with pytest.raises(ValueError, match=None) as err:
        validate(SystemParams(**kwargs))
    assert fragment in str(err.value)


@pytest.mark.parametrize("omega, row", [([0.5, -1.0, 2.0, -3.0], 1), (-1.0, 0)])
def test_validation_error_holds_the_first_failing_row(omega, row):
    # A batch's first failing point is its row; a value shared by every
    # point fails at row 0.
    with pytest.raises(ValueError, match="negative omega_drive: -1.0") as err:
        validate(SystemParams(omega_drive=np.array(omega), delta_A=np.zeros(4)))
    assert err.value.row == row


@pytest.mark.parametrize("kwargs, name", [
    (dict(omega_drive=1e308), "chi_A"),
    (dict(delta_B=1.5e308, omega_drive=5e307), "chi_B"),
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
    f = dressed_frame(SystemParams(R=10.0))
    assert f.W == 10.0


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
    assert f.cos2_A == (1.0 + np.cos(np.arctan2(2 * omega, delta))) / 2.0


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
