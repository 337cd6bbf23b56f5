import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qbattery import (IntegrationError, KernelParams, SystemParams, TimeGrid,
                      compute_metrics, default_grid, dressed_frame,
                      equal_frequency_trajectory,
                      general_trajectory, kernel_params, survival_amplitude)
from qbattery.dynamics import MAX_N_POINTS, AmplitudeTrajectory, _expm

# Oracle-certified survival amplitude at t = 2/lambda for
# (R=0.5, Omega=0.5, Delta=Delta_L=0, r1=1/sqrt2, alpha_T=1), obtained by
# propagating the 4000-mode/span-50 discretized bath and reading
# Z = 1 + 2 C2.  Frozen here as an engine-independent reference.
Z_AT_2_FROM_BATH = 0.9422808183895246 - 0.028785540342853074j


def resonant_params(omega=1.0, R=0.5, delta_L=0.0, **kw):
    return SystemParams(omega_drive=omega, R=R, delta_L=delta_L, **kw)


def batch_of(points):
    """One SystemParams holding each field of the points along a points axis."""
    return SystemParams(**{name: np.array([getattr(p, name) for p in points])
                           for name in vars(points[0])})


def make_kernel(omega=1.0, delta=0.0, delta_L=0.0, R=0.5):
    p = SystemParams(omega_drive=omega, delta_A=delta, delta_B=delta,
                     delta_L=delta_L, R=R)
    return kernel_params(p, dressed_frame(p))


# --- time grid ---------------------------------------------------------------

def test_uniform_grid():
    g = TimeGrid.uniform(5.0, 11)
    assert g.samples[0] == 0.0 and g.samples[-1] == 5.0 and g.n_points == 11
    assert np.allclose(np.diff(g.samples), 0.5)


# (t_max, n_points); (5e-324, 3) is too short for distinct samples, and the
# last one asks for more than MAX_N_POINTS samples
@pytest.mark.parametrize("samples", [
    (5.0, 1), (5.0, 0), (0.0, 10), (-1.0, 10), (math.inf, 10), (math.nan, 10),
    (5e-324, 3), (5.0, MAX_N_POINTS + 1)])
def test_grid_rejects_bad_samples(samples):
    with pytest.raises(ValueError):
        TimeGrid.uniform(*samples)


# --- survival amplitude ------------------------------------------------------

def test_survival_amplitude_is_one_at_zero():
    for k in (make_kernel(), make_kernel(2.0, 3.0, -1.5, 10.0),
              make_kernel(0.0, 0.0)):  # last one is critically damped
        assert survival_amplitude(k, 0.0) == 1.0 + 0.0j


def test_survival_amplitude_flat_at_origin():
    h = 1e-6
    for k in (make_kernel(), make_kernel(1.0, 4.0, 2.0, 10.0)):
        z0 = survival_amplitude(k, 0.0)
        zh = survival_amplitude(k, h)
        assert abs(zh - z0) / h < 1e-4


def test_survival_amplitude_branch_invariance():
    t = np.linspace(0.0, 10.0, 200)
    for k in (make_kernel(), make_kernel(0.7, 2.0, 5.0, 10.0)):
        flipped = KernelParams(M=k.M, F=-k.F)
        diff = np.abs(survival_amplitude(k, t) - survival_amplitude(flipped, t))
        assert diff.max() <= 1e-12


def test_survival_amplitude_matches_bath_value():
    z = survival_amplitude(make_kernel(omega=0.5), 2.0)
    assert abs(z - Z_AT_2_FROM_BATH) <= 5e-3


def test_critically_damped_point_is_exact_polynomial_decay():
    # Omega = 0 at resonance with R = 0.5 gives F = 0 exactly
    k = make_kernel(omega=0.0)
    assert k.F == 0.0
    t = np.linspace(0.0, 50.0, 300)
    expected = np.exp(-t / 2.0) * (1.0 + t / 2.0)
    np.testing.assert_allclose(survival_amplitude(k, t), expected,
                               rtol=0, atol=1e-14)


def test_series_branch_agrees_with_exact_form_at_crossover():
    # place |F| t around the 1e-6 series threshold and compare both formulas
    k = make_kernel(omega=0.0)
    M = k.M
    for F in (1e-3 + 0j, 1e-3 + 1e-3j):
        kf = KernelParams(M=M, F=F)
        for t in (1e-4, 5e-4, 9.9e-4):  # series branch: |F| t < 1e-6
            direct = cmath.exp(-M * t / 2) * (cmath.cosh(F * t / 2)
                                              + (M / F) * cmath.sinh(F * t / 2))
            assert abs(survival_amplitude(kf, t) - direct) < 1e-12


@pytest.mark.parametrize("omega, delta, delta_L, R", [
    (1.0, 0.0, 0.0, 0.5), (0.39, 2.64, 0.44, 10.0), (4.0, -3.0, 5.0, 10.0),
    (0.0, 0.0, 0.0, 0.5), (0.0, 0.0, 0.0, 0.5 + 1e-9), (2.0, 5.0, -5.0, 0.1)])
def test_survival_amplitude_on_a_grid_matches_direct_form(omega, delta, delta_L, R):
    # The grid form fills the exponentials by doubling; the direct np.exp
    # form is the reference.
    k = make_kernel(omega, delta, delta_L, R)
    g = TimeGrid.uniform(10.0 if R <= 1.0 else 5.0, 2000)
    Z = survival_amplitude(k, g)
    assert Z[0] == 1.0
    np.testing.assert_allclose(Z, survival_amplitude(k, g.samples), rtol=0, atol=1e-14)


def test_survival_amplitude_takes_a_batch_of_kernels():
    kernels = [make_kernel(0.5), make_kernel(1.0, 2.0, 1.0, 10.0), make_kernel(0.0)]
    batch = KernelParams(M=np.array([k.M for k in kernels]),
                         F=np.array([k.F for k in kernels]))
    t = np.linspace(0.0, 5.0, 50)
    g = TimeGrid.uniform(5.0, 50)
    assert survival_amplitude(batch, t).shape == survival_amplitude(batch, g).shape == (3, 50)
    for row, k in zip(survival_amplitude(batch, t), kernels):
        np.testing.assert_array_equal(row, survival_amplitude(k, t))


def _series_limit(M, F, t):
    """The F -> 0 limit of Z at samples t, on arrays as survival_amplitude
    gathers them."""
    M, F = np.full(t.size, M), np.full(t.size, F)
    return np.exp(-M * t / 2.0) * (1.0 + M * t / 2.0
                                   + (F * t) ** 2 / 8.0 * (1.0 + M * t / 6.0))


def test_series_limit_covers_each_rows_prefix_only():
    # Three kinds of row in one batch: a generic point, whose series covers
    # only t = 0; a point just off critical damping, with 1e-6/|F| a few
    # grid steps long; and the degenerate default point at omega_drive = 0,
    # where the series covers the whole row.
    g = TimeGrid.uniform(10.0, 2001)
    dt = g.samples[1]
    near_R = 0.5 * math.sqrt(1.0 - (1e-6 / (3.5 * dt)) ** 2)   # |F| = 1e-6 / (3.5 dt)
    points = [SystemParams(omega_drive=1.0), SystemParams(omega_drive=0.0, R=near_R),
              SystemParams(omega_drive=0.0)]
    kernels = [make_kernel(omega=p.omega_drive, R=p.R) for p in points]
    ends = [np.searchsorted(g.samples, 1e-6 / abs(k.F)) for k in kernels[:2]]
    assert ends == [1, 4] and abs(kernels[2].F) < 1e-10 * abs(kernels[2].M)
    ends.append(g.n_points)
    batch = KernelParams(M=np.array([k.M for k in kernels]),
                         F=np.array([k.F for k in kernels]))
    Z = survival_amplitude(batch, g)
    for row, k, end in zip(Z, kernels, ends):
        single = survival_amplitude(k, g)
        assert row.tobytes() == single.tobytes()
        assert row[:end].tobytes() == _series_limit(k.M, k.F, g.samples[:end]).tobytes()
    # The whole closed form agrees: each row of the batch bit for bit.
    batched = equal_frequency_trajectory(batch_of(points), dressed_frame(batch_of(points)), g)
    for i, p in enumerate(points):
        single = equal_frequency_trajectory(p, dressed_frame(p), g)
        assert batched.c1[i].tobytes() == single.c1.tobytes()
        assert batched.c2[i].tobytes() == single.c2.tobytes()


@pytest.mark.parametrize("t", [0.7, [0.7], [0.0, 0.7, 3.0]])
def test_degenerate_series_keeps_its_bits_on_any_number_of_samples(t):
    # A degenerate row (|F| < 1e-10 |M|) takes its series in place in the
    # row.  numpy rounds a one-element complex product taken in place unlike
    # one taken into another array, so one sample is checked as well.
    rng = np.random.default_rng(29)
    for _ in range(50):
        M = complex(rng.uniform(0.1, 5.0), rng.uniform(-5.0, 5.0))
        F = 1e-11 * M * complex(rng.normal(), rng.normal())
        Z = np.atleast_1d(survival_amplitude(KernelParams(M=M, F=F), np.asarray(t)))
        assert Z.tobytes() == _series_limit(M, F, np.atleast_1d(t)).tobytes()


def test_kernel_params_squares_huge_rates_without_overflow():
    # Near 1e200 the plain squares of M and of the coupling W (1 + cos eta)
    # overflow; F is the same formula evaluated on the inputs over 1e200.
    p = SystemParams(delta_A=3e200, delta_B=3e200, omega_drive=2e200, delta_L=1e200,
                     R=1e200)
    f = dressed_frame(p)
    kernel = kernel_params(p, f)
    coupling = f.W * 2.0 * f.cos2_A
    assert not cmath.isfinite(kernel.M * kernel.M) and not math.isfinite(coupling * coupling)
    m, c = kernel.M / 1e200, coupling / 1e200
    expected = 1e200 * complex(np.sqrt(complex(m * m - c * c)))
    assert cmath.isfinite(kernel.F)
    assert abs(kernel.F - expected) <= 1e-15 * abs(expected)


def test_survival_amplitude_continuous_across_degeneracy():
    t = np.linspace(0.0, 20.0, 200)
    z0 = survival_amplitude(make_kernel(omega=0.0, R=0.5), t)
    for eps in (1e-9, -1e-9):
        z = survival_amplitude(make_kernel(omega=0.0, R=0.5 + eps), t)
        assert np.abs(z - z0).max() < 1e-6


@given(omega=st.floats(min_value=0.0, max_value=5.0),
       delta=st.floats(min_value=-5.0, max_value=5.0),
       delta_L=st.floats(min_value=-5.0, max_value=5.0),
       R=st.sampled_from([0.1, 0.5, 1.0, 2.0, 10.0]))
@settings(max_examples=60, deadline=None)
def test_survival_amplitude_is_contractive(omega, delta, delta_L, R):
    k = make_kernel(omega, delta, delta_L, R)
    t = np.linspace(0.0, 10.0, 400)
    z = survival_amplitude(k, t)
    assert np.all(np.abs(z) <= 1.0 + 1e-9)


# --- closed form -------------------------------------------------------------

def test_battery_empty_start_gives_survival_offset():
    p = resonant_params()
    f = dressed_frame(p)
    g = TimeGrid.uniform(10.0, 500)
    traj = equal_frequency_trajectory(p, f, g)
    Z = survival_amplitude(kernel_params(p, f), g.samples)
    np.testing.assert_allclose(traj.c2, (Z - 1.0) / 2.0, atol=1e-14)
    assert traj.c2[0] == 0.0
    assert abs(traj.c1[0]) == 1.0


def test_sub_radiant_state_is_frozen():
    p = SystemParams(omega_drive=1.0, R=0.5, r1=0.6,
                     c01=0.8, c02=-0.6)  # (c01, c02) = (r2, -r1)
    f = dressed_frame(p)
    g = TimeGrid.uniform(10.0, 300)
    traj = equal_frequency_trajectory(p, f, g)
    np.testing.assert_allclose(traj.c1, np.full(300, 0.8 + 0j), atol=1e-14)
    np.testing.assert_allclose(traj.c2, np.full(300, -0.6 + 0j), atol=1e-14)


def test_super_radiant_state_decays_at_critical_damping():
    # pure super-radiant start; at the Omega = 0 resonance point the decay
    # completes well inside t = 50/lambda
    p = SystemParams(omega_drive=0.0, R=0.5, r1=0.6, c01=0.6, c02=0.8)
    f = dressed_frame(p)
    g = TimeGrid.uniform(50.0, 501)
    traj = equal_frequency_trajectory(p, f, g)
    Z = survival_amplitude(kernel_params(p, f), g.samples)
    np.testing.assert_allclose(traj.c2, 0.8 * Z, atol=1e-14)
    assert abs(traj.c2[-1]) <= 1e-4
    assert abs(Z[-1]) <= 1e-4


def test_closed_form_rejects_unequal_detunings():
    p = SystemParams(delta_A=0.0, delta_B=1.0)
    with pytest.raises(ValueError, match="delta_A == delta_B"):
        equal_frequency_trajectory(p, dressed_frame(p), TimeGrid.uniform(1.0, 10))


complex_amp = st.tuples(st.floats(-1, 1), st.floats(-1, 1)).map(
    lambda ri: complex(*ri))


@given(omega=st.floats(min_value=0.0, max_value=5.0),
       delta=st.floats(min_value=-5.0, max_value=5.0),
       delta_L=st.floats(min_value=-5.0, max_value=5.0),
       R=st.sampled_from([0.5, 10.0]),
       r1=st.floats(min_value=0.0, max_value=1.0),
       amp=complex_amp)
@settings(max_examples=60, deadline=None)
def test_qubit_norm_never_exceeds_one(omega, delta, delta_L, R, r1, amp):
    norm = math.hypot(abs(amp), 0.5)
    c01 = amp / norm
    c02 = 0.5 / norm
    p = SystemParams(omega_drive=omega, delta_A=delta, delta_B=delta,
                     delta_L=delta_L, R=R, r1=r1, c01=c01, c02=c02)
    f = dressed_frame(p)
    traj = equal_frequency_trajectory(p, f, TimeGrid.uniform(10.0, 400))
    assert np.all(traj.qubit_norm() <= 1.0 + 1e-9)
    assert abs(traj.c1[0] - c01) < 1e-14
    assert abs(traj.c2[0] - c02) < 1e-14


# --- pseudomode engine -------------------------------------------------------

def test_pseudomode_matches_closed_form():
    for kwargs in (dict(omega_drive=1.0, R=0.5),
                   dict(omega_drive=0.5, delta_A=2.0, delta_B=2.0,
                        delta_L=1.0, R=10.0, r1=0.3),
                   dict(omega_drive=0.0, R=0.5),  # critically damped, F = 0
                   dict(omega_drive=0.5, R=100.0)):
        p = SystemParams(**kwargs)
        f = dressed_frame(p)
        g = TimeGrid.uniform(10.0 if p.R <= 1 else 5.0, 800)
        closed = equal_frequency_trajectory(p, f, g)
        pseudo = general_trajectory(p, f, g)
        gap = max(np.abs(closed.c1 - pseudo.c1).max(),
                  np.abs(closed.c2 - pseudo.c2).max())
        assert gap <= 1e-6


@pytest.mark.parametrize("omega_drive", [1e6, 1e9, 1e12, 1e15])
def test_pseudomode_matches_closed_form_at_large_splittings(omega_drive):
    # The generator is shifted by the battery's splitting, so no rotation by
    # the huge common phase is needed to recover the amplitudes.  Drives stop at
    # 1e15: above |A dt| ~ 1e14 (a drive of about 1e16 here) the squarings amplify the
    # rounding of the cavity entry's modulus, and whether the peaks come out
    # right depends on the host's rounding (README).
    p = SystemParams(omega_drive=omega_drive, R=0.5)
    f = dressed_frame(p)
    g = default_grid(p)
    closed = equal_frequency_trajectory(p, f, g)
    pseudo = general_trajectory(p, f, g)
    gap = max(np.abs(closed.c1 - pseudo.c1).max(), np.abs(closed.c2 - pseudo.c2).max())
    assert gap <= 1e-8


def pseudomode_steps(points):
    """The (points, 3, 3) stack A dt of the pseudomode's generator in the
    battery's frame on each point's default grid, written out as in README."""
    steps = []
    for p in points:
        f = dressed_frame(p)
        w_A, w_B = f.W * p.r1 * f.cos2_A, f.W * p.r2 * f.cos2_B
        steps.append(default_grid(p).samples[1] * np.array(
            [[-1j * (f.chi_A - f.chi_B), 0.0, -w_A], [0.0, 0.0, -w_B],
             [w_A, w_B, -(1.0 - 1j * (f.delta_L + f.chi_B))]]))
    return np.array(steps)


def propagator_points(drives=(1e6, 1e9, 1e12)):
    """Random sweep points, then R = 100, critical damping and large drives."""
    rng = np.random.default_rng(13)
    points = [SystemParams(omega_drive=rng.uniform(0.0, 5.0), delta_A=rng.uniform(-5.0, 5.0),
                           delta_B=rng.uniform(-5.0, 5.0), delta_L=rng.uniform(-5.0, 5.0),
                           R=10.0 ** rng.uniform(-2.0, 2.0), r1=rng.uniform(0.0, 1.0))
              for _ in range(200)]
    points += [SystemParams(R=100.0), SystemParams(R=100.0, delta_B=3.0, omega_drive=2.0),
               SystemParams(omega_drive=0.0, R=0.5)]
    points += [SystemParams(omega_drive=w, R=R, delta_B=d)
               for w in drives for R in (0.5, 100.0) for d in (0.0, 3.0)]
    return points


def test_propagator_matches_scipy_expm():
    # The exponential's condition number grows like |A|, so the error is
    # measured against the larger of max|A| and max|e^A| (about 1).  Drives
    # stop at 1e12 (|A dt| ~ 5e9), where that bound still tests the result.
    steps = pseudomode_steps(propagator_points())
    reference = np.array([expm(a) for a in steps])
    error = np.abs(_expm(steps) - reference).max(axis=(1, 2))
    scale = np.maximum(np.abs(steps).max(axis=(1, 2)), np.abs(reference).max(axis=(1, 2)))
    assert np.all(error <= 1e-14 * scale), (error / scale).max()


def test_propagator_rows_do_not_depend_on_the_stack():
    # The stack mixes steps that need no squaring with steps that need up to
    # 55, so the squarings run on row subsets.
    steps = pseudomode_steps(propagator_points(drives=(1e6, 1e9, 1e12, 1e15, 1e18)))
    stack = _expm(steps)
    for k, step in enumerate(steps):
        np.testing.assert_array_equal(_expm(step[None])[0], stack[k])


def test_propagator_step_is_a_contraction():
    # In the battery's frame A + A^H = diag(0, 0, -2) dt <= 0, so
    # the exact step has |P|_2 <= 1.  Above |A dt| ~ 1e14 the squarings
    # amplify the rounding of the cavity entry's modulus (README), so the
    # drives stop at 1e12.
    steps = pseudomode_steps(propagator_points())
    hermitian = steps + steps.conj().transpose(0, 2, 1)
    assert np.all(hermitian.real[:, :2] == 0.0) and np.all(hermitian.real[:, :, :2] == 0.0)
    assert np.all(hermitian.real[:, 2, 2] < 0.0) and np.all(hermitian.imag == 0.0)
    assert np.linalg.norm(_expm(steps), 2, axis=(1, 2)).max() <= 1.0 + 1e-15


def test_propagator_is_finite_at_huge_drives():
    # At drives 1e15 and 1e18 (|A dt| ~ 5e12 and 5e15) the squarings leave
    # the step's accuracy to rounding, so only finiteness is required.
    steps = pseudomode_steps(propagator_points(drives=(1e15, 1e18))[-8:])
    assert np.all(np.isfinite(_expm(steps)))


@pytest.mark.parametrize("engine, name", [(equal_frequency_trajectory, "closed_form"),
                                          (general_trajectory, "pseudomode")])
def test_engines_take_a_batch_of_points(engine, name):
    points = [SystemParams(omega_drive=0.5, R=0.5),
              SystemParams(omega_drive=1.5, delta_A=1.0, delta_B=1.0, R=10.0, r1=0.3),
              SystemParams(omega_drive=0.0, R=0.5, c01=0.6, c02=0.8j)]
    params = batch_of(points)
    g = TimeGrid.uniform(5.0, 300)
    batch = engine(params, dressed_frame(params), g)
    assert batch.c1.shape == batch.c2.shape == (3, 300)
    assert batch.engine_tag == name
    for k, p in enumerate(points):
        single = engine(p, dressed_frame(p), g)
        assert single.engine_tag == name
        np.testing.assert_array_equal(batch.c1[k], single.c1)
        np.testing.assert_array_equal(batch.c2[k], single.c2)


def test_pseudomode_without_c1_keeps_c2_in_its_state_block():
    # A sweep's chunk forms no C1: c1 is None, and C2 keeps its bytes, as
    # the middle row of the complex (3, points, time) state block.
    points = [SystemParams(**kw) for kw in UNEQUAL_POINTS]
    g = TimeGrid.uniform(5.0, 257)
    for params, count in ((batch_of(points), 2), (points[1], 1)):
        frame = dressed_frame(params)
        full = general_trajectory(params, frame, g)
        bare = general_trajectory(params, frame, g, with_c1=False)
        assert bare.c1 is None and full.c1 is not None
        assert bare.c2.shape == full.c2.shape and bare.c2.tobytes() == full.c2.tobytes()
        assert bare.c2.base.shape == (3, count, 257)
        assert np.shares_memory(bare.c2, bare.c2.base[1])


def test_pseudomode_fails_where_the_rotation_of_c1_overflows_with_or_without_c1():
    # e^{i (chi_A - chi_B) t} is non-finite where (chi_A - chi_B) t overflows
    # at the largest step of its doubling fill, t[1024] of 2000 samples:
    # from delta_A = 3.5e307 on, not at 2.9e307 (where the product is
    # 1.49e308).  Such a point fails whether or not C1 is formed, alone or
    # in a batch, and below it the two give the same outcome.
    g = TimeGrid.uniform(10.0, 2000)

    def fails(params, with_c1):
        try:
            general_trajectory(params, dressed_frame(params), g, with_c1=with_c1)
        except IntegrationError as exc:
            assert "pseudomode engine gave non-finite amplitudes" in str(exc)
            return True
        return False

    for delta_A in (2.8e307, 2.9e307, 3.5e307, 1e308):
        point = SystemParams(delta_A=delta_A)
        for params in (point, batch_of([SystemParams(delta_A=1.0), point])):
            outcomes = {fails(params, with_c1) for with_c1 in (True, False)}
            assert (outcomes == {True}) if delta_A > 3e307 else (len(outcomes) == 1)


# Edge points of both engines: the critically damped point Omega = Delta = 0
# (F = 0, the series path of Z), a decoupled cavity, a negative detuning, r1
# of 0 and of 1, and complex initial amplitudes.
MIXED_POINTS = [dict(omega_drive=0.0),
                dict(R=0.0, c01=0.6, c02=0.8j),
                dict(delta_A=-2.0, delta_B=-2.0, omega_drive=0.7, R=10.0),
                dict(r1=0.0, c01=0.8j, c02=-0.6),
                dict(r1=1.0, delta_L=-1.5, c01=0.6 + 0.48j, c02=0.64j),
                dict(omega_drive=1.3, delta_A=0.5, delta_B=0.5, delta_L=2.0, R=10.0)]
UNEQUAL_POINTS = [dict(delta_A=1.0, delta_B=3.0, omega_drive=0.5),
                  dict(delta_A=-1.0, delta_B=2.0, delta_L=1.0, R=10.0, c01=0.6j, c02=0.8)]


def assert_rows_match_single_runs(engine, params, points, g):
    frame = dressed_frame(params)
    batch = engine(params, frame, g)
    series = compute_metrics(batch, frame.chi_B)
    assert batch.c1.shape == batch.c2.shape == (len(points), g.n_points)
    for k, p in enumerate(points):
        f = dressed_frame(p)
        single = engine(p, f, g)
        single_series = compute_metrics(single, f.chi_B)
        np.testing.assert_array_equal(batch.c1[k], single.c1)
        np.testing.assert_array_equal(batch.c2[k], single.c2)
        for name in ("energy", "power", "ergotropy"):
            np.testing.assert_array_equal(getattr(series, name)[k],
                                          getattr(single_series, name))
        for name in ("max_energy", "max_power", "max_ergotropy"):
            assert (getattr(series, name).value[k], getattr(series, name).time[k]) == \
                getattr(single_series, name)


@pytest.mark.parametrize("engine, extra", [(equal_frequency_trajectory, []),
                                           (general_trajectory, UNEQUAL_POINTS)])
def test_mixed_batch_rows_equal_single_point_runs(engine, extra):
    points = [SystemParams(**kw) for kw in MIXED_POINTS + extra]
    assert_rows_match_single_runs(engine, batch_of(points), points,
                                  TimeGrid.uniform(5.0, 257))


@pytest.mark.parametrize("engine", [equal_frequency_trajectory, general_trajectory])
@pytest.mark.parametrize("name, values", [("R", (0.0, 0.5, 10.0)),
                                          ("delta_L", (-1.0, 0.0, 2.5))])
def test_batch_broadcasts_the_fields_it_does_not_vary(engine, name, values):
    # Only R or delta_L varies, so the splittings and weights of the frame
    # stay numbers and broadcast against the batch.
    params = SystemParams(omega_drive=0.8, **{name: np.array(values)})
    frame = dressed_frame(params)
    assert all(np.ndim(getattr(frame, field)) == 0
               for field in ("chi_A", "chi_B", "cos2_A", "cos2_B"))
    points = [SystemParams(omega_drive=0.8, **{name: v}) for v in values]
    assert_rows_match_single_runs(engine, params, points, TimeGrid.uniform(5.0, 300))


def test_decoupled_cavity_keeps_amplitudes_constant():
    p = SystemParams(R=0.0, c01=0.6, c02=0.8j)
    f = dressed_frame(p)
    g = TimeGrid.uniform(10.0, 100)
    for traj in (general_trajectory(p, f, g),
                 equal_frequency_trajectory(p, f, g)):
        np.testing.assert_allclose(traj.c1, np.full(100, 0.6 + 0j), atol=1e-12)
        np.testing.assert_allclose(traj.c2, np.full(100, 0.8j), atol=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_trajectory_rejects_non_finite_amplitudes(bad):
    g = TimeGrid.uniform(1.0, 3)
    with pytest.raises(IntegrationError, match="non-finite"):
        AmplitudeTrajectory(grid=g, c1=np.array([1.0, bad, 0.0]),
                            c2=np.zeros(3, complex), engine_tag="oracle")


# --- memory-kernel reference (naive O(n^2), test-only) -----------------------

def volterra_reference(params, frame, grid):
    """Trapezoid predictor-corrector integration of the two
    integro-differential amplitude equations with the exponential memory
    kernel written out explicitly.  Quadratic accuracy; independent of the
    pseudomode reduction."""
    alpha = np.array([params.r1, params.r2])
    cth = np.array([frame.cos2_A, frame.cos2_B])
    chi = np.array([frame.chi_A, frame.chi_B])
    decay = 1.0 - 1j * frame.delta_L
    W2 = frame.W ** 2
    t = grid.samples
    h = t[1] - t[0]
    n = t.size
    C = np.zeros((n, 2), dtype=complex)
    C[0] = (params.c01, params.c02)

    def deriv(i):
        ti = t[i]
        tp = t[:i + 1]
        hist = (alpha * cth * np.exp(-1j * np.outer(tp, chi)) * C[:i + 1]).sum(axis=1)
        kernel = np.exp(-decay * (ti - tp))
        integral = np.trapezoid(kernel * hist, dx=h) if i > 0 else 0.0
        return -W2 * alpha * cth * np.exp(1j * chi * ti) * integral

    for i in range(n - 1):
        d0 = deriv(i)
        C[i + 1] = C[i] + h * d0
        for _ in range(2):
            C[i + 1] = C[i] + h / 2.0 * (d0 + deriv(i + 1))
    return C[:, 0], C[:, 1]


def test_pseudomode_consistent_with_direct_quadrature():
    p = SystemParams(delta_A=0.2, delta_B=0.5, omega_drive=0.3, R=0.5, r1=0.6)
    f = dressed_frame(p)
    g = TimeGrid.uniform(5.0, 500)
    ref_c1, ref_c2 = volterra_reference(p, f, g)
    pm = general_trajectory(p, f, g)
    gap = max(np.abs(ref_c1 - pm.c1).max(), np.abs(ref_c2 - pm.c2).max())
    assert gap <= 1e-4


# --- coupling-regime phenomenology -------------------------------------------

def test_weak_coupling_survival_decays_monotonically():
    k = make_kernel(omega=0.5, R=0.5)
    z = np.abs(survival_amplitude(k, np.linspace(0.0, 5.0, 2000)))
    assert np.all(np.diff(z) <= 1e-9)


def test_strong_coupling_survival_revives():
    k = make_kernel(omega=0.5, R=10.0)
    z = np.abs(survival_amplitude(k, np.linspace(0.0, 5.0, 2000)))
    i_min = int(np.argmin(z))
    assert 0 < i_min < z.size - 1
    assert z[i_min:].max() - z[i_min] >= 1e-3
