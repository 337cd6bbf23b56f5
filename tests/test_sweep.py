import json

import numpy as np
import pytest
from scipy.linalg import expm

from qbattery import (FIGURES, IntegrationError, SweepPointError, SweepSpec,
                      SystemParams, TimeGrid, compute_metrics, default_grid,
                      dressed_frame, equal_frequency_trajectory, figure_pipeline,
                      kernel_params, run_sweep, survival_amplitude)
from qbattery.sweep import (BUDGET, apply_point, csv_text, sweep_csv_text,
                            write_sweep_csv)

# Peak records computed by the closed-form engine on the default windows and
# frozen as regression values.  The trends they encode are discussed in the
# README: the energy peak is NOT monotone in the drive strength on the
# [0, 10/lambda] window, and the detuning family turns over at delta = 5.
OMEGA_FAMILY_E_MAX = {0.0: 0.0, 0.5: 0.032694459987604035,
                      1.0: 0.03246968134251445, 2.0: 0.021666372472290596}
DELTA_L_FAMILY_P_MAX = {0.0: 0.003246968134251445, 2.0: 0.0010833186236145298,
                        5.0: 0.00038271768006093295}
DELTA_FAMILY_E_MAX = {0.0: 0.03246968134251445, 1.0: 0.11883133228261368,
                      3.0: 0.22830465074066302, 5.0: 0.21569392895088}


def weak_grid(n=2000):
    return TimeGrid.uniform(10.0, n)


def base_params(**kw):
    return SystemParams(**kw)


def test_single_point_sweep_equals_direct_run():
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", (1.0,)),),
                     grid=weak_grid(500))
    result = run_sweep(spec)
    assert len(result.rows) == 1

    p = base_params(omega_drive=1.0)
    f = dressed_frame(p)
    direct = compute_metrics(equal_frequency_trajectory(p, f, weak_grid(500)),
                             f.chi_B)
    row = result.rows[0]
    assert row.E_max == direct.max_energy.value
    assert row.t_E == direct.max_energy.time
    assert row.P_max == direct.max_power.value
    assert row.W_max == direct.max_ergotropy.value


def test_empty_axes_yield_single_base_row():
    spec = SweepSpec(base=base_params(), axes=(), grid=weak_grid(300))
    result = run_sweep(spec)
    assert len(result.rows) == 1
    assert result.rows[0].point == {}


def test_energy_peak_over_drive_family_matches_frozen_values():
    values = tuple(sorted(OMEGA_FAMILY_E_MAX))
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", values),),
                     grid=weak_grid())
    result = run_sweep(spec)
    for row in result.rows:
        expected = OMEGA_FAMILY_E_MAX[row.point["omega_drive"]]
        assert row.E_max == pytest.approx(expected, rel=1e-9, abs=1e-15)
    e = [row.E_max for row in result.rows]
    # rises from the degenerate no-drive point, then decreases on this window
    assert e[0] < e[1] and e[1] > e[2] > e[3]


def test_power_peak_strictly_decreasing_in_drive_cavity_detuning():
    values = tuple(sorted(DELTA_L_FAMILY_P_MAX))
    spec = SweepSpec(base=base_params(), axes=(("delta_L", values),),
                     grid=weak_grid())
    result = run_sweep(spec)
    p_max = [row.P_max for row in result.rows]
    for row in result.rows:
        expected = DELTA_L_FAMILY_P_MAX[row.point["delta_L"]]
        assert row.P_max == pytest.approx(expected, rel=1e-9)
    assert p_max[0] > p_max[1] > p_max[2]


def test_energy_peak_over_qubit_detuning_family():
    values = tuple(sorted(DELTA_FAMILY_E_MAX))
    spec = SweepSpec(base=base_params(), axes=(("delta_common", values),),
                     grid=weak_grid())
    result = run_sweep(spec)
    for row in result.rows:
        expected = DELTA_FAMILY_E_MAX[row.point["delta_common"]]
        assert row.E_max == pytest.approx(expected, rel=1e-9)
    e = [row.E_max for row in result.rows]
    assert e[0] < e[1] < e[2] and e[3] < e[2]


def test_delta_common_sets_both_detunings():
    p = apply_point(base_params(), {"delta_common": 3.0})
    assert p.delta_A == 3.0 and p.delta_B == 3.0


def test_unknown_axis_rejected():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepSpec(base=base_params(), axes=(("volume", (1.0,)),),
                  grid=weak_grid(10))


def test_closed_form_failure_carries_the_point():
    spec = SweepSpec(base=base_params(), axes=(("delta_A", (0.0, 2.0)),),
                     grid=weak_grid(100), engine="closed_form")
    with pytest.raises(SweepPointError) as err:
        run_sweep(spec)
    assert err.value.point == {"delta_A": 2.0}
    assert isinstance(err.value.cause, ValueError)


def test_rows_follow_lexicographic_axis_order():
    spec = SweepSpec(base=base_params(),
                     axes=(("omega_drive", (0.5, 1.0)), ("delta_L", (0.0, 2.0))),
                     grid=weak_grid(200))
    result = run_sweep(spec)
    points = [tuple(row.point.values()) for row in result.rows]
    assert points == [(0.5, 0.0), (0.5, 2.0), (1.0, 0.0), (1.0, 2.0)]


def test_parallel_and_serial_sweeps_agree_exactly():
    spec = SweepSpec(base=base_params(),
                     axes=(("omega_drive", (0.5, 1.0, 1.5)), ("R", (0.5, 10.0))),
                     grid=weak_grid(400))
    serial = run_sweep(spec, threads=1)
    parallel = run_sweep(spec, threads=8)
    assert sweep_csv_text(serial) == sweep_csv_text(parallel)


def test_sweep_csv_is_deterministic(tmp_path):
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", (0.5, 1.0)),),
                     grid=weak_grid(300))
    a = write_sweep_csv(run_sweep(spec), tmp_path / "a.csv")
    b = write_sweep_csv(run_sweep(spec), tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().splitlines()[0]
    assert header == "param_omega_drive,E_max,t_E,P_max,t_P,W_max,t_W"


def test_engines_agree_on_equal_detuning_sweeps():
    spec = SweepSpec(base=base_params(),
                     axes=(("omega_drive", (0.5, 1.5)), ("delta_common", (0.0, 2.0))),
                     grid=weak_grid(500), engine="closed_form")
    closed = run_sweep(spec)
    pseudo = run_sweep(SweepSpec(base=spec.base, axes=spec.axes, grid=spec.grid,
                                 engine="pseudomode"))
    for a, b in zip(closed.rows, pseudo.rows):
        assert abs(a.E_max - b.E_max) <= 1e-6


# --- batched evaluation ------------------------------------------------------
#
# A sweep evaluates its points in chunks of (points x time) arrays.  The loop
# reference below computes one point at a time the way the engines did before
# batching: the direct np.exp form of Z(t) (closed form), a step-by-step
# product with the unshifted pseudomode generator (pseudomode), and peaks
# refined by a least-squares parabola.  Both differ from the batched path only
# in rounding, so the bounds are set from double precision: peak values
# within 1e-11 max(1, chi_B), peak times within 1e-9.

def _reference_c2(params, frame, grid, engine):
    t = grid.samples
    if engine == "closed_form":
        Z = survival_amplitude(kernel_params(params, frame), t)
        beta_plus = params.r1 * params.c01 + params.r2 * params.c02
        beta_minus = params.r2 * params.c01 - params.r1 * params.c02
        return -params.r1 * beta_minus + params.r2 * Z * beta_plus
    w_A = frame.W * params.alpha_A * frame.cos2_A
    w_B = frame.W * params.alpha_B * frame.cos2_B
    step = expm(t[1] * np.array([
        [-1j * frame.chi_A, 0.0, -w_A], [0.0, -1j * frame.chi_B, -w_B],
        [w_A, w_B, -(frame.lambda_ - 1j * frame.delta_L)]]))
    y = np.array([params.c01, params.c02, 0.0])
    c2 = [y[1]]
    for _ in range(grid.n_points - 1):
        y = step @ y
        c2.append(y[1])
    return np.array(c2) * np.exp(1j * frame.chi_B * t)


def _reference_peak(t, y):
    i = int(np.argmax(y))
    if i == 0 or i == y.size - 1:
        return float(y[i]), float(t[i])
    coeff = np.polyfit(t[i - 1:i + 2], y[i - 1:i + 2], 2)
    if coeff[0] >= 0.0:
        return float(y[i]), float(t[i])
    t_star = float(np.clip(-coeff[1] / (2.0 * coeff[0]), t[i - 1], t[i + 1]))
    value = float(np.polyval(coeff, t_star))
    return (float(y[i]), float(t[i])) if value < y[i] else (value, t_star)


def _reference_row(params, grid, engine):
    frame = dressed_frame(params)
    population = np.abs(_reference_c2(params, frame, grid, engine)) ** 2
    energy = population * frame.chi_B
    power = np.zeros_like(energy)
    power[1:] = energy[1:] / grid.samples[1:]
    work = np.where(population > 0.5, (2.0 * population - 1.0) * frame.chi_B, 0.0)
    peaks = [_reference_peak(grid.samples, y) for y in (energy, power, work)]
    return [x for peak in peaks for x in peak], frame.chi_B


@pytest.mark.parametrize("engine, axes", [
    ("closed_form", (("omega_drive", (0.0, 0.4, 0.9, 1.3, 2.0)),
                     ("delta_common", (0.0, 2.5)), ("delta_L", (0.0, 3.0)),
                     ("R", (0.5, 10.0)))),
    ("pseudomode", (("delta_A", (0.0, 1.5)), ("delta_B", (0.0, 3.0)),
                    ("omega_drive", (0.0, 0.7, 1.4, 2.0, 3.0)), ("R", (0.5, 10.0)))),
])
@pytest.mark.parametrize("base_R", [0.5, 10.0])
def test_multi_chunk_sweep_matches_loop_reference(engine, axes, base_R):
    base = base_params(R=base_R)
    grid = default_grid(base)
    result = run_sweep(SweepSpec(base=base, axes=axes, grid=grid, engine=engine))
    assert len(result.rows) == 40 > 2 * (BUDGET // grid.n_points)
    for row in result.rows:
        expected, chi_B = _reference_row(apply_point(base, row.point), grid, engine)
        got = [getattr(row, name) for name in
               ("E_max", "t_E", "P_max", "t_P", "W_max", "t_W")]
        for k in (0, 2, 4):
            assert abs(got[k] - expected[k]) <= 1e-11 * max(1.0, chi_B), row
        for k in (1, 3, 5):
            assert abs(got[k] - expected[k]) <= 1e-9, row


@pytest.mark.parametrize("engine", ["closed_form", "pseudomode"])
def test_rows_do_not_depend_on_chunk_position(engine):
    axes = (("omega_drive", tuple(np.linspace(0.0, 2.0, 9))), ("delta_L", (0.0, 4.0)),
            ("R", (0.5, 10.0)))
    grid = weak_grid(1025)   # 2^10 + 1 samples: the last doubling block is one sample
    result = run_sweep(SweepSpec(base=base_params(), axes=axes, grid=grid, engine=engine))
    assert len(result.rows) > BUDGET // grid.n_points
    for row in result.rows:
        single = run_sweep(SweepSpec(base=base_params(), grid=grid, engine=engine,
                                     axes=tuple((k, (v,)) for k, v in row.point.items())))
        assert single.rows == (row,)


def test_failure_in_a_later_chunk_names_the_first_failing_point():
    # Point 33 overflows in the engine, point 35 fails validation; both lie
    # in the third chunk of 16 points.
    omegas = [0.05 * k for k in range(40)]
    omegas[33], omegas[35] = 1e300, -1.0
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", tuple(omegas)),),
                     grid=weak_grid(2000))
    assert BUDGET // spec.grid.n_points == 16
    for threads in (1, 3):
        with pytest.raises(SweepPointError) as err:
            run_sweep(spec, threads=threads)
        assert err.value.point == {"omega_drive": 1e300}
        assert isinstance(err.value.cause, IntegrationError)


def test_csv_rows_match_per_cell_format():
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308,
                0.1, 1.0 / 3.0, 123456789.12345678, 1e-5, 1e16, 1e17, 3.0, -7.25,
                float("inf"), float("-inf"), float("nan")]
    table = np.array([specials, specials[::-1]]).T
    lines = ["a,b"] + [",".join(f"{x:.17g}" for x in row) for row in table]
    assert csv_text(["a", "b"], table.tolist()) == "\n".join(lines) + "\n"


# --- figure pipelines --------------------------------------------------------

def test_fig2_emits_three_panels_and_metadata(tmp_path):
    files = figure_pipeline("fig2", tmp_path)
    names = sorted(p.name for p in files)
    assert names == ["fig2_metadata.json", "fig2a_power.csv",
                     "fig2b_energy.csv", "fig2c_ergotropy.csv"]
    meta = json.loads((tmp_path / "fig2_metadata.json").read_text())
    assert meta["R"] == 0.5
    assert meta["family_axis"] == "omega_drive"
    assert meta["fixed"] == {"delta_common": 0.0, "delta_L": 0.0}
    assert meta["defaults"]["r1"] == pytest.approx(2 ** -0.5)
    assert meta["grid"] == {"t_max": 10.0, "n_points": 2000}

    header = (tmp_path / "fig2b_energy.csv").read_text().splitlines()[0]
    assert header == ("lambda_t,omega_drive=0,omega_drive=0.5,"
                      "omega_drive=1,omega_drive=2")


def test_fig2_ergotropy_panel_is_identically_zero(tmp_path):
    figure_pipeline("fig2", tmp_path)
    table = np.loadtxt(tmp_path / "fig2c_ergotropy.csv", delimiter=",",
                       skiprows=1)
    assert table.shape == (2000, 5)
    assert np.all(table[:, 1:] == 0.0)


def test_fig7_uses_strong_coupling_window(tmp_path):
    figure_pipeline("fig7", tmp_path, n_points=400)
    meta = json.loads((tmp_path / "fig7_metadata.json").read_text())
    assert meta["R"] == 10.0
    assert meta["grid"]["t_max"] == 5.0
    table = np.loadtxt(tmp_path / "fig7c_ergotropy.csv", delimiter=",",
                       skiprows=1)
    # strong coupling: nonzero extractable work for every driven family member
    assert np.all(table[:, 2:].max(axis=0) > 0.0)


def test_maxima_figure_layout(tmp_path):
    files = figure_pipeline("fig5", tmp_path, n_points=400)
    names = sorted(p.name for p in files)
    assert names == ["fig5_metadata.json", "fig5a_power_max.csv",
                     "fig5b_energy_max.csv", "fig5c_ergotropy_max.csv"]
    table = np.loadtxt(tmp_path / "fig5b_energy_max.csv", delimiter=",",
                       skiprows=1)
    assert table.shape == (41, 5)
    assert table[0, 0] == 0.0 and table[-1, 0] == 2.0


def test_unknown_figure_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown figure id"):
        figure_pipeline("fig99", tmp_path)


def test_every_known_figure_is_defined():
    assert sorted(FIGURES) == [f"fig{i}" for i in range(10, 12)] + [
        f"fig{i}" for i in range(2, 10)]
