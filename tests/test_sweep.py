import dataclasses
import itertools
import json
import os
import platform
import subprocess
import sys
import threading
import time
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import qbattery
from qbattery import cli, dynamics, model, sweep
from qbattery import (FIGURES, IntegrationError, SweepPointError, SweepSpec,
                      SystemParams, TimeGrid, compute_metrics, default_grid,
                      dressed_frame, equal_frequency_trajectory, figure_pipeline,
                      kernel_params, run_sweep, survival_amplitude)
from qbattery.dynamics import ENGINE_ORACLE
from qbattery.sweep import (BUDGET, FLOAT_FORMAT, MAXIMA_FIELDS, SweepRow, apply_point,
                            csv_text, evaluate, prepare, sweep_csv_text, write_sweep_csv)

# Peak records computed by the closed-form engine on the default windows and
# frozen as regression values.  The trends they encode are discussed in the
# README: the energy peak is NOT monotone in the drive strength on the
# [0, 10] window, and the detuning family turns over at delta = 5.
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


@pytest.mark.parametrize("axes", [
    (("delta_A", (1.0, 2.0)), ("delta_common", (0.0,))),
    (("delta_common", (0.0,)), ("delta_B", (1.0, 2.0))),
])
def test_delta_common_axis_conflicts_with_a_single_detuning_axis(axes):
    # delta_common sets both detunings, so one of the two axes would
    # overwrite the other's values in every row.
    single = next(name for name, _ in axes if name != "delta_common")
    with pytest.raises(ValueError, match=f"'delta_common' and '{single}' conflict"):
        SweepSpec(base=base_params(), axes=axes, grid=weak_grid(10))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_axis_value_rejected(value):
    # The CLI rejects non-finite values before it builds a spec; a library
    # caller reaches this check.
    with pytest.raises(ValueError, match="non-finite value on axis 'omega_drive'"):
        SweepSpec(base=base_params(), axes=(("omega_drive", (0.5, value)),),
                  grid=weak_grid(10))


def test_unknown_axis_rejected():
    with pytest.raises(ValueError, match="unknown sweep axis"):
        SweepSpec(base=base_params(), axes=(("volume", (1.0,)),),
                  grid=weak_grid(10))


@pytest.mark.parametrize("engine", ["bogus", ENGINE_ORACLE])
def test_unknown_engine_rejected_when_the_spec_is_built(engine):
    # Before any point is validated or prepared: the oracle is no sweep engine.
    with pytest.raises(ValueError, match=f"unknown engine: '{engine}'"):
        SweepSpec(base=base_params(), axes=(("omega_drive", (0.1,)),),
                  grid=weak_grid(10), engine=engine)


def test_sweep_above_the_point_cap_is_rejected_before_expanding():
    # 1024^3 points: expanded, their dicts alone would need about 1 TB.
    axis = tuple(float(v) for v in range(1024))
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"sweep of {1024 ** 3} points exceeds"):
        SweepSpec(base=base_params(), grid=weak_grid(10),
                  axes=(("omega_drive", axis), ("delta_L", axis), ("R", axis)))
    assert time.perf_counter() - start < 0.5
    assert sweep.MAX_SWEEP_POINTS == 2 ** 20
    SweepSpec(base=base_params(), grid=weak_grid(10),
              axes=(("omega_drive", axis), ("delta_L", axis)))


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
    w_A = frame.W * params.r1 * frame.cos2_A
    w_B = frame.W * params.r2 * frame.cos2_B
    step = expm(t[1] * np.array([
        [-1j * frame.chi_A, 0.0, -w_A], [0.0, -1j * frame.chi_B, -w_B],
        [w_A, w_B, -(1.0 - 1j * frame.delta_L)]]))
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
    ("closed_form", (("omega_drive", (0.0, 0.2, 0.4, 0.6, 0.9, 1.1, 1.3, 1.6, 2.0, 2.5)),
                     ("delta_common", (0.0, 2.5)), ("delta_L", (0.0, 3.0)),
                     ("R", (0.5, 10.0)))),
    ("pseudomode", (("delta_A", (0.0, 1.5)), ("delta_B", (0.0, 3.0)),
                    ("omega_drive", (0.0, 0.35, 0.7, 1.05, 1.4, 1.7, 2.0, 2.5, 3.0, 3.5)),
                    ("R", (0.5, 10.0)))),
])
@pytest.mark.parametrize("base_R", [0.5, 10.0])
def test_multi_chunk_sweep_matches_loop_reference(engine, axes, base_R):
    base = base_params(R=base_R)
    grid = default_grid(base)
    spec = SweepSpec(base=base, axes=axes, grid=grid, engine=engine)
    result = run_sweep(spec)
    assert len(result.rows) == 80 > 2 * (BUDGET // grid.n_points)
    # The chunks take the metric rows alone; the amplitude path, which
    # forms C1 too and gets fresh metric rows, gives every row's bits.  The
    # closed form's rows include Omega = Delta = delta_L = 0 at R = 0.5,
    # the critically damped point, on survival_amplitude's series branch.
    names = [name for name, _ in axes]
    points = apply_point(base, dict(zip(names, result.table[:, :len(names)].T)))
    _, series = evaluate(spec, prepare(spec, points), amplitudes=True)
    peaks = np.column_stack([*series.max_energy, *series.max_power, *series.max_ergotropy])
    assert peaks.tobytes() == result.table[:, len(names):].tobytes()
    if engine == "closed_form":
        assert {"omega_drive": 0.0, "delta_common": 0.0, "delta_L": 0.0,
                "R": 0.5} in [row.point for row in result.rows]
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
    axes = (("omega_drive", tuple(np.linspace(0.0, 2.0, 17))), ("delta_L", (0.0, 4.0)),
            ("R", (0.5, 10.0)))
    grid = weak_grid(1025)   # 2^10 + 1 samples: the last doubling block is one sample
    result = run_sweep(SweepSpec(base=base_params(), axes=axes, grid=grid, engine=engine))
    assert len(result.rows) > BUDGET // grid.n_points
    for row in result.rows:
        single = run_sweep(SweepSpec(base=base_params(), grid=grid, engine=engine,
                                     axes=tuple((k, (v,)) for k, v in row.point.items())))
        assert single.rows == (row,)


def _three_chunk_omegas():
    """Drive strengths of a sweep on 2000 samples that runs in three chunks,
    the third of 8 points, and the index of that chunk's second point."""
    size = BUDGET // 2000
    return [0.05 * k for k in range(2 * size + 8)], 2 * size + 1


def test_failure_in_a_later_chunk_names_the_first_failing_point():
    # One point overflows in the engine, the point two rows after it fails
    # validation; both lie in the third chunk.
    omegas, k = _three_chunk_omegas()
    omegas[k], omegas[k + 2] = 5e307, -1.0
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", tuple(omegas)),),
                     grid=weak_grid(2000))
    with pytest.raises(SweepPointError) as err:
        run_sweep(spec)
    assert err.value.point == {"omega_drive": 5e307}
    assert isinstance(err.value.cause, IntegrationError)


def test_engine_failure_after_sweep_wide_validation_names_the_point(monkeypatch):
    # All points validate together, so the chunks take slices of one
    # frame; one point then overflows in the engine, in the third chunk,
    # whose halves are evaluated again from slices of that frame, with no
    # point validated a second time.
    calls = []
    real_validate = model.validate

    def counting(params):
        calls.append(params)
        return real_validate(params)

    monkeypatch.setattr(model, "validate", counting)
    omegas, k = _three_chunk_omegas()
    omegas[k] = 5e307
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", tuple(omegas)),),
                     grid=weak_grid(2000))
    with pytest.raises(SweepPointError) as err:
        run_sweep(spec)
    assert err.value.point == {"omega_drive": 5e307}
    assert isinstance(err.value.cause, IntegrationError)
    assert len(calls) == 1
    assert calls[0].omega_drive.tolist() == omegas


def test_a_failing_chunk_is_searched_by_halving(monkeypatch):
    # One chunk of BUDGET // 32 points (2048) whose last overflows in the
    # engine: halving finds it in at most 2 log2(2048) + 1 evaluations,
    # where a retry point by point made 2049.
    calls = []
    real_evaluate = sweep.evaluate

    def counting(spec, batch):
        calls.append(np.size(batch.params.omega_drive))
        return real_evaluate(spec, batch)

    monkeypatch.setattr(sweep, "evaluate", counting)
    count = BUDGET // 32                           # one chunk
    omegas = [0.05 * k for k in range(count)]
    omegas[-1] = 5e307
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", tuple(omegas)),),
                     grid=weak_grid(32))
    with pytest.raises(SweepPointError) as err:
        run_sweep(spec)
    assert err.value.point == {"omega_drive": 5e307}
    assert isinstance(err.value.cause, IntegrationError)
    assert calls[0] == count and calls[-1] == 1
    assert len(calls) <= 2 * (count.bit_length() - 1) + 1


@pytest.mark.parametrize("threads", [1, 2])
def test_preparation_failure_names_the_first_failing_row_over_all_checks(threads):
    # r1 = 2 fails the sweep-wide preparation first, at row 6 of twelve;
    # preparing rows 0 to 5 then fails on omega_drive = -1 at row 4, which
    # fails no earlier check.  Rows 0 to 3 run in two 2-point chunks, and
    # row 4 is named with its single-point message.
    spec = SweepSpec(base=base_params(), grid=weak_grid(BUDGET // 2),
                     axes=(("r1", (0.5, 2.0)),
                           ("omega_drive", (0.5, 1.0, 1.5, 2.0, -1.0, 3.0))))
    with pytest.raises(SweepPointError) as err:
        run_sweep(spec, threads=threads)
    point = {"r1": 0.5, "omega_drive": -1.0}
    with pytest.raises(SweepPointError) as single:
        run_sweep(SweepSpec(base=base_params(), grid=spec.grid,
                            axes=tuple((k, (v,)) for k, v in point.items())))
    assert err.value.point == single.value.point == point
    assert type(err.value.cause) is type(single.value.cause) is ValueError
    assert str(err.value) == str(single.value) == (
        f"sweep point {point} failed: negative omega_drive: -1.0")


def _four_per_chunk_spec(n):
    omegas = tuple(0.1 * k for k in range(n))
    return omegas, SweepSpec(base=base_params(), axes=(("omega_drive", omegas),),
                             grid=weak_grid(BUDGET // 4))


@pytest.mark.parametrize("threads", [1, 2, 3, 8])
def test_sweep_workers_evaluate_each_chunk_once(monkeypatch, threads):
    # Whatever the ignored thread count, every chunk runs once, in row
    # order, on the calling thread, and every row of the table holds its
    # own point.
    calls = []
    real_fill = sweep._fill

    def recording(spec, table, batch, index):
        calls.append((threading.get_ident(), table[index.start, 0]))
        return real_fill(spec, table, batch, index)

    monkeypatch.setattr(sweep, "_fill", recording)
    omegas, spec = _four_per_chunk_spec(10)   # chunks of 4, 4 and 2 points
    result = run_sweep(spec, threads=threads)
    assert calls == [(threading.get_ident(), omegas[k]) for k in (0, 4, 8)]
    assert result.table[:, 0].tolist() == list(omegas)
    assert [row.point["omega_drive"] for row in result.rows] == list(omegas)


@pytest.mark.parametrize("engine", ["closed_form", "pseudomode"])
def test_a_sweep_starts_no_thread(monkeypatch, engine):
    # Three chunks at threads=8 give the table of threads=1 with no thread
    # started.
    _, spec = _four_per_chunk_spec(10)
    spec = dataclasses.replace(spec, engine=engine)
    serial = run_sweep(spec, threads=1).table

    def no_thread(self):
        raise AssertionError(f"a sweep started thread {self.name}")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    assert np.array_equal(run_sweep(spec, threads=8).table, serial)


def test_each_chunk_runs_once_in_row_order_under_frequent_thread_switches(monkeypatch):
    # A thread count above the cores and a 1 us switch interval: a chunk run
    # twice, out of order or not at all shows as a repeated, misplaced or
    # missing start, or as a row whose peaks were never written.
    calls = []

    def fill(spec, table, batch, index):
        calls.append(table[index.start, 0])
        time.sleep(0)       # yields the interpreter lock, as the engines do
        table[index, 1:] = table[index, :1]

    monkeypatch.setattr(sweep, "_fill", fill)
    omegas = tuple(float(k) for k in range(2000))
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", omegas),),
                     grid=weak_grid(BUDGET))    # one point per chunk
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        result = run_sweep(spec, threads=min(64, 2 * (os.cpu_count() or 1) + 1))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(result.table, np.repeat(np.array(omegas)[:, None], 7, axis=1))
    assert calls == list(omegas)


# The call each engine makes once per chunk, which perfbench's tracer counts
# by rebinding the dynamics attribute of that name, and the field of its
# first argument that has the chunk's points shape.
ENGINE_CALLS = {"closed_form": ("survival_amplitude", "M"),
                "pseudomode": ("general_trajectory", "omega_drive")}


@pytest.mark.parametrize("engine", sorted(ENGINE_CALLS))
def test_each_chunk_calls_its_engine_through_dynamics_once(monkeypatch, engine):
    shapes = {call: [] for call, _ in ENGINE_CALLS.values()}
    for call, field in ENGINE_CALLS.values():
        def counting(first, *args, real=getattr(dynamics, call), call=call, field=field,
                     **kwargs):
            shapes[call].append(np.shape(getattr(first, field)))
            return real(first, *args, **kwargs)

        monkeypatch.setattr(dynamics, call, counting)
    _, spec = _four_per_chunk_spec(6)   # chunks of 4 and 2 points
    run_sweep(dataclasses.replace(spec, engine=engine))
    expected = ENGINE_CALLS[engine][0]
    assert shapes == {call: [(4,), (2,)] if call == expected else [] for call in shapes}


def test_each_point_is_validated_once(monkeypatch, tmp_path):
    # dressed_frame validates all points of a sweep together, once; the
    # chunks take slices of the validated frame, and nothing downstream
    # validates again.
    calls = []
    real_validate = model.validate

    def counting(params):
        calls.append(params)
        return real_validate(params)

    monkeypatch.setattr(model, "validate", counting)
    omegas, _ = _three_chunk_omegas()
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", tuple(omegas)),),
                     grid=weak_grid(2000))
    assert len(run_sweep(spec).rows) == len(omegas)
    assert len(calls) == 1
    assert np.concatenate([p.omega_drive for p in calls]).tolist() == list(omegas)

    # The CLI's base point is validated once too, where its frame is built.
    calls.clear()
    assert cli.main(["maxima", "--set", "omega_drive=0.5", "--out", str(tmp_path)]) == 0
    assert calls == [base_params(omega_drive=0.5)]


# Minor page faults of each of five repeats of run() after a warm-up, counted
# in a fresh interpreter: the allocator state left by other tests decides
# whether freed memory goes back to the OS, and so whether a fresh array
# faults at all.  The setup defines run().
FAULT_PROBE = """
import json, resource, sys
{setup}
run()     # warm-up: imports, caches, heap
faults = []
for _ in range(5):
    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)
print(json.dumps(faults))
"""

# A 32-chunk sweep on 2000 samples, given the probe's argument as threads.
SWEEP_RUN = """
from qbattery import SweepSpec, SystemParams, TimeGrid, run_sweep
from qbattery.sweep import BUDGET

omegas = tuple(0.01 * k for k in range(32 * (BUDGET // 2000)))
spec = SweepSpec(base=SystemParams(), axes=(("omega_drive", omegas),),
                 grid=TimeGrid.uniform(10.0, 2000))

def run():
    run_sweep(spec, threads=int(sys.argv[1]))
"""

# The bath oracle at the weak certification point: 4000 modes, 2000 samples.
PROPAGATE_RUN = """
from qbattery import SystemParams, build_bath, default_grid, dressed_frame, propagate

params = SystemParams()
frame = dressed_frame(params)
bath, grid = build_bath(frame), default_grid(params)

def run():
    propagate(params, frame, bath, grid)
"""

glibc_only = pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                                reason="the allocator policy is glibc's")


def _repeat_faults(setup: str, *args: str) -> list[int]:
    import resource
    if resource.getrusage(resource.RUSAGE_SELF).ru_minflt == 0:
        pytest.skip("ru_minflt reads 0 here")
    probe = subprocess.run([sys.executable, "-c", FAULT_PROBE.format(setup=setup), *args],
                           env=_env_with_src(), timeout=120, capture_output=True,
                           text=True, check=True)
    return json.loads(probe.stdout)


@glibc_only
@pytest.mark.parametrize("threads", [1, 2])
def test_repeated_sweep_reuses_its_chunk_memory(threads):
    # A chunk of 32 points holds a 2 MB (points x time) block, freed when it
    # ends, and every chunk reuses memory faulted in before: 0 faults per
    # repeat at 1 and 2 threads.  With the allocator policy of dynamics
    # disabled (ctypes.CDLL failing, as in
    # test_import_survives_a_missing_c_library) the repeats read the same,
    # since glibc's dynamic mmap threshold rises to a chunk's block size at
    # its first free; only the warm-up sweep faulted more (about 1,000
    # against 520 faults).  So this test checks the reuse, and
    # test_repeated_propagate_reuses_its_memory tells the policy apart.  A
    # sweep starts no thread at any `threads`, so every repeat runs in the
    # calling thread's glibc arena; the median leaves out one outlying
    # repeat.
    faults = _repeat_faults(SWEEP_RUN, str(threads))
    assert sorted(faults)[2] < 64, faults


@glibc_only
def test_repeated_propagate_reuses_its_memory():
    # Where the allocator policy pays: each repeat of the oracle took 0
    # faults with it, and about 590 with the policy disabled (ctypes.CDLL
    # failing), 1690 with M_MMAP_THRESHOLD alone.
    faults = _repeat_faults(PROPAGATE_RUN)
    assert sorted(faults)[2] < 64, faults


# A 3-point sweep in a fresh interpreter whose ctypes cannot load a library.
NO_LIBC_PROBE = """
import ctypes, sys

tried = []

def no_library(*args, **kwargs):
    tried.append(args)
    raise OSError("no C library")

ctypes.CDLL = no_library
from qbattery import SweepSpec, SystemParams, TimeGrid, run_sweep
from qbattery.sweep import sweep_csv_text

assert tried or sys.platform != "linux"
spec = SweepSpec(base=SystemParams(), axes=(("omega_drive", (0.0, 0.5, 1.0)),),
                 grid=TimeGrid.uniform(10.0, 2000))
sys.stdout.write(sweep_csv_text(run_sweep(spec)))
"""


def test_import_survives_a_missing_c_library():
    # The allocator policy is best effort: without it the import succeeds
    # and the rows are the same; only speed differs.
    probe = subprocess.run([sys.executable, "-c", NO_LIBC_PROBE], env=_env_with_src(),
                           timeout=120, capture_output=True, text=True, check=True)
    spec = SweepSpec(base=base_params(), axes=(("omega_drive", (0.0, 0.5, 1.0)),),
                     grid=weak_grid(2000))
    assert probe.stdout == sweep_csv_text(run_sweep(spec))


def _env_with_src():
    """The environment of a child interpreter that imports this qbattery."""
    src = str(Path(qbattery.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("threads", [1, 2])
def test_sweep_keeps_no_workspace_after_it_returns(threads):
    # On a grid longer than BUDGET a chunk is one point and its block is
    # 4 MB, larger than any chunk of a small warm-up sweep, so a buffer kept
    # after either sweep shows as traced memory.
    omegas = (("omega_drive", (0.5, 1.0, 1.5)),)
    spec = SweepSpec(base=base_params(), axes=omegas, grid=weak_grid(2 * BUDGET + 1))
    run_sweep(SweepSpec(base=base_params(), axes=omegas, grid=weak_grid(100)),
              threads=threads)           # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rows = run_sweep(spec, threads=threads).rows
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rows) == 3
    assert after - before <= 256 * 1024


def _sweep_peak(spec: SweepSpec) -> int:
    """The tracemalloc peak of a sweep, in bytes above what it started with,
    after a warm-up sweep (lazy imports and caches)."""
    run_sweep(spec)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        run_sweep(spec)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def _budget_chunk(engine: str, **base) -> SweepSpec:
    """One chunk of BUDGET samples: 32 points of 2048, Omega = 0 included."""
    n = 2048
    omegas = (("omega_drive", tuple(np.linspace(0.0, 2.0, BUDGET // n))),)
    return SweepSpec(base=base_params(**base), axes=omegas, grid=weak_grid(n), engine=engine)


def test_a_closed_form_chunk_holds_its_block_and_little_more():
    # One chunk of BUDGET samples, whose rows include the critically damped
    # Omega = 0.  Its complex (2, points, time) block holds Z, then C2 and
    # the metric rows, 32 B a sample; the chunk peaked at 38 B a sample in
    # tracemalloc, and at 62 when it also formed C1 and a separate
    # (3, points, time) metric array.
    peak = _sweep_peak(_budget_chunk("closed_form"))
    assert peak < 48 * BUDGET, peak / BUDGET


def test_a_pseudomode_chunk_writes_its_metric_rows_into_its_state():
    # The pseudomode chunk's complex (3, points, time) state, 48 B a sample,
    # ends as C_A's row, C2 and the pseudomode amplitude's row.  Without C1
    # the metric rows lie over C_A's row and the start of C2: the chunk
    # peaked at 51 B a sample in tracemalloc, and at 75 when it rotated C_A
    # and kept its metric rows beside the state.
    peak = _sweep_peak(_budget_chunk("pseudomode", delta_A=1.0, delta_B=-0.5))
    assert peak < 60 * BUDGET, peak / BUDGET


def test_a_critically_damped_row_takes_its_series_without_gathers():
    # One closed-form point at Omega = Delta = 0, R = 0.5 (F = 0) on 65536
    # samples: survival_amplitude's series covers the whole row.  Evaluated
    # in place in the row it peaked at 50 B a sample in tracemalloc; as one
    # expression over the row, at 98; gathering M, F and t for each sample,
    # at 155.
    n = 2 ** 16
    spec = SweepSpec(base=base_params(omega_drive=0.0, R=0.5), axes=(), grid=weak_grid(n))
    peak = _sweep_peak(spec)
    assert peak < 64 * n, peak / n


def test_a_sweep_is_its_table():
    # A finished sweep holds its (points, axes + 6) table, 64 B a point
    # here, and no per-point object: rows are built from the table only
    # when read, in lexicographic axis order, with the table's bits.
    values = (tuple(np.linspace(0.0, 4.0, 64)), tuple(np.linspace(-7.0, 7.0, 64)))
    axes = (("omega_drive", values[0]), ("delta_L", values[1]))
    spec = SweepSpec(base=base_params(), axes=axes, grid=weak_grid(200))
    run_sweep(SweepSpec(base=base_params(), axes=axes[:1], grid=weak_grid(200)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = run_sweep(spec)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 128 * 4096
    sweep_csv_text(result)
    assert "rows" not in vars(result)

    rows = result.rows
    assert all(type(row) is SweepRow for row in rows)
    assert [tuple(row.point.values()) for row in rows] == list(itertools.product(*values))
    read = np.array([[*row.point.values(), *(getattr(row, name) for name in MAXIMA_FIELDS)]
                     for row in rows])
    assert np.array_equal(read.view(np.int64), result.table.view(np.int64))
    assert result.rows is rows


def _arrays(result):
    traj, series = result
    amplitudes = [] if traj is None else [traj.c1, traj.c2]
    return amplitudes + [series.energy, series.power, series.ergotropy]


def _share_memory(first, second):
    return any(np.shares_memory(a, b) for a in _arrays(first) for b in _arrays(second))


def test_evaluations_outside_a_sweep_get_fresh_arrays(tmp_path, monkeypatch):
    # No evaluation reuses the arrays of another; oracle-check holds both
    # engines' trajectories at once.
    results = []

    def recording(*args, **kwargs):
        results.append(evaluate(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "evaluate", recording)
    assert cli.main(["oracle-check", "--set", "n_modes=400", "--set", "span=10",
                     "--out", str(tmp_path)]) == 0
    assert len(results) == 2 and not _share_memory(*results)

    spec = SweepSpec(base=base_params(), axes=(), grid=weak_grid(2000))
    points = apply_point(spec.base, {"omega_drive": np.array([0.5, 1.0])})
    for amplitudes in (True, False):
        assert not _share_memory(evaluate(spec, prepare(spec, points), amplitudes),
                                 evaluate(spec, prepare(spec, points), amplitudes))


def _fields(batch, prefix=""):
    """Each field of a batch dataclass, by dotted name, nested ones in turn."""
    for name, value in vars(batch).items():
        if dataclasses.is_dataclass(value):
            yield from _fields(value, f"{prefix}{name}.")
        else:
            yield f"{prefix}{name}", value


@pytest.mark.parametrize("engine", ["closed_form", "pseudomode"])
@pytest.mark.parametrize("index", [slice(0, 16), slice(24, 40), slice(48, 64)])
def test_a_slice_of_a_prepared_batch_is_its_points_prepared(engine, index):
    # model.take slices every batch: a chunk's slice of the batch prepared
    # once per sweep has the bits of its points prepared on their own, and
    # shares the batch's numbers, 0-d arrays and None.
    detuning = np.linspace(0.0, 4.0, 64) if engine == "pseudomode" else 0.5
    spec = SweepSpec(base=base_params(delta_A=0.5), axes=(), grid=weak_grid(200),
                     engine=engine)
    params = apply_point(spec.base, {"delta_B": detuning,
                                     "omega_drive": np.linspace(0.0, 4.0, 64),
                                     "delta_L": np.linspace(-3.0, 3.0, 64),
                                     "R": np.linspace(0.1, 12.0, 64)})
    batch = prepare(spec, params)
    chunk = model.take(batch, index)
    alone = prepare(spec, model.take(params, index))
    names = [name for name, _ in _fields(batch)]
    assert [name for name, _ in _fields(chunk)] == names == [name for name, _ in _fields(alone)]
    assert ("closed.M" in names) == (engine == "closed_form")
    for name, whole, part, own in zip(names, *(dict(_fields(b)).values()
                                               for b in (batch, chunk, alone))):
        assert type(part) is type(own), name
        if np.ndim(whole):
            assert np.shares_memory(part, whole), name
            assert part.shape == own.shape == (index.stop - index.start,), name
            assert part.tobytes() == own.tobytes(), name
        else:
            assert part is whole, name
            assert np.asarray(part).tobytes() == np.asarray(own).tobytes(), name


@pytest.mark.parametrize("engine", ["closed_form", "pseudomode"])
def test_a_slice_of_one_point_is_that_point(engine, monkeypatch):
    # An axis-less sweep (qbattery maxima) is one chunk of one point: its
    # slice shares every field of the point, whose closed-form constants
    # are 0-d, and both engines give it (time,) arrays; the sweep takes its
    # metric rows alone.
    spec = SweepSpec(base=base_params(), axes=(), grid=weak_grid(200), engine=engine)
    batch = prepare(spec, spec.base)
    chunk = model.take(batch, slice(0, 1))
    assert all(part is whole for (_, part), (_, whole) in zip(_fields(chunk), _fields(batch)))
    if engine == "closed_form":
        assert all(np.ndim(value) == 0 for value in vars(batch.closed).values())
    traj, series = evaluate(spec, chunk, amplitudes=True)
    assert traj.c1.shape == traj.c2.shape == series.energy.shape == (200,)

    shapes = []

    def recording(spec, batch):
        traj, series = evaluate(spec, batch)
        shapes.append((traj, series.energy.shape, series.power.shape,
                       series.ergotropy.shape))
        return traj, series

    monkeypatch.setattr(sweep, "evaluate", recording)
    run_sweep(spec)
    assert shapes == [(None, (200,), (200,), (200,))]


def _per_cell_csv(header, columns) -> str:
    """The CSV of columns with every cell formatted on its own."""
    rows = zip(*[np.asarray(column).tolist() for column in columns])
    return "".join([",".join(header) + "\n"]
                   + [",".join(FLOAT_FORMAT % x for x in row) + "\n" for row in rows])


def _neighbours(x: float, count: int) -> list[float]:
    """x and its count nearest doubles on either side."""
    out = [x]
    for direction in (-np.inf, np.inf):
        y = x
        for _ in range(count):
            y = float(np.nextafter(y, direction))
            out.append(y)
    return out


def _ties() -> list[float]:
    """Doubles q / 2^j whose decimal expansion has 18 significant digits
    ending in 5: exactly halfway between two 17-digit numbers."""
    ties = []
    for j in range(2, 26):
        lo, hi = -(-10 ** 17 // 5 ** j), min(2 ** 53, 10 ** 18 // 5 ** j)
        ties += [q / 2 ** j for q in range(lo | 1, hi, 2 * max(1, (hi - lo) // 14))]
    return ties


def test_csv_rows_match_per_cell_format():
    specials = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.2250738585072014e-308,
                0.1, 1.0 / 3.0, 123456789.12345678, 3.0, -7.25, 0.5, 2.0 ** -1074 * 3,
                float("inf"), float("-inf"), float("nan"), -float("nan")]
    powers = [y for k in range(-30, 21) for y in _neighbours(float(f"1e{k}"), 1)]
    switches = [y for x in (1e-5, 1e-4, 1e16, 1e17) for y in _neighbours(x, 4)]
    # 9.99..95 and above rounds up to the next power of ten in 17 digits;
    # 1e-14 is the double below 10^-14 that does.
    carries = [1e-14, 9.99999999999999995e-15, 0.99999999999999999999]
    ties = _ties()
    digits = [Decimal(x).as_tuple().digits for x in ties]
    assert all(len(d) == 18 and d[-1] == 5 for d in digits)
    values = specials + powers + switches + carries + ties
    values = np.array(values + [-x for x in values])
    columns = [values, values[::-1], values * 0.5]
    text = csv_text(["a", "b", "c"], columns)
    assert text == _per_cell_csv(["a", "b", "c"], columns)
    assert csv_text(["a", "b", "c"], [column.tolist() for column in columns]) == text


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40), st.integers(1, 4))
def test_csv_text_matches_per_cell_format_on_any_floats(values, width):
    values += [0.0] * (-len(values) % width)
    header = [f"c{k}" for k in range(width)]
    small = np.array(values).reshape(-1, width)
    # The same values, repeated past one block of CSV_BLOCK cells.
    large = np.resize(small, (sweep.CSV_BLOCK // width + 1, width))
    for table in (small, large):
        assert csv_text(header, table.T) == _per_cell_csv(header, table.T)


def test_csv_text_of_tables_spanning_several_blocks():
    rng = np.random.default_rng(17)
    for width in (1, 7, 10):
        rows = 3 * sweep.CSV_BLOCK // width + 5
        magnitudes = 10.0 ** rng.integers(-35, 25, (rows, width))
        table = rng.standard_normal((rows, width)) * magnitudes
        table[rng.random((rows, width)) < 0.1] = 0.0
        table[::97, -1] = np.round(table[::97, -1], 3)
        header = [f"c{k}" for k in range(width)]
        assert csv_text(header, table.T) == _per_cell_csv(header, table.T)


def test_csv_text_holds_its_text_twice_at_most():
    # Each block is decoded as it is made, so the text is held as the
    # blocks and as their join: a peak of 2.00 times its length on this
    # table.  Joined as bytes and then decoded, it was held three times.
    table = np.random.default_rng(0).standard_normal((65536, 8))
    header = [f"c{k}" for k in range(8)]
    csv_text(header, table[:1024].T)    # builds the formatter's tables
    tracemalloc.start()
    try:
        text = csv_text(header, table.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text)


def test_write_sweep_csv_peaks_below_half_its_file(tmp_path):
    # write_csv writes each block to the file as it is made: a peak of 0.135
    # times the file's size on this table, where building the whole text
    # first, as csv_text does, peaked at 2.00 times.
    axis = tuple(np.linspace(0.0, 1.0, 256))
    spec = SweepSpec(base=base_params(), grid=weak_grid(200),
                     axes=(("omega_drive", axis), ("delta_L", axis)))
    result = sweep.SweepResult(spec, np.random.default_rng(0).standard_normal((65536, 8)))
    csv_text(["a"], [result.table[:1024, 0]])       # builds the formatter's tables
    tracemalloc.start()
    try:
        path = write_sweep_csv(result, tmp_path / "sweep.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * path.stat().st_size
    assert path.read_text() == sweep_csv_text(result)


def test_csv_text_of_no_rows_is_the_header():
    assert csv_text(["a", "b"], np.empty((2, 0))) == "a,b\n"
    assert csv_text(["a", "b"], [[], []]) == "a,b\n"


@pytest.mark.parametrize("header, columns", [
    (["a", "b"], [[1.0, 2.0], [3.0]]),
    (["a", "b"], [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]),
    (["a", "b"], [[1.0, 2.0], [[3.0], [4.0]]]),
    ([], []),
], ids=["unequal-lengths", "three-columns", "2-D-column", "no-header"])
def test_csv_text_rejects_rows_of_another_width(header, columns, tmp_path):
    with pytest.raises(ValueError, match="each field needs one 1-D column"):
        csv_text(header, columns)
    with pytest.raises(ValueError, match="each field needs one 1-D column"):
        sweep.write_csv(tmp_path / "t.csv", header, columns)
    assert not (tmp_path / "t.csv").exists()        # checked before the file opens


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
