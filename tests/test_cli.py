import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import qbattery
import qbattery.cli as cli
import qbattery.dynamics as dynamics
import qbattery.model as model
import qbattery.sweep as sweep
from qbattery import (IntegrationError, SystemParams, dressed_frame,
                      kernel_params, survival_amplitude)
from qbattery.cli import RunConfig, config_from_dict, config_to_dict, main
from qbattery.dynamics import AmplitudeTrajectory

ENGINE_CONFIG = str(Path(__file__).parent / "data" / "engine_pseudomode.json")


def write_config(tmp_path, **data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def load_csv(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


# --- config handling ---------------------------------------------------------

def test_config_round_trip_is_lossless():
    config = RunConfig(delta_A=0.25, omega_drive=1.5,
                       c01=0.6 + 0.0j, c02=0.8j, t_max=7.5,
                       axes=(("omega_drive", (0.5, 1.0)),), engine="pseudomode",
                       out_dir="/tmp/x", figure="fig3")
    once = config_from_dict(config_to_dict(config))
    assert once == config
    twice = config_from_dict(json.loads(json.dumps(config_to_dict(once))))
    assert twice == config


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"volume": 11})
    # threads is retired: a config that records it, as run.json once did,
    # is rejected, naming the key.
    with pytest.raises(ValueError, match="unknown config key: 'threads'"):
        config_from_dict({**config_to_dict(RunConfig()), "threads": 1})


def test_run_json_with_a_lambda_key_exits_2(tmp_path, capsys):
    # The loss rate is the unit, not a key: a run.json config that still
    # records lambda is rejected, naming the key.
    config = write_config(tmp_path, **config_to_dict(RunConfig()), **{"lambda": 1.0})
    assert main(["maxima", "--config", config, "--out", str(tmp_path / "o")]) == 2
    assert "unknown config key: 'lambda'" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.csv"))


def test_default_grid_tracks_coupling_regime():
    assert RunConfig(R=0.5).spec().grid.t_max == 10.0
    assert RunConfig(R=10.0).spec().grid.t_max == 5.0
    assert RunConfig(R=10.0, t_max=2.0).spec().grid.t_max == 2.0


# --- timeseries --------------------------------------------------------------

def test_timeseries_starts_with_empty_battery(tmp_path):
    out = tmp_path / "run"
    assert main(["timeseries", "--out", str(out)]) == 0
    header, data = load_csv(out / "timeseries.csv")
    assert header == ["t", "re_C1", "im_C1", "re_C2", "im_C2", "E_B", "P_B", "W_B"]
    first = dict(zip(header, data[0]))
    assert first["t"] == 0.0
    assert first["re_C2"] == 0.0 and first["im_C2"] == 0.0
    assert first["E_B"] == 0.0
    run_meta = json.loads((out / "run.json").read_text())
    assert run_meta["command"] == "timeseries"
    assert run_meta["outputs"] == ["timeseries.csv"]
    assert config_from_dict(run_meta["config"]) == RunConfig()


def test_timeseries_decoupled_cavity_stores_nothing(tmp_path):
    out = tmp_path / "run"
    config = write_config(tmp_path, R=0.0)
    assert main(["timeseries", "--config", config, "--out", str(out)]) == 0
    header, data = load_csv(out / "timeseries.csv")
    assert np.all(data[:, header.index("E_B")] == 0.0)


def test_timeseries_energy_matches_offline_recomputation(tmp_path):
    out = tmp_path / "run"
    assert main(["timeseries", "--out", str(out)]) == 0
    header, data = load_csv(out / "timeseries.csv")
    p = SystemParams()  # the CLI default config is the default parameter set
    f = dressed_frame(p)
    Z = survival_amplitude(kernel_params(p, f), data[:, 0])
    expected = np.abs(Z - 1.0) ** 2 * f.chi_B / 4.0
    np.testing.assert_allclose(data[:, header.index("E_B")], expected,
                               rtol=0, atol=1e-9)


@pytest.mark.parametrize("engine", ["closed_form", "pseudomode"])
def test_timeseries_peaks_well_below_its_csv(tmp_path, engine):
    # write_csv formats row blocks straight from the trajectory's and the
    # metrics' arrays: a peak of 0.46 (closed form) and 0.57 (pseudomode)
    # times the CSV's size, where stacking the eight columns into one table
    # first peaked at 0.89 and 0.99 times.
    # A small run first builds the formatter's tables.
    main(["timeseries", "--set", "n_points=200", "--out", str(tmp_path / "warm")])
    out = tmp_path / "run"
    tracemalloc.start()
    try:
        assert main(["timeseries", "--engine", engine, "--set", "n_points=262144",
                     "--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.75 * (out / "timeseries.csv").stat().st_size


# --- maxima ------------------------------------------------------------------

def test_maxima_of_monotone_run_sits_at_window_end(tmp_path):
    out = tmp_path / "run"
    assert main(["maxima", "--out", str(out)]) == 0
    header, data = load_csv(out / "maxima.csv")
    assert header == ["E_max", "t_E", "P_max", "t_P", "W_max", "t_W"]
    record = dict(zip(header, data[0]))
    assert record["t_E"] == 10.0  # energy grows monotonically on this window
    assert record["W_max"] == 0.0


def test_strong_coupling_maxima_include_extractable_work(tmp_path):
    for omega in (0.5, 1.0, 2.0):
        out = tmp_path / f"om{omega}"
        config = write_config(tmp_path, R=10.0, omega_drive=omega)
        assert main(["maxima", "--config", config, "--out", str(out)]) == 0
        header, data = load_csv(out / "maxima.csv")
        assert dict(zip(header, data[0]))["W_max"] > 0.0


# --- sweep -------------------------------------------------------------------

def test_sweep_without_axes_equals_maxima(tmp_path):
    sweep_out = tmp_path / "sweep"
    maxima_out = tmp_path / "maxima"
    assert main(["sweep", "--out", str(sweep_out)]) == 0
    assert main(["maxima", "--out", str(maxima_out)]) == 0
    assert (sweep_out / "sweep.csv").read_bytes() == (maxima_out / "maxima.csv").read_bytes()


def test_sweep_with_axes_and_threads(tmp_path):
    config = write_config(
        tmp_path, axes=[["omega_drive", [0.5, 1.0]], ["delta_L", [0.0, 2.0]]],
        n_points=300)
    out1 = tmp_path / "t1"
    assert main(["sweep", "--config", config, "--out", str(out1)]) == 0
    # sweep accepts --threads N and ignores it: the bytes of no flag, and no
    # threads key in run.json.
    for threads in ("8", "0"):
        out = tmp_path / f"t{threads}"
        assert main(["sweep", "--config", config, "--out", str(out),
                     "--threads", threads]) == 0
        assert (out / "sweep.csv").read_bytes() == (out1 / "sweep.csv").read_bytes()
        assert "threads" not in json.loads((out / "run.json").read_text())["config"]
    header, data = load_csv(out1 / "sweep.csv")
    assert header[:2] == ["param_omega_drive", "param_delta_L"]
    assert data.shape == (4, 8)


# --- reproduce ---------------------------------------------------------------

def test_reproduce_fig2_writes_panels_and_run_json(tmp_path):
    out = tmp_path / "fig2"
    assert main(["reproduce", "--figure", "fig2", "--out", str(out)]) == 0
    for name in ("fig2a_power.csv", "fig2b_energy.csv", "fig2c_ergotropy.csv",
                 "fig2_metadata.json", "run.json"):
        assert (out / name).exists()
    meta = json.loads((out / "run.json").read_text())
    assert meta["config"]["figure"] == "fig2"


def test_reproduce_requires_known_figure(tmp_path, capsys):
    assert main(["reproduce", "--figure", "fig99",
                 "--out", str(tmp_path)]) == 2
    assert "unknown figure" in capsys.readouterr().err
    assert main(["reproduce", "--out", str(tmp_path)]) == 2


def test_reproduce_reads_figure_n_points_and_out_dir(tmp_path):
    out = tmp_path / "fig2"
    config = write_config(tmp_path, figure="fig2", out_dir=str(out))
    assert main(["reproduce", "--config", config, "--set", "n_points=300"]) == 0
    assert json.loads((out / "fig2_metadata.json").read_text())["grid"]["n_points"] == 300
    assert main(["reproduce", "--figure", "fig2", "--set", "n_points=300",
                 "--out", str(tmp_path / "set")]) == 0


def test_reproduce_run_json_config_feeds_back(tmp_path):
    first = tmp_path / "first"
    assert main(["reproduce", "--figure", "fig2", "--set", "n_points=300",
                 "--out", str(first)]) == 0
    recorded = json.loads((first / "run.json").read_text())["config"]
    assert recorded == {"figure": "fig2", "n_points": 300, "out_dir": None}
    again = tmp_path / "again"
    config = write_config(tmp_path, **recorded)
    assert main(["reproduce", "--config", config, "--out", str(again)]) == 0
    for path in first.glob("*.csv"):
        assert (again / path.name).read_bytes() == path.read_bytes()
    assert sorted(p.name for p in again.iterdir()) == sorted(p.name for p in first.iterdir())


# --- oracle check ------------------------------------------------------------

def test_oracle_check_passes_on_small_bath(tmp_path, capsys):
    out = tmp_path / "check"
    config = write_config(tmp_path, n_modes=1500, span=25.0,
                          t_max=5.0, n_points=300)
    assert main(["oracle-check", "--config", config, "--out", str(out)]) == 0
    report = json.loads((out / "oracle_check.json").read_text())
    assert report["tolerance"] == 5e-3
    assert set(report["engines"]) == {"closed_form", "pseudomode"}
    for entry in report["engines"].values():
        assert entry["pass"] and entry["sup_norm_gap"] <= 5e-3
    assert report["norm_drift"] <= 1e-8
    assert "PASS" in capsys.readouterr().out
    assert (out / "run.json").exists()


def test_oracle_check_fails_with_exit_4(tmp_path, monkeypatch, capsys):
    real_propagate = cli.propagate

    def skewed(params, frame, bath, grid):
        # The amplitudes turned by 0.01 rad in the (C1, C2) plane: off by
        # about 0.01, with the qubit norm kept, which an added 0.01 would
        # push above 1, a numerical failure (exit 3).
        traj = real_propagate(params, frame, bath, grid)
        cos, sin = np.cos(0.01), np.sin(0.01)
        return AmplitudeTrajectory(grid=traj.grid, c1=cos * traj.c1 - sin * traj.c2,
                                   c2=sin * traj.c1 + cos * traj.c2,
                                   engine_tag=traj.engine_tag, total_norm=traj.total_norm)

    monkeypatch.setattr(cli, "propagate", skewed)
    out = tmp_path / "check"
    config = write_config(tmp_path, n_modes=1500, span=25.0,
                          t_max=2.0, n_points=100)
    assert main(["oracle-check", "--config", config, "--out", str(out)]) == 4
    report = json.loads((out / "oracle_check.json").read_text())
    assert not report["engines"]["closed_form"]["pass"]
    assert "tolerance failure" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", [[], ["delta_B=4.0"]])
def test_oracle_check_validates_its_point_once(tmp_path, monkeypatch, pairs):
    # Both engines at equal detunings, the pseudomode alone at unequal
    # ones, and the bath all take the one frame built for the point.
    calls = []

    def counting(params):
        calls.append(params)
        return real_validate(params)

    real_validate = model.validate
    monkeypatch.setattr(model, "validate", counting)
    argv = ["oracle-check", "--set", "n_modes=400", "--set", "span=10"]
    for pair in pairs:
        argv += ["--set", pair]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert len(calls) == 1


# --- flag and error plumbing -------------------------------------------------

def test_flags_override_config(tmp_path):
    config = write_config(tmp_path, engine="closed_form", n_points=200)
    out = tmp_path / "run"
    assert main(["timeseries", "--config", config, "--out", str(out),
                 "--engine", "pseudomode", "--set", "omega_drive=0.5"]) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["config"]["engine"] == "pseudomode"
    assert "threads" not in meta["config"]
    assert meta["config"]["omega_drive"] == 0.5
    assert meta["config"]["n_points"] == 200


def test_engine_alias_closed_maps_to_closed_form(tmp_path):
    config = write_config(tmp_path, engine="closed")
    for k, flags in enumerate((["--engine", "closed"], ["--set", "engine=closed"],
                               ["--config", config])):
        out = tmp_path / f"run{k}"
        assert main(["maxima", "--out", str(out)] + flags) == 0
        meta = json.loads((out / "run.json").read_text())
        assert meta["config"]["engine"] == "closed_form"


def test_out_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUT_ROOT_ENV, str(tmp_path))
    assert main(["maxima"]) == 0
    assert (tmp_path / "maxima" / "maxima.csv").exists()


@pytest.mark.parametrize("data", [
    {"r1": 1.2}, {"c01": [1.0, 0.0], "c02": [1.0, 0.0]}, {"R": -1.0}])
def test_invalid_physics_exits_2(tmp_path, data, capsys):
    config = write_config(tmp_path, **data)
    assert main(["timeseries", "--config", config,
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["timeseries", "--config", str(bad),
                 "--out", str(tmp_path / "o")]) == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_engine_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, engine="magic")
    assert main(["maxima", "--config", config,
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown engine" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    def exploding(*args, **kwargs):
        raise IntegrationError("step budget exhausted")

    # Every single-run command reaches the engines through sweep.evaluate.
    monkeypatch.setattr(cli, "evaluate", exploding)
    monkeypatch.setattr(sweep, "evaluate", exploding)
    for command in ("timeseries", "maxima", "sweep", "oracle-check"):
        assert main([command, "--out", str(tmp_path / command)]) == 3
        assert "numerical failure" in capsys.readouterr().err


def test_over_unit_battery_population_exits_3(tmp_path, monkeypatch, capsys):
    real = sweep.closed_form_trajectory, dynamics.general_trajectory

    # Written into C2's own memory: maxima's chunk, which forms no C1,
    # writes its metric rows into C2's block, and its message reads C2.
    def over_unit(first, *args, real, with_c1=True):
        traj = real(first, *args, with_c1=with_c1)
        traj.c2[...] = np.sqrt(1.0 + 1e-6)
        return traj

    monkeypatch.setattr(sweep, "closed_form_trajectory", partial(over_unit, real=real[0]))
    monkeypatch.setattr(dynamics, "general_trajectory", partial(over_unit, real=real[1]))
    for engine, command in itertools.product(("closed_form", "pseudomode"),
                                             ("timeseries", "maxima")):
        out = tmp_path / engine / command
        assert main([command, "--engine", engine, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "exceeds 1" in err
        assert f"max |C2| = {np.sqrt(1.0 + 1e-6):.17g}" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_second_run_in_one_process_sees_only_its_own_pairs(tmp_path):
    # main builds its parser once per process; a parse must leave nothing
    # of its flags or --set pairs behind for the next one.
    assert main(["sweep", "--engine", "pseudomode", "--threads", "2",
                 "--set", "R=10", "--set", 'axes=[["omega_drive", [0.5, 1.0]]]',
                 "--out", str(tmp_path / "first")]) == 0
    assert main(["maxima", "--set", "delta_L=2", "--out", str(tmp_path / "second")]) == 0
    recorded = json.loads((tmp_path / "second" / "run.json").read_text())["config"]
    expected = config_to_dict(RunConfig(delta_L=2))
    assert recorded == json.loads(json.dumps(expected))


def test_set_flag_rejects_malformed_pairs(tmp_path, capsys):
    assert main(["maxima", "--out", str(tmp_path / "o"),
                 "--set", "omega_drive"]) == 2
    assert "key=value" in capsys.readouterr().err


# No input may end in a traceback, a hang or a file of nan.  Non-finite or
# mistyped values are config errors (2); finite values whose arithmetic
# overflows in an engine are numerical failures (3).
@pytest.mark.parametrize("argv, code, fragment", [
    (["maxima", "--set", "c01=[NaN,0]"], 2, "'c01'"),
    (["maxima", "--set", "R=Infinity"], 2, "'R'"),
    (["maxima", "--set", "omega_drive=1e308"], 2, "non-finite chi_A"),
    (["maxima", "--engine", "pseudomode", "--set", "omega_drive=1e308"], 2,
     "non-finite chi_A"),
    (["maxima", "--set", "omega_drive=5e307"], 3, "closed_form engine"),
    (["maxima", "--set", "R=1e308"], 3, "closed_form engine"),
    (["maxima", "--engine", "pseudomode", "--set", "R=1e200"], 3,
     "pseudomode engine"),
    (["sweep", "--set", 'axes=[["omega_drive", [1.0, 5e307]]]'], 3,
     "closed_form engine"),
    (["maxima", "--set", 'tol="abc"'], 2, "'tol'"),
    (["maxima", "--set", "n_points=2.5"], 2, "'n_points'"),
    (["sweep", "--set", 'axes=[["R"]]'], 2, "'axes'"),
    (["maxima", "--set", "out_dir=5"], 2, "'out_dir'"),
    # The engines run before the bath is built: a step A dt that overflows.
    (["oracle-check", "--set", "omega_drive=1e300", "--set", "t_max=1e100",
      "--set", "n_modes=400", "--set", "span=10"], 3, "pseudomode engine"),
    (["maxima", "--set", "n_points=1000000000000000"], 2, "n_points <="),
    (["sweep", "--set", "n_points=1000000000000000"], 2, "n_points <="),
    (["reproduce", "--figure", "fig5", "--set", "n_points=1000000000000000"], 2,
     "n_points <="),
    (["oracle-check", "--set", "n_modes=1000000000000000"], 2, "n_modes must be in"),
    (["oracle-check", "--set", "n_points=5000"], 2, "MAX_STATES"),
    # threads is no config key: --set threads=N is an unknown key on every
    # command, even at its old default 1, and only sweep takes --threads.
    (["sweep", "--set", "threads=2"], 2, "'threads'"),
    (["sweep", "--threads", "2.5"], 2, "argument --threads: invalid int value"),
    (["maxima", "--threads", "2"], 2, "unrecognized arguments: --threads 2"),
    (["maxima", "--set", "threads=1"], 2, "'threads'"),
    (["maxima", "--tol", "abc"], 2, "arguments: --tol abc"),
    (["maxima", "--engine", "magic"], 2, "'engine'"),
    (["reproduce", "--figure", "fig2", "--set", "threads=2"], 2, "'threads'"),
    (["oracle-check", "--set", "threads=2"], 2, "'threads'"),
    (["reproduce", "--figure", "fig2", "--engine", "pseudomode", "--set", "R=10"], 2,
     "does not read 'R', 'engine'"),
    (["reproduce", "--figure", "fig2", "--config", ENGINE_CONFIG], 2,
     "does not read 'engine'"),
    (["maxima", "--bogus", "1"], 2, "unrecognized arguments: --bogus 1"),
    ([], 2, "argument command"),
    (["nosuch"], 2, "invalid choice: 'nosuch'"),
    (["maxima", "--set", "tol=1e-9"], 2, "unknown config key: 'tol'"),
    (["sweep", "--set", 'axes=[["omega_drive", [0.5]], ["omega_drive", [1.0]]]'], 2,
     "repeated sweep axis: 'omega_drive'"),
    (["sweep", "--set", 'axes=[["omega_drive", [true]]]'], 2, "'axes'"),
    (["maxima", "--engine", "pseudomode", "--set", "delta_B=1e308", "--set", "t_max=1e10"],
     3, "pseudomode engine"),
    (["maxima", "--engine", "pseudomode", "--set", "delta_A=1e308", "--set", "t_max=1e10"],
     3, "pseudomode engine"),
    # A filled battery over the first, tiny time step.
    (["maxima", "--engine", "pseudomode", "--set", "n_points=2", "--set", "t_max=1e-308",
      "--set", "c01=0", "--set", "c02=1"], 3, "charging power overflows"),
    (["maxima", "--set", "n_points=2", "--set", "t_max=1e-308", "--set", "c01=0",
      "--set", "c02=1"], 3, "charging power overflows"),
    # The loss rate is the unit of every rate, not a config key.
    (["maxima", "--set", "lambda=1"], 2, "unknown config key: 'lambda'"),
    # Amplitudes whose squares overflow are not normalized, not an OverflowError.
    (["maxima", "--set", "c01=1e155"], 2, "not normalized"),
    (["maxima", "--set", "c02=[1e308, 1e308]"], 2, "not normalized"),
    (["sweep", "--set", "axes=" + json.dumps([[name, list(range(1024))] for name in
                                              ("omega_drive", "delta_L", "R")])], 2,
     f"sweep of {1024 ** 3} points exceeds MAX_SWEEP_POINTS"),
    (["maxima", "--config", str(Path(__file__).parent / "data" / "no_such_config.json")], 2,
     "cannot read config"),
    (["sweep", "--set", 'axes=[["R", []]]'], 2, "empty value list for axis 'R'"),
    # Both engines run at this drive; the bath, far below the qubits, cannot.
    (["oracle-check", "--set", "omega_drive=1e300", "--set", "n_modes=400", "--set", "span=10"],
     3, "completeness defect"),
    # A diverged pseudomode, whose |C2| passes 1e154: its square overflows.
    (["maxima", "--engine", "pseudomode", "--set", "R=4.2026061035824015e+18"], 3,
     "battery population"),
    # C_A's rotation e^{i (chi_A - chi_B) t} overflows on the default window:
    # a failure whether or not C1 is formed.
    (["maxima", "--engine", "pseudomode", "--set", "delta_A=1e308"], 3, "pseudomode engine"),
    (["maxima", "--engine", "pseudomode", "--set", "delta_B=1e308"], 3, "pseudomode engine"),
    # The pseudomode loses digits at these magnitudes: its C1 reaches
    # |C1|^2 = 5.5e5, with |C2|^2 below 1.
    (["timeseries", "--engine", "pseudomode", "--set", "omega_drive=1.87e12",
      "--set", "delta_L=2.17e13", "--set", "R=2.86e14", "--set", "delta_A=-1.77e15",
      "--set", "delta_B=-9.52e15", "--set", "r1=0.181"], 3, "qubit norm"),
])
def test_bad_input_exits_with_code_and_writes_no_csv(tmp_path, capsys, argv, code,
                                                      fragment):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert fragment in err
    assert ("numerical failure" if code == 3 else "config error") in err
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("engine", ["closed_form", "pseudomode"])
@pytest.mark.parametrize("axes", [[["delta_A", [1, 2]], ["delta_common", [0]]],
                                  [["delta_common", [0]], ["delta_A", [1, 2]]]])
def test_delta_common_with_a_single_detuning_axis_exits_2(tmp_path, capsys, engine, axes):
    out = tmp_path / "o"
    assert main(["sweep", "--engine", engine, "--set", f"axes={json.dumps(axes)}",
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "'delta_common' and 'delta_A' conflict" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_pseudomode_battery_decoupled_by_huge_detuning_stores_nothing(tmp_path):
    # cos^2(eta_B/2) rounds to 0 at delta_B = -7.9e32, so w_B = 0 and the
    # battery amplitude is exactly c02 = 0 at every time, however large the
    # step's phases: every peak is 0 at t = 0.
    assert dressed_frame(SystemParams(delta_B=-7.9e32)).cos2_B == 0.0
    out = tmp_path / "o"
    assert main(["maxima", "--engine", "pseudomode", "--set", "delta_B=-7.9e32",
                 "--out", str(out)]) == 0
    header, data = load_csv(out / "maxima.csv")
    assert header == ["E_max", "t_E", "P_max", "t_P", "W_max", "t_W"]
    assert np.array_equal(data, np.zeros((1, 6)))


def test_pseudomode_at_huge_equal_detunings_stores_nothing(tmp_path):
    # In the battery's frame no sum chi_A + chi_B is formed, so splittings of
    # 1e308 do not overflow.  The battery's population, of order
    # (W / chi_B)^2, underflows to 0, and so does every peak.
    out = tmp_path / "o"
    assert main(["maxima", "--engine", "pseudomode", "--set", "delta_A=1e308",
                 "--set", "delta_B=1e308", "--out", str(out)]) == 0
    _, data = load_csv(out / "maxima.csv")
    assert np.array_equal(data, np.zeros((1, 6)))


# Valid inputs at the edges of the float range that the engines and the
# bath handle: a coupling whose square underflows, a tiny drive, a window
# so short that the coupling moves nothing, and detunings far below the
# loss rate.
@pytest.mark.parametrize("pairs", [
    ["R=1e-161"],
    ["omega_drive=1e-200"],
    ["t_max=8.3e-254"],
    ["delta_A=2.25e-213", "delta_B=-3.37e-213", "t_max=0.994", "n_points=64"],
])
def test_oracle_check_runs_at_extreme_scales(tmp_path, pairs):
    argv = ["oracle-check", "--set", "n_modes=400", "--set", "span=10"]
    for pair in pairs:
        argv += ["--set", pair]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "oracle_check.json").read_text())
    assert np.isfinite(report["norm_drift"])
    assert all(engine["pass"] for engine in report["engines"].values())


NO_SCIPY_PROBE = """
import json, sys, tempfile
from qbattery.cli import main

with tempfile.TemporaryDirectory() as out:
    codes = [main(argv + ["--out", out]) for argv in (
        ["maxima", "--engine", "pseudomode"],
        ["sweep", "--engine", "pseudomode", "--set", 'axes=[["delta_B", [0.0, 2.0]]]'],
        ["oracle-check", "--set", "n_modes=400", "--set", "span=10"])]
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


def test_engines_and_oracle_run_without_importing_scipy():
    # numpy is the only runtime dependency: a fresh interpreter that runs
    # the pseudomode and the oracle never imports scipy.
    src = str(Path(qbattery.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", NO_SCIPY_PROBE],
                           env=dict(os.environ, PYTHONPATH=path), timeout=120,
                           capture_output=True, text=True, check=True)
    result = json.loads(probe.stdout.splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "scipy": []}


def test_command_line_rejected_by_argparse_returns_2_and_help_returns_0(capsys):
    assert main([]) == 2
    assert "required: command" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert main(["sweep", "--help"]) == 0
    help_text = capsys.readouterr().out
    assert "--threads N" in help_text and "ignored" in help_text
    for command in ("timeseries", "reproduce", "oracle-check"):
        assert main([command, "--threads", "2"]) == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_huge_window_runs_without_floating_point_warnings(tmp_path):
    # On a window to t = 1e301 the survival amplitude's doubling factors
    # underflow and their phases lose every digit, silently.
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["timeseries", "--set", "t_max=1e301", "--out", str(out)]) == 0
    _, data = load_csv(out / "timeseries.csv")
    assert data.shape == (2000, 8) and np.all(np.isfinite(data))
