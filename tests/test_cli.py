import json
import warnings

import numpy as np
import pytest

import qbattery.cli as cli
import qbattery.sweep as sweep
from qbattery import (IntegrationError, SystemParams, dressed_frame,
                      kernel_params, survival_amplitude)
from qbattery.cli import RunConfig, config_from_dict, config_to_dict, main
from qbattery.dynamics import AmplitudeTrajectory


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
    config = RunConfig(delta_A=0.25, omega_drive=1.5, lambda_=2.0,
                       c01=0.6 + 0.0j, c02=0.8j, t_max=7.5,
                       axes=(("omega_drive", (0.5, 1.0)),), engine="pseudomode",
                       out_dir="/tmp/x", figure="fig3", threads=4)
    once = config_from_dict(config_to_dict(config))
    assert once == config
    twice = config_from_dict(json.loads(json.dumps(config_to_dict(once))))
    assert twice == config


def test_config_accepts_lambda_alias():
    config = config_from_dict({"lambda": 2.5})
    assert config.lambda_ == 2.5
    assert config_to_dict(config)["lambda"] == 2.5


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key"):
        config_from_dict({"volume": 11})


def test_default_grid_tracks_coupling_regime():
    assert RunConfig(R=0.5).grid().t_max == 10.0
    assert RunConfig(R=10.0).grid().t_max == 5.0
    assert RunConfig(R=10.0, t_max=2.0).grid().t_max == 2.0


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
    out8 = tmp_path / "t8"
    assert main(["sweep", "--config", config, "--out", str(out1)]) == 0
    assert main(["sweep", "--config", config, "--out", str(out8),
                 "--threads", "8"]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out8 / "sweep.csv").read_bytes()
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

    def skewed(params, frame, bath, grid, tol=1e-9):
        traj = real_propagate(params, frame, bath, grid, tol=tol)
        return AmplitudeTrajectory(grid=traj.grid, c1=traj.c1,
                                   c2=traj.c2 + 0.01, engine_tag=traj.engine_tag,
                                   total_norm=traj.total_norm)

    monkeypatch.setattr(cli, "propagate", skewed)
    out = tmp_path / "check"
    config = write_config(tmp_path, n_modes=1500, span=25.0,
                          t_max=2.0, n_points=100)
    assert main(["oracle-check", "--config", config, "--out", str(out)]) == 4
    report = json.loads((out / "oracle_check.json").read_text())
    assert not report["engines"]["closed_form"]["pass"]
    assert "tolerance failure" in capsys.readouterr().err


# --- flag and error plumbing -------------------------------------------------

def test_flags_override_config(tmp_path):
    config = write_config(tmp_path, engine="closed_form", n_points=200)
    out = tmp_path / "run"
    assert main(["timeseries", "--config", config, "--out", str(out),
                 "--engine", "pseudomode", "--tol", "1e-8",
                 "--set", "omega_drive=0.5"]) == 0
    meta = json.loads((out / "run.json").read_text())
    assert meta["config"]["engine"] == "pseudomode"
    assert meta["config"]["tol"] == 1e-8
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
    {"r1": 1.2}, {"c01": [1.0, 0.0], "c02": [1.0, 0.0]}, {"lambda": -1.0}])
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
    def exploding(spec, points, with_maxima=True):
        raise IntegrationError("step budget exhausted")

    # Every single-run command reaches the engines through sweep.evaluate.
    monkeypatch.setattr(cli, "evaluate", exploding)
    monkeypatch.setattr(sweep, "evaluate", exploding)
    for command in ("timeseries", "maxima", "sweep"):
        assert main([command, "--out", str(tmp_path / command)]) == 3
        assert "numerical failure" in capsys.readouterr().err


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
    (["maxima", "--set", "omega_drive=1e300"], 3, "closed_form engine"),
    (["maxima", "--set", "R=1e200"], 3, "closed_form engine"),
    (["maxima", "--engine", "pseudomode", "--set", "R=1e200"], 3,
     "pseudomode engine"),
    (["sweep", "--set", 'axes=[["omega_drive", [1.0, 1e300]]]'], 3,
     "closed_form engine"),
    (["maxima", "--set", 'tol="abc"'], 2, "'tol'"),
    (["maxima", "--set", "n_points=2.5"], 2, "'n_points'"),
    (["sweep", "--set", 'axes=[["R"]]'], 2, "'axes'"),
    (["maxima", "--set", "out_dir=5"], 2, "'out_dir'"),
    (["oracle-check", "--set", "omega_drive=1e300", "--set", "n_modes=400",
      "--set", "span=10"], 3, "pseudomode engine"),
    (["maxima", "--set", "n_points=1000000000000000"], 2, "n_points <="),
    (["sweep", "--set", "n_points=1000000000000000"], 2, "n_points <="),
    (["reproduce", "--figure", "fig5", "--set", "n_points=1000000000000000"], 2,
     "n_points <="),
    (["oracle-check", "--set", "n_modes=1000000000000000"], 2, "n_modes must be in"),
    (["oracle-check", "--set", "n_points=5000"], 2, "MAX_STATES"),
    (["sweep", "--set", "threads=0"], 2, "'threads'"),
    (["sweep", "--threads", "0"], 2, "'threads'"),
    (["sweep", "--set", "threads=-3"], 2, "'threads'"),
])
def test_bad_input_exits_with_code_and_writes_no_csv(tmp_path, capsys, argv, code,
                                                      fragment):
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == code
    err = capsys.readouterr().err
    assert fragment in err
    assert ("numerical failure" if code == 3 else "config error") in err
    assert not list(tmp_path.rglob("*.csv"))


def test_tiny_loss_rate_runs_without_floating_point_warnings(tmp_path):
    # lambda = 1e-300 stretches the default window to t = 1e301; the F -> 0
    # series of the survival amplitude must not be evaluated where unused.
    out = tmp_path / "o"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["timeseries", "--set", "lambda=1e-300", "--out", str(out)]) == 0
    _, data = load_csv(out / "timeseries.csv")
    assert data.shape == (2000, 8) and np.all(np.isfinite(data))
