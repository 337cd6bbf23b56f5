"""The input contract: every command line ends in a documented exit code.

Any config value may arrive through --set, so the property test drives
qbattery.cli.main over all five commands with numbers from 0 and
+-1e-320 ... 1e308: the exit code is 0, 2, 3 or 4, nothing escapes main, no
floating-point RuntimeWarning is raised, and on exit 0 every number in every
CSV and JSON output is finite.  A second property test holds the same
command lines to that contract with wrongly typed input added: c01/c02 as
numbers, pairs of any length, strings and bools, the retired threads
setting with any integer, and config files whose JSON has the wrong type.
Grids stay at 64 samples and the oracle on a 400-mode bath, so one example
takes milliseconds; a sweep then has one chunk.  The second test also draws
sweeps of 2 or 3 points of at least BUDGET samples on either engine, so each
point is its own chunk, given an ignored --threads of 1 to 4; sweep axes
whose product exceeds MAX_SWEEP_POINTS, which must exit 2 without expanding
their points; and oracle-check on a drawn bath: n_modes and span
inside their bounds, with at most 2000 modes, or outside them.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.cli import COMMANDS, RunConfig, main
from qbattery.oracle import MAX_N_MODES
from qbattery.sweep import AXIS_NAMES, BUDGET, FIGURES, MAX_SWEEP_POINTS

NUMERIC_KEYS = ("delta_A", "delta_B", "delta_L", "omega_drive", "r1", "R", "t_max")
POINT_KEYS = ("delta_A", "delta_B", "delta_L", "omega_drive", "R")

# Log-uniform magnitudes; 10^308.25 is below the largest double.
magnitudes = st.floats(min_value=-320.0, max_value=308.25).map(lambda e: 10.0 ** e)
numbers = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v))

# An amplitude as a number, an [re, im] pair of any length, a string or a bool.
amplitudes = st.one_of(numbers, st.lists(numbers, max_size=3), st.text(max_size=3),
                       st.booleans())
# The retired threads setting: sweep ignores --threads N, every other
# command rejects the flag, and --set threads=N is an unknown key.
thread_counts = st.integers()
# A config file holding JSON of the wrong type: no object at all, or a known
# key holding null, a bool, a string, a list or an object.
wrong_values = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                         st.lists(numbers, max_size=2), st.just({}))
wrong_configs = st.one_of(
    wrong_values,
    st.dictionaries(st.sampled_from(sorted(f.name for f in fields(RunConfig))),
                    wrong_values, min_size=1, max_size=2))
# Out-of-range bath sizes of oracle-check, which needs 100 <= n_modes <=
# MAX_N_MODES, span >= 10 and n_modes >= 40 span: just and far outside.
bad_mode_counts = st.sampled_from([0, 99, MAX_N_MODES + 1, 1e15])
bad_spans = st.one_of(st.floats(max_value=10.0, exclude_max=True, allow_nan=False,
                                allow_infinity=False), st.just(1e308))


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command, "--set", f"n_points={draw(st.integers(2, 64))}"]
    if command == "reproduce":
        return argv + ["--figure", draw(st.sampled_from(sorted(FIGURES)))]
    if command == "oracle-check":
        argv += ["--set", "n_modes=400", "--set", "span=10"]
    if command == "sweep":
        axis = [draw(st.sampled_from(AXIS_NAMES)),
                draw(st.lists(numbers, min_size=1, max_size=3))]
        argv += ["--set", f"axes={json.dumps([axis])}"]
    pairs = draw(st.dictionaries(st.sampled_from(NUMERIC_KEYS), numbers, max_size=4))
    for key, value in pairs.items():
        argv += ["--set", f"{key}={value!r}"]
    return argv


@st.composite
def wrongly_typed_command_lines(draw):
    """A command line of command_lines() with amplitudes, a thread count or
    a config file of the wrong type added; the config as JSON, or None."""
    argv = draw(command_lines())
    amps = draw(st.dictionaries(st.sampled_from(["c01", "c02"]), amplitudes, max_size=2))
    for key, value in amps.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    if draw(st.booleans()):
        argv += draw(st.sampled_from([["--threads"], ["--set", "threads="]]))
        argv[-1] += str(draw(thread_counts))
    config = draw(st.none() | wrong_configs.map(json.dumps))
    return argv, config, (0, 2, 3, 4)


@st.composite
def multi_chunk_sweeps(draw):
    """A sweep of 2 or 3 points of at least BUDGET samples, so each point is
    its own chunk, on either engine, given an ignored --threads."""
    axis = [draw(st.sampled_from(AXIS_NAMES)),
            draw(st.lists(numbers, min_size=2, max_size=3))]
    argv = ["sweep", "--set", f"n_points={draw(st.integers(BUDGET, 2 * BUDGET))}",
            "--set", f"axes={json.dumps([axis])}",
            "--threads", str(draw(st.integers(1, 4))),
            "--engine", draw(st.sampled_from(["closed_form", "pseudomode"]))]
    pairs = draw(st.dictionaries(st.sampled_from(NUMERIC_KEYS), numbers, max_size=4))
    for key, value in pairs.items():
        argv += ["--set", f"{key}={value!r}"]
    return argv, None, (0, 2, 3)


@st.composite
def oracle_baths(draw):
    """oracle-check on a drawn bath size, at a point drawn from [0, 10] on
    up to two physical keys, so that most in-range baths are built and
    propagated.  An in-range bath has at most 2000 modes, so an example
    stays in milliseconds."""
    n_modes = draw(st.integers(400, 2000) | bad_mode_counts)
    span = draw(st.floats(10.0, max(10.0, n_modes / 40.0)) | bad_spans)
    argv = ["oracle-check", "--set", f"n_points={draw(st.integers(2, 64))}",
            "--set", f"n_modes={n_modes!r}", "--set", f"span={span!r}"]
    pairs = draw(st.dictionaries(st.sampled_from(POINT_KEYS), st.floats(0.0, 10.0),
                                 max_size=2))
    for key, value in pairs.items():
        argv += ["--set", f"{key}={value!r}"]
    return argv, None, (0, 2, 3, 4)


@st.composite
def oversized_sweeps(draw):
    """A sweep whose 2 or 3 distinct axes hold more than MAX_SWEEP_POINTS
    points, from just above the cap to about 8 times it: a config error."""
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=2, max_size=3, unique=True))
    smallest = math.floor(MAX_SWEEP_POINTS ** (1.0 / len(names))) + 1
    axes = [[name, list(range(draw(st.integers(smallest, 2 * smallest))))] for name in names]
    return ["sweep", "--set", f"axes={json.dumps(axes)}"], None, (2,)


def _numbers(value):
    """Every number in a parsed JSON value."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


def _non_finite(path: Path) -> list[str]:
    text = path.read_text()
    if path.suffix == ".json":
        cells = list(_numbers(json.loads(text)))
    else:
        cells = [float(cell) for line in text.splitlines()[1:]
                 for cell in line.split(",")]
    return [f"{path.name}: {cell}" for cell in cells if not math.isfinite(cell)]


def _assert_documented_exit(argv, codes=(0, 2, 3, 4)):
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        code = main(argv + ["--out", tmp])
        assert code in codes, err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            assert not [bad for path in sorted(Path(tmp).iterdir())
                        for bad in _non_finite(path)]


@settings(max_examples=60, derandomize=True, deadline=None)
@given(argv=command_lines())
def test_every_input_ends_in_a_documented_exit_code(argv):
    _assert_documented_exit(argv)


@settings(max_examples=180, derandomize=True, deadline=None)
@given(drawn=st.one_of(wrongly_typed_command_lines(), multi_chunk_sweeps(),
                       oversized_sweeps(), oracle_baths()))
def test_wrongly_typed_input_ends_in_a_documented_exit_code(drawn):
    argv, config, codes = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "config.json"
            path.write_text(config)
            argv = argv + ["--config", str(path)]
        _assert_documented_exit(argv, codes)
