"""The input contract: every command line ends in a documented exit code.

Any config value may arrive through --set, so the property test drives
qbattery.cli.main over all five commands with numbers from 0 and
+-1e-320 ... 1e308: the exit code is 0, 2, 3 or 4, nothing escapes main, no
floating-point RuntimeWarning is raised, and on exit 0 every number in every
CSV and JSON output is finite.  Grids stay at 64 samples and the oracle on a
400-mode bath, so one example takes milliseconds.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from qbattery.cli import COMMANDS, main
from qbattery.sweep import AXIS_NAMES, FIGURES

NUMERIC_KEYS = ("delta_A", "delta_B", "delta_L", "omega_drive", "lambda",
                "alpha_T", "r1", "R", "t_max")

# Log-uniform magnitudes; 10^308.25 is below the largest double.
magnitudes = st.floats(min_value=-320.0, max_value=308.25).map(lambda e: 10.0 ** e)
numbers = st.one_of(st.just(0.0), magnitudes, magnitudes.map(lambda v: -v))


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


@settings(max_examples=60, derandomize=True, deadline=None)
@given(argv=command_lines())
def test_every_input_ends_in_a_documented_exit_code(argv):
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()) as err:
        warnings.simplefilter("always")
        code = main(argv + ["--out", tmp])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if code == 0:
            assert not [bad for path in sorted(Path(tmp).iterdir())
                        for bad in _non_finite(path)]
