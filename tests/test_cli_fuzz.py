"""Fuzz `qspeed run` in-process over mutated valid configs of all six kinds,
and the float flags `fisher --sigma` and `audit --tol` over arbitrary floats.

Whatever a config or flag holds, `main` must return one of the documented
exit codes (0, 2 config error, 3 numerical error, 4 violation) and never
raise; the flags must also emit no warning.
"""

import copy
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qspeed.cli import main  # noqa: E402

SZ = [[1, 0], [0, -1]]
SX = [[0, 1], [1, 0]]


def config(**fields):
    """A run config at 16 steps, so that one example costs milliseconds."""
    return {"steps": 16, "hbar": 1.0, "label": fields["kind"], **fields}


# one valid config per kind, dim <= 4, each of which exits 0 or 4 unmutated
BASE_CONFIGS = [
    config(
        kind="constant",
        dim=2,
        duration=math.pi,
        params={"matrix": [[0, 0], [0, 1]]},
        initial_state="equal_superposition",
    ),
    config(
        kind="piecewise_const",
        dim=3,
        duration=1.0,
        params={
            "segments": [
                {"matrix": [[0, 1, 0], [1, 0, 0], [0, 0, 2]], "duration": 0.4},
                {"matrix": [[1, 0, {"re": 0, "im": 1}], [0, 0, 0], [{"re": 0, "im": -1}, 0, 2]], "duration": 0.6},
            ]
        },
        initial_state={"amplitudes": [1, 0, 0]},
    ),
    config(
        kind="rabi_qubit",
        dim=2,
        duration=2.0,
        params={"omega0": 1.0, "amplitude": 0.5, "drive_frequency": 1.0},
        initial_state={"amplitudes": [{"re": 0.6, "im": 0}, {"re": 0, "im": 0.8}]},
        ground_shift_mode="global",
    ),
    config(
        kind="landau_zener",
        dim=2,
        duration=4.0,
        params={"sweep_rate": 2.0, "gap": 1.0},
        initial_state="ground",
        ml_mode="quadratic",
    ),
    config(
        kind="modulated_oscillator",
        dim=4,
        duration=1.0,
        params={"omega0": 1.0, "pump_rate": 0.3, "squeeze": 0.0},
        initial_state={"amplitudes": [0.8, 0.6, 0, 0]},
    ),
    config(
        kind="matrix_samples",
        dim=2,
        duration=1.0,
        params={
            "samples": [
                {"t": 0.0, "matrix": SZ},
                {"t": 0.5, "matrix": SX},
                {"t": 1.0, "matrix": [[0, {"re": 0, "im": -1}], [{"re": 0, "im": 1}, 0]]},
            ]
        },
        initial_state={"matrix": [[0.7, 0.1], [0.1, 0.3]]},
        audit_tolerance=1e-6,
    ),
]

EXIT_CODES = {0, 2, 3, 4}
# integers stay small: a large but valid `dim` or `steps` is an expensive
# run, not a malformed one
numbers = (
    st.integers(-3, 40)
    | st.floats(-10.0, 10.0)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0.0, 1e308, -1e308, 5e-324, 10**400])
)
scalars = numbers | st.none() | st.booleans() | st.text(max_size=4) | st.sampled_from(["ground", "global"])
keys = st.sampled_from(["re", "im", "t", "matrix", "duration", "amplitudes", "samples"]) | st.text(max_size=3)
json_values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(keys, children, max_size=3),
    max_leaves=8,
)
# half the mutations write a number, which keeps many configs runnable and
# so reaches the numerical layers, not only the config checks
values = numbers | json_values


def paths(node, prefix=()):
    """Every path into a JSON document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for k, v in node.items():
            yield from paths(v, prefix + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from paths(v, prefix + (i,))


def mutate(doc, path, value, delete):
    """``doc`` with the node at ``path`` replaced by ``value``, or removed."""
    if not path:
        return value
    parent = doc
    for part in path[:-1]:
        parent = parent[part]
    if delete:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_base_configs_run(tmp_path):
    for cfg in BASE_CONFIGS:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "-o", str(tmp_path / "out.json")]) in (0, 4), cfg["kind"]


@hypothesis.settings(derandomize=True, max_examples=60, deadline=None, database=None)
@hypothesis.given(st.data())
def test_mutated_configs_exit_with_a_documented_code(data):
    doc = copy.deepcopy(data.draw(st.sampled_from(BASE_CONFIGS), label="base"))
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        path = data.draw(st.sampled_from(list(paths(doc))), label="path")
        delete = bool(path) and data.draw(st.integers(0, 3), label="delete") == 0
        value = None if delete else data.draw(values, label="value")
        doc = mutate(doc, path, value, delete)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["run", str(cfg), "-o", str(Path(tmp) / "out.json")]) in EXIT_CODES


# any float, plus NaN, infinities, subnormals, huge magnitudes and the
# values at the edges of the valid ranges, which a random draw may miss
flag_floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-310, 1e-320, 1e-154, 1e153, 1e154, 1e-3, 0.5, 1e300, -1e300]
)


@hypothesis.settings(derandomize=True, max_examples=40, deadline=None, database=None)
@hypothesis.given(flag=st.sampled_from(["fisher", "audit"]), value=flag_floats)
def test_float_flags_exit_with_a_documented_code_and_no_warning(flag, value):
    with tempfile.TemporaryDirectory() as tmp:
        out = str(Path(tmp) / "out")
        if flag == "fisher":
            argv = ["fisher", f"--sigma={value!r}", "-o", out]
        else:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(BASE_CONFIGS[0]))
            argv = ["audit", str(cfg), f"--tol={value!r}", "-o", out]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) in EXIT_CODES
