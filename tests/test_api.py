"""The public API: exactly the names the pipeline and its consumers use."""

import importlib
import inspect
import math
import re
from pathlib import Path

import pytest

import qspeed
import qspeed.cli
from qspeed import bounds, geometry, qdyn, verify

PUBLIC = [
    "AuditReport",
    "CheckResult",
    "DistributionTrack",
    "HamiltonianProtocol",
    "QSLReport",
    "QuantumState",
    "Trajectory",
    "__version__",
    "audit_trajectory",
    "build_report",
    "bures_increment",
    "bures_length",
    "check_trig_bound",
    "errors",
    "fidelity",
    "fisher_information_1d",
    "ground_shift",
    "propagate",
    "qsl_time",
    "statistical_velocity_sq",
    "step_unitary",
    "tau_ml_linear",
    "tau_ml_quadratic",
    "tau_mt",
    "time_avg_energy_variance",
    "time_avg_mean_energy",
    "validate_state",
    "wootters_angle",
]

CLI = [
    "ProtocolConfig",
    "audit_command",
    "build_protocol",
    "fisher_command",
    "gaussian_shift_track",
    "initial_state",
    "main",
    "run_command",
    "run_pipeline",
    "sweep_command",
]

# per-state or per-index copies of what propagate and the audit compute
DELETED = [
    "mean_energy",
    "energy_variance",
    "dynamical_velocity",
    "dynamical_velocity_signed",
    "fisher_variance_bound",
    "EigenSystem",
    "eigensystem",
    "BuresIncrement",
]


def test_public_names():
    assert sorted(qspeed.__all__) == PUBLIC


def test_each_public_name_is_listed_once_in_its_module():
    listed = ["__version__", "errors", *qdyn.__all__, *geometry.__all__, *bounds.__all__, *verify.__all__]
    assert qspeed.__all__ == listed
    assert len(set(listed)) == len(listed)


@pytest.mark.parametrize("module", [qdyn, geometry, bounds, verify], ids=lambda m: m.__name__)
def test_exported_definitions_live_in_their_module(module):
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__, f"{module.__name__}.{name}"


def test_cli_names():
    assert sorted(qspeed.cli.__all__) == CLI
    # sweep_command takes the config field and values directly
    assert not hasattr(qspeed.cli, "SweepSpec")


@pytest.mark.parametrize("module", ["qspeed", "qspeed.qdyn", "qspeed.geometry", "qspeed.bounds", "qspeed.verify", "qspeed.cli"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    for name in mod.__all__:
        assert hasattr(mod, name), f"{module}.{name}"


@pytest.mark.parametrize("name", DELETED)
def test_deleted_helper_not_importable(name):
    assert not hasattr(qspeed, name)
    with pytest.raises(ImportError):
        exec(f"from qspeed import {name}", {})


def test_single_path_signatures():
    # the hbar probe is build_report(dataclasses.replace(traj, hbar=h)), and
    # a track is built from its density table
    assert list(inspect.signature(qspeed.build_report).parameters) == ["traj", "mode", "strict"]
    assert not hasattr(qspeed.DistributionTrack, "from_function")


def test_deleted_error_classes():
    assert not hasattr(qspeed.errors, "IndexOutOfRange")
    assert not hasattr(qspeed.errors, "PureCheckOnMixedRun")
    # steps < 2 is a DomainError, as every other refusal of qdyn.step_size
    assert not hasattr(qspeed.errors, "StepCountTooSmall")


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_block(heading, language):
    """The first ``language`` code block under the README section ``heading``."""
    section = README.read_text().split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_quick_start_prints_what_its_comment_says(capsys):
    """The quick start's run has tau_mt = tau_ml_lin = pi and an MT slack of 1,
    and its audit passes."""
    ns = {}
    exec(readme_block("## Library quick start", "python"), ns)
    report = ns["report"]
    for value, expected in ((report.tau_mt, math.pi), (report.tau_ml_lin, math.pi), (report.slacks["mt"], 1.0)):
        assert abs(value - expected) <= 1e-9
    assert ns["audit"].passed is True
    assert capsys.readouterr().out.split()[-1] == "True"


def test_readme_run_config_runs(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(readme_block("### Run configuration", "json"))
    assert qspeed.cli.main(["run", str(config), "-o", str(tmp_path / "report.json")]) == 0
