"""Tests of the benchmark itself: seeded inputs, the gate and the output schema."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _signature(wl):
    """Everything a run reads from its inputs, as comparable data."""
    out = []
    for case in wl.cases:
        if isinstance(case, workloads.ApiCase):
            p, s = case.protocol, case.state
            h = [p.evaluator(t).tolist() for t in (0.0, p.duration / 3, p.duration)]
            state = s.amplitudes if s.is_pure else s.matrix
            out.append((case.dim, case.pure, p.duration, h, state.tolist()))
        else:
            out.append((case.config, Path(case.path).read_text()))
    return out


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    wl = workloads.make(name, 7, str(tmp_path / "a"))
    first = _signature(wl)
    assert first == _signature(workloads.make(name, 7, str(tmp_path / "b")))
    assert first != _signature(workloads.make(name, 8, str(tmp_path / "c")))
    assert len(first) % wl.cycle == 0


def test_cli_kinds_cycles_every_kind(tmp_path):
    wl = workloads.make("cli_kinds", 3, str(tmp_path))
    cycle = [c.config for c in wl.cases[: wl.cycle]]
    assert {c["kind"] for c in cycle} == set(workloads.CLI_KINDS)
    assert any(c.get("ground_shift_mode") == "global" for c in cycle)
    osc = next(c for c in cycle if c["kind"] == "modulated_oscillator")
    assert osc["dim"] == 8


def test_gate_rejects_broken_theorems():
    qsl = {"tau": 1.0, "tau_ml_quad": 0.5, "tau_ml_lin": 0.8, "slacks": {"mt": 1.0}}
    checks = {name: {"passed": True, "worst_margin": 0.0} for name in workloads.THEOREM_CHECKS}
    assert workloads._gate(qsl, checks, pure=True) == ""
    assert "slack_mt" in workloads._gate(dict(qsl, slacks={"mt": 0.99}), checks, pure=True)
    assert "tau_ml_quad" in workloads._gate(dict(qsl, tau_ml_quad=0.9), checks, pure=True)
    broken = dict(checks, velocity_variance={"passed": False, "worst_margin": -0.1})
    assert "velocity_variance" in workloads._gate(qsl, broken, pure=True)
    assert workloads._gate(qsl, broken, pure=True, audit_theorems=False) == ""
    mixed = {k: v for k, v in checks.items() if k not in workloads.PURE_THEOREM_CHECKS}
    assert workloads._gate(qsl, mixed, pure=False) == ""
    assert "missing" in workloads._gate(qsl, mixed, pure=True)


def test_cli_judge_fails_on_error_exit(tmp_path):
    wl = workloads.make("cli_kinds", 1, str(tmp_path))
    assert not wl.judge(wl.cases[0], 3).ok
    assert not wl.judge(wl.cases[0], 2).ok


def test_api_run_passes_gate():
    wl = workloads.make("corpus", 20260810, "")
    for case in wl.cases[:2]:
        first = wl.judge(case, wl.execute(case))
        assert first.ok, first.reason
        assert first.digest == wl.judge(case, wl.execute(case)).digest


def _bench(tmp_path, workload, trace):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "5"]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--out-dir", str(tmp_path)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_schema_and_gate(tmp_path, trace):
    result = _bench(tmp_path, "cli_kinds", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"]), m["name"]
    if trace:
        assert result["metrics"]["cli.build_protocol_ms"]["value"] > 0
        assert result["metrics"]["qdyn.steps"]["value"] == 2048
        assert list(tmp_path.glob("spans-cli_kinds-seed5.jsonl"))


def test_missing_sources_exit_without_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in ("run.py", "workloads.py", "tracer.py"):
        (tmp_path / "bench" / f).write_text((BENCH / f).read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    cmd = [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])
