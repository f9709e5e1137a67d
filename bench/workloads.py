"""Seeded workload inputs, the timed pipeline call and the correctness gate.

Every workload is a pool of inputs generated from one seed.  The timed loop
walks the pool in order and only stops at the end of a *cycle*, so every
measured window holds each input class (dimension, pure or mixed, protocol
kind) in the same proportion.

A run is one full pipeline evaluation at N = 2048 steps:
ground shift -> propagate -> build_report -> audit_trajectory, called
through the public API (`corpus`, `large_dim`) or through the in-process
CLI entry point ``qspeed.cli.main(["run", cfg, "-o", out])`` (`cli_kinds`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import qspeed
from qspeed import cli

STEPS = 2048
# Audit checks gated on smooth drives.  ``ml_integrated`` is left out: under
# the instantaneous ground shift a state that follows the moving ground
# state travels a Bures angle at almost no shifted energy, and seeded
# corpora break it (seed 11 input 0: 1 - cos L = 0.1299 against
# 0.1200, the same at N = 2048 and 8192).  It is counted as a finding.
THEOREM_CHECKS = ("velocity_variance", "overlap_derivative", "sin_velocity", "mt_integrated")
PURE_THEOREM_CHECKS = ("overlap_derivative", "sin_velocity")
TOL = 1e-6
CLI_KINDS = (
    "constant",
    "rabi_qubit",
    "landau_zener",
    "piecewise_const",
    "modulated_oscillator",
    "matrix_samples",
)


@dataclass
class Outcome:
    """What the gate learned from one run."""

    ok: bool
    digest: str = ""
    reason: str = ""
    findings: dict = field(default_factory=dict)


@dataclass
class Workload:
    """A seeded input pool plus the callables that run and judge one input.

    ``execute`` is the timed part; ``judge`` reads its result afterwards
    and is never timed.  Input ``i`` belongs to class ``i % cycle``.
    ``ref_dim`` is the dimension of the reference kernel that tracks the
    machine's speed for this workload.
    """

    cases: list
    cycle: int
    ref_dim: int
    fingerprint_runs: int
    execute: Callable
    judge: Callable


# ---------------------------------------------------------------------------
# Random ingredients (the acceptance-corpus recipe)


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / (2.0 * math.sqrt(dim))


def random_pure(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def smooth_drive(rng, dim):
    """Fixed Hermitian part plus two smoothly modulated Hermitian drives.

    Draws in the same order as the acceptance corpus, so the default seed
    reproduces its protocols.
    """
    duration = float(rng.uniform(0.8, 2.5))
    a = random_hermitian(rng, dim)
    b = random_hermitian(rng, dim)
    c = random_hermitian(rng, dim)
    w1, w2 = rng.uniform(0.5, 2.0, size=2)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def evaluator(t):
        return a + math.sin(w1 * t + p1) * b + math.cos(w2 * t + p2) * c

    return evaluator, duration


# ---------------------------------------------------------------------------
# Public-API workloads: corpus and large_dim


@dataclass
class ApiCase:
    dim: int
    pure: bool
    protocol: qspeed.HamiltonianProtocol
    state: qspeed.QuantumState


def api_cases(seed: int, count: int, dim_of: Callable[[int], int], prefix: str) -> list[ApiCase]:
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        dim, pure = dim_of(i), i % 2 == 0
        evaluator, duration = smooth_drive(rng, dim)
        protocol = qspeed.HamiltonianProtocol(evaluator, duration, 1.0, f"{prefix}-{i}", dim)
        if pure:
            state = qspeed.QuantumState.pure(random_pure(rng, dim))
        else:
            state = qspeed.QuantumState.mixed(random_density(rng, dim))
        cases.append(ApiCase(dim, pure, protocol, state))
    return cases


def run_api(case: ApiCase):
    traj = qspeed.propagate(qspeed.ground_shift(case.protocol), case.state, STEPS)
    report = qspeed.build_report(traj, strict=False)
    audit = qspeed.audit_trajectory(traj, tol=TOL)
    return report, audit


def _gate(qsl: dict, checks: dict, pure: bool, audit_theorems: bool = True) -> str:
    """Empty when the theorems hold, else the first broken one.

    ``audit_theorems=False`` keeps only the report-level theorems; the audit
    outcomes are then recorded by :func:`_findings` instead.
    """
    slack_mt = float(qsl["slacks"]["mt"])
    if not slack_mt >= 1.0 - TOL:
        return f"slack_mt {slack_mt!r} < 1 - {TOL:g}"
    if not float(qsl["tau_ml_quad"]) <= float(qsl["tau_ml_lin"]) + 1e-12:
        return "tau_ml_quad > tau_ml_lin"
    if not audit_theorems:
        return ""
    for name in THEOREM_CHECKS:
        if name not in checks:
            if pure or name not in PURE_THEOREM_CHECKS:
                return f"audit check {name} missing"
            continue
        if not checks[name]["passed"]:
            return f"audit check {name} failed (worst margin {checks[name]['worst_margin']!r})"
    return ""


def _findings(qsl: dict, checks: dict, pure: bool) -> dict:
    """Falsified bounds and failed audit checks of one run, as 0/1 counts."""
    tau = float(qsl["tau"])
    out = {"ml_lin_pure": int(pure and float(qsl["tau_ml_lin"]) > tau * (1 + TOL))}
    out.update({name: int(not c["passed"]) for name, c in checks.items()})
    return out


def judge_api(case: ApiCase, result) -> Outcome:
    report, audit = result
    if report is None or audit is None:
        return Outcome(False, reason="no report")
    doc = {"qsl": report.to_dict(), "audit": audit.to_dict()}
    text = json.dumps(doc, sort_keys=True)
    digest = hashlib.sha256(text.encode()).hexdigest()
    checks = {c["name"]: c for c in doc["audit"]["checks"]}
    reason = _gate(doc["qsl"], checks, case.pure)
    return Outcome(not reason, digest, reason, _findings(doc["qsl"], checks, case.pure))


def corpus(seed: int) -> Workload:
    """Acceptance-corpus recipe: dims cycle 2..6, pure and mixed alternate."""
    cases = api_cases(seed, 500, lambda i: 2 + i % 5, "corpus")
    return Workload(cases, cycle=10, ref_dim=4, fingerprint_runs=20, execute=run_api, judge=judge_api)


def large_dim(seed: int) -> Workload:
    """The same recipe at d = 16, pure and mixed alternating."""
    cases = api_cases(seed, 64, lambda i: 16, "large")
    return Workload(cases, cycle=2, ref_dim=16, fingerprint_runs=4, execute=run_api, judge=judge_api)


# ---------------------------------------------------------------------------
# CLI workload: cli_kinds


def encode_matrix(m) -> list:
    """Nested JSON list; complex entries become {"re", "im"} objects."""
    rows = []
    for row in np.asarray(m, dtype=complex):
        rows.append([float(z.real) if z.imag == 0.0 else {"re": float(z.real), "im": float(z.imag)} for z in row])
    return rows


def _state_spec(rng, dim, mixed: bool, support: int | None = None):
    """Random pure amplitudes or density matrix, optionally on the lowest
    ``support`` levels only."""
    k = dim if support is None else support
    if mixed:
        rho = np.zeros((dim, dim), dtype=complex)
        rho[:k, :k] = random_density(rng, k)
        return {"matrix": encode_matrix(rho)}
    amps = np.zeros(dim, dtype=complex)
    amps[:k] = random_pure(rng, k)
    return {"amplitudes": encode_matrix(amps[None, :])[0]}


def cli_config(rng, i: int) -> dict:
    """Config ``i``: kinds cycle through all six; every second round of six
    uses the global ground shift, the quadratic ML mode and mixed states."""
    kind = CLI_KINDS[i % len(CLI_KINDS)]
    alt = (i // len(CLI_KINDS)) % 2 == 1
    cfg = {"kind": kind, "steps": STEPS, "hbar": 1.0, "label": f"{kind}-{i}"}
    if alt:
        cfg["ground_shift_mode"] = "global"
        cfg["ml_mode"] = "quadratic"

    if kind == "constant":
        # the saturating benchmark: tau_mt = pi and slack_mt = 1 exactly
        cfg.update(dim=2, duration=math.pi, params={"matrix": [[0, 0], [0, 1]]}, initial_state="equal_superposition")
    elif kind == "rabi_qubit":
        cfg.update(
            dim=2,
            duration=float(rng.uniform(1.0, 4.0)),
            params={
                "omega0": float(rng.uniform(0.5, 2.0)),
                "amplitude": float(rng.uniform(0.1, 1.0)),
                "drive_frequency": float(rng.uniform(0.5, 3.0)),
            },
            initial_state=_state_spec(rng, 2, alt),
        )
    elif kind == "landau_zener":
        cfg.update(
            dim=2,
            duration=float(rng.uniform(2.0, 6.0)),
            params={"sweep_rate": float(rng.uniform(0.5, 4.0)), "gap": float(rng.uniform(0.2, 1.5))},
            initial_state=_state_spec(rng, 2, True) if alt else "ground",
        )
    elif kind == "piecewise_const":
        # fixed shape, so that every seed costs the same per run; random
        # durations put the segment edges between grid points
        segments, total = [], 0.0
        for _ in range(3):
            sd = float(rng.uniform(0.2, 1.0))
            segments.append({"matrix": encode_matrix(random_hermitian(rng, 3)), "duration": sd})
            total += sd
        cfg.update(
            dim=3,
            duration=total,
            params={"segments": segments},
            initial_state=_state_spec(rng, 3, True) if alt else "equal_superposition",
        )
    elif kind == "modulated_oscillator":
        # population starts on the lowest four of eight levels; without
        # squeezing the ladder never leaks into the top two
        cfg.update(
            dim=8,
            duration=float(rng.uniform(0.5, 1.5)),
            params={"omega0": float(rng.uniform(0.5, 1.5)), "pump_rate": float(rng.uniform(0.0, 2.0)), "squeeze": 0.0},
            initial_state=_state_spec(rng, 8, alt, support=4),
        )
    elif kind == "matrix_samples":
        evaluator, duration = smooth_drive(rng, 6)
        ts = np.linspace(0.0, duration, 33)
        cfg.update(
            dim=6,
            duration=duration,
            params={"samples": [{"t": float(t), "matrix": encode_matrix(evaluator(t))} for t in ts]},
            initial_state=_state_spec(rng, 6, alt),
        )
    return cfg


@dataclass
class CliCase:
    config: dict
    path: str


class CliRunner:
    """Runs ``qspeed run`` in-process and judges the report it writes."""

    def __init__(self, workdir: str):
        self.out = os.path.join(workdir, "report.json")
        self.stderr = io.StringIO()

    def execute(self, case: CliCase):
        with contextlib.redirect_stderr(self.stderr):
            return cli.main(["run", case.path, "-o", self.out])

    def judge(self, case: CliCase, rc) -> Outcome:
        log = self.stderr.getvalue()
        self.stderr.seek(0)
        self.stderr.truncate()
        # exit 4 reports a falsified bound or a failed audit check, which
        # the CLI documents as a valid outcome; 2, 3 or a raise is a failure
        if rc not in (cli.EXIT_OK, cli.EXIT_VIOLATION):
            return Outcome(False, reason=f"exit {rc}: {log.strip()[-200:]}")
        with open(self.out, "rb") as fh:
            raw = fh.read()
        os.remove(self.out)
        doc = json.loads(raw)
        qsl = doc["qsl"]
        checks = {c["name"]: c for c in doc["audit"]["checks"]}
        pure = not doc["audit"]["skipped"]
        reason = _gate(qsl, checks, pure, audit_theorems=False)
        tau = float(qsl["tau"])
        violated = tau < float(qsl["tau_qsl"]) - 1e-6 * tau or not all(c["passed"] for c in checks.values())
        if not reason and violated != (rc == cli.EXIT_VIOLATION):
            reason = f"exit {rc} disagrees with the report (violation: {violated})"
        if not reason and case.config["kind"] == "constant":
            tau_mt, slack = float(qsl["tau_mt"]), float(qsl["slacks"]["mt"])
            if abs(tau_mt - math.pi) > TOL or abs(slack - 1.0) > TOL:
                reason = f"saturating benchmark gave tau_mt {tau_mt!r}, slack_mt {slack!r}"
        return Outcome(not reason, hashlib.sha256(raw).hexdigest(), reason, _findings(qsl, checks, pure))


def cli_kinds(seed: int, workdir: str) -> Workload:
    """Configs for all six built-in kinds, written as JSON files in ``workdir``."""
    rng = np.random.default_rng(seed)
    os.makedirs(workdir, exist_ok=True)
    cases = []
    for i in range(48):
        cfg = cli_config(rng, i)
        path = os.path.join(workdir, f"cfg-{i:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cfg))
        cases.append(CliCase(cfg, path))
    runner = CliRunner(workdir)
    return Workload(
        cases,
        cycle=2 * len(CLI_KINDS),
        ref_dim=4,
        fingerprint_runs=24,
        execute=runner.execute,
        judge=runner.judge,
    )


WORKLOADS = ("corpus", "large_dim", "cli_kinds")


def make(name: str, seed: int, workdir: str) -> Workload:
    if name == "corpus":
        return corpus(seed)
    if name == "large_dim":
        return large_dim(seed)
    if name == "cli_kinds":
        return cli_kinds(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose one of {WORKLOADS}")
