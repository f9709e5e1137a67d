"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The shared corpus is 500 seeded runs at N = 2048: dims cycle through 2..6,
pure and mixed initial states alternate, protocols are random smooth
Hermitian drives, and every run is ground-shifted before propagation.

Three of the audited inequalities, and the linear mean-energy bound, are
not theorems under driving, and ordinary runs falsify them: the linear
bound hbar L / E_avg, audit check 4 (phase/mean energy), check 6
(integrated mean energy) and check 7 (overlap/cosine).  A constant
diag(0, 1) qubit with weights (0.75, 0.25) over tau = pi already breaks the
linear bound (the angle is pi/3, the mean energy 1/4, so the claimed
minimum time is 4 pi / 3 > pi) and check 7 (final overlap 0.5 against
cos(pi/4) = 0.707).  For these targets the tests do not assert that the
inequality holds.  They assert the stated criterion faithfully and report
the measured violation rates, which means three things:

1. every applicable run is reported faithfully: bounds, slacks, margins and
   pass flags are the formulas' values, never clipped, strict reports
   raise on a violation, and the side values of the worst violations match
   an independent recomputation from the states and the shifted protocol;
2. the worst violations are genuine: re-propagated at N = 4096 they still
   violate, at the same slack or margin within 1e-3;
3. the corpus holds at least one witness of each falsification (check 6 has
   none in this corpus; its pinned witness lives in ``test_verify.py``).
"""

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from conftest import (
    equal_superposition,
    random_hermitian,
    random_mixed_state,
    random_pure_state,
    random_smooth_protocol,
    rotating_ground,
    two_level_protocol,
)
from qspeed import (
    HamiltonianProtocol,
    QuantumState,
    audit_trajectory,
    build_report,
    bures_increment,
    bures_length,
    check_trig_bound,
    ground_shift,
    propagate,
    step_unitary,
)
from qspeed.cli import ProtocolConfig, fisher_command, main, run_pipeline, sweep_command
from qspeed.errors import BoundViolation

CORPUS_SIZE = 500
CORPUS_STEPS = 2048
CORPUS_SEED = 20260810
AUDIT_TOL = 1e-6
# a falsified target is re-checked on its TOP_K worst runs at FINE_STEPS
FINE_STEPS = 4096
TOP_K = 5
GRID_AGREEMENT = 1e-3
RECOMPUTE_AGREEMENT = 1e-12

BENCH_CONFIG = {
    "kind": "constant",
    "dim": 2,
    "hbar": 1.0,
    "duration": math.pi,
    "steps": 2048,
    "params": {"matrix": [[0, 0], [0, 1]]},
    "initial_state": "equal_superposition",
    "label": "saturating-benchmark",
}

OSC_CONFIG = {
    "kind": "modulated_oscillator",
    "dim": 6,
    "hbar": 1.0,
    "duration": 1.0,
    "steps": 2048,
    "params": {"omega0": 1.0, "pump_rate": 0.0, "squeeze": 0.0},
    "initial_state": {"amplitudes": [0.7071067811865476, 0, 0.7071067811865476, 0, 0, 0]},
    "label": "pumped-ladder",
}


def report_line(num, ok, desc, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {num}: {status} - {desc}{suffix}"
    print(line)
    return line


@dataclass(frozen=True)
class RunSummary:
    index: int
    dim: int
    pure: bool
    tau: float
    report: object
    audit: object
    # the ground-shifted protocol and the initial state, so that any run can
    # be propagated again (at the corpus N or a finer one) without keeping
    # 500 trajectories alive
    protocol: object
    state: object


@pytest.fixture(scope="session")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    runs = []
    t0 = time.perf_counter()
    for i in range(CORPUS_SIZE):
        dim = 2 + i % 5
        pure = i % 2 == 0
        protocol = random_smooth_protocol(rng, dim, label=f"corpus-{i}")
        state = random_pure_state(rng, dim) if pure else random_mixed_state(rng, dim)
        traj = propagate(ground_shift(protocol), state, CORPUS_STEPS)
        runs.append(
            RunSummary(
                index=i,
                dim=dim,
                pure=pure,
                tau=traj.tau,
                report=build_report(traj, strict=False),
                audit=audit_trajectory(traj, tol=AUDIT_TOL),
                protocol=traj.protocol,
                state=state,
            )
        )
    elapsed = time.perf_counter() - t0
    return runs, elapsed


@pytest.fixture(scope="session")
def rerun(corpus):
    """rerun(index, steps) -> the trajectory of corpus run ``index`` at ``steps``."""
    runs, _ = corpus
    cache = {}

    def get(index, steps=CORPUS_STEPS):
        if (index, steps) not in cache:
            run = runs[index]
            cache[index, steps] = propagate(run.protocol, run.state, steps)
        return cache[index, steps]

    return get


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_saturation_benchmark():
    cfg = ProtocolConfig.from_dict(BENCH_CONFIG)
    t0 = time.perf_counter()
    _, report, _, _ = run_pipeline(cfg)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(report.bures - math.pi / 2) <= 1e-6
        and abs(report.tau_mt / report.tau - 1.0) <= 1e-4
        and abs(report.tau_ml_lin / report.tau - 1.0) <= 1e-4
        and elapsed < 1.0
    )
    line = report_line(
        1, ok, "saturation benchmark: angle pi/2, both undriven bounds recovered and saturated",
        f"bures err {abs(report.bures - math.pi/2):.2e}, mt slack {report.slacks['mt']:.6f}, "
        f"ml_lin slack {report.slacks['ml_lin']:.6f}, {elapsed*1e3:.0f} ms",
    )
    assert ok, line


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_variance_route_bound(corpus):
    runs, elapsed = corpus
    bad = [r.index for r in runs if r.report.tau_mt > r.tau * (1 + 1e-6)]
    ok = not bad and elapsed < 120.0
    line = report_line(
        2, ok, "property suite: variance-route bound holds on all 500 runs, runtime < 2 min",
        f"{len(bad)} violations, corpus built in {elapsed:.0f} s",
    )
    assert ok, line


def test_criterion_2_quadratic_energy_bound(corpus):
    runs, _ = corpus
    bad = [r.index for r in runs if r.report.tau_ml_quad > r.tau * (1 + 1e-6)]
    ok = not bad
    line = report_line(
        2, ok, "property suite: quadratic mean-energy bound holds on all 500 runs",
        f"{len(bad)} violations",
    )
    assert ok, line


# (gap, tau, slack of tau_ml_quad at N = 2048) of the driven witness
DRIVEN_WITNESSES = ((50.0, 2.0, 0.03706), (10.0, 1.0, 0.5458))


def test_criterion_2_quadratic_energy_bound_driven_witness():
    # The quadratic bound holds on the corpus above but is not a theorem
    # under driving: a ground state that turns through pi/2 at a fixed
    # spectrum {0, gap} carries |0> a Bures angle of about pi/2 at almost no
    # energy above the ground state (Okuyama & Ohzeki, J. Phys. A 51, 318001
    # (2018)).  As for the linear bound, the test asserts the falsification
    # is reported faithfully and is genuine, not that the bound holds.
    problems, details = [], []
    s0 = QuantumState.pure([1.0, 0.0])
    for gap, tau, slack in DRIVEN_WITNESSES:
        p = ground_shift(HamiltonianProtocol(None, tau, stack=rotating_ground(gap, tau)))
        traj = propagate(p, s0, CORPUS_STEPS)
        rep = build_report(traj, "quadratic", strict=False)
        fine = build_report(propagate(p, s0, FINE_STEPS), "quadratic", strict=False)
        name = f"gap {gap:g}, tau {tau:g}"
        # 1. a violation far below 1 at the measured slack, which a strict
        # report raises, while the variance-route bound holds
        if abs(rep.slacks["ml_quad"] - slack) > 5e-5 or rep.qsl_satisfied:
            problems.append(f"{name}: slack ml_quad {rep.slacks['ml_quad']:.5f}, expected {slack}")
        if not rep.slacks["mt"] >= 1.0:
            problems.append(f"{name}: the variance-route bound fails, slack {rep.slacks['mt']:.6f}")
        try:
            build_report(traj, "quadratic")
            problems.append(f"{name}: strict build_report does not raise BoundViolation")
        except BoundViolation:
            pass
        # 2. the side values match an independent recomputation: L from the
        # endpoint overlap, and <H_t> = gap (1 - |<g_t|psi_t>|^2) at each sample
        ell = math.acos(min(1.0, abs(np.vdot(traj.states[0], traj.states[-1]))))
        s = traj.times / tau
        theta = (math.pi / 2) * (s - np.sin(2 * math.pi * s) / (2 * math.pi))
        overlap = np.cos(theta) * traj.states[:, 0] + np.sin(theta) * traj.states[:, 1]
        mean_e = gap * (1.0 - np.abs(overlap) ** 2)
        energy = np.trapezoid(mean_e, dx=traj.dt)
        if abs(ell - rep.bures) > RECOMPUTE_AGREEMENT or abs(energy - rep.e_avg * tau) > RECOMPUTE_AGREEMENT * gap:
            problems.append(f"{name}: L {rep.bures!r} or the integrated energy {rep.e_avg * tau!r} "
                            f"differs from its recomputation ({ell!r}, {energy!r})")
        # 3. the violation survives a doubled grid at the same slack
        drift = abs(fine.slacks["ml_quad"] - rep.slacks["ml_quad"])
        if fine.qsl_satisfied or drift > GRID_AGREEMENT:
            problems.append(f"{name}: slack {fine.slacks['ml_quad']:.5f} at N = {FINE_STEPS}")
        details.append(f"{name}: slack {rep.slacks['ml_quad']:.5f}, N={FINE_STEPS} drift {drift:.1e}")
    ok = not problems
    line = report_line(
        2, ok, "driven witness: quadratic mean-energy bound is falsified and reported faithfully", "; ".join(details)
    )
    assert ok, "\n".join([line, *problems])


def test_criterion_2_linear_energy_bound_pure_subset(corpus, rerun):
    # The linear bound is not a theorem, so this test asserts that its
    # falsification is reported faithfully, not that it holds.  Exact
    # counterexample: constant diag(0, 1), weights (0.75, 0.25), tau = pi
    # gives angle pi/3 and mean energy 1/4, so the claimed minimum time is
    # (pi/3)/(1/4) = 4 pi / 3 > pi.  Runs whose state is concentrated near
    # the ground level violate it generically.
    runs, _ = corpus
    pure_runs = [r for r in runs if r.pure]
    bad = [r for r in pure_runs if r.report.tau_ml_lin > r.tau * (1 + 1e-6)]
    worst = min(pure_runs, key=lambda r: r.report.slacks["ml_lin"])
    problems = []
    # 1. the bound and its slack are the formulas' values on every pure run
    # (a clipped bound or slack breaks these equalities), and a strict
    # report raises on every violating run
    for r in pure_runs:
        rep = r.report
        if rep.tau_ml_lin != r.protocol.hbar * rep.bures / rep.e_avg or rep.slacks["ml_lin"] != r.tau / rep.tau_ml_lin:
            problems.append(f"run {r.index}: tau_ml_lin or its slack is not the formula's value")
    for r in bad:
        traj = rerun(r.index)
        if build_report(traj, strict=False).to_dict() != r.report.to_dict():
            problems.append(f"run {r.index}: re-propagation does not reproduce the corpus report")
        try:
            build_report(traj)
            problems.append(f"run {r.index}: strict build_report does not raise BoundViolation")
        except BoundViolation:
            pass
    # 2. the worst violations survive a doubled grid at the same slack
    drift = 0.0
    for r in sorted(bad, key=lambda r: r.report.slacks["ml_lin"])[:TOP_K]:
        fine = build_report(rerun(r.index, FINE_STEPS), strict=False)
        drift = max(drift, abs(fine.slacks["ml_lin"] - r.report.slacks["ml_lin"]))
        if not fine.tau_ml_lin > fine.tau * (1 + 1e-6):
            problems.append(f"run {r.index}: no violation at N = {FINE_STEPS}")
    if drift > GRID_AGREEMENT:
        problems.append(f"slack moves by {drift:.2e} > {GRID_AGREEMENT:g} at N = {FINE_STEPS}")
    # 3. the corpus holds a witness
    if not bad:
        problems.append("no pure run falsifies the linear bound")
    ok = not problems
    line = report_line(
        2, ok, "property suite: linear mean-energy bound is falsified on the pure-state subset "
        "and each violation is reported faithfully",
        f"{len(bad)}/{len(pure_runs)} pure runs violate, worst slack {worst.report.slacks['ml_lin']:.4f} "
        f"(run {worst.index}), N={FINE_STEPS} slack drift {drift:.1e}",
    )
    assert ok, "\n".join([line, *problems])


# -- criterion 3 -------------------------------------------------------------

ALL_CHECKS = (
    "velocity_variance",
    "overlap_derivative",
    "sin_velocity",
    "phase_mean_energy",
    "mt_integrated",
    "ml_integrated",
    "overlap_cosine",
)
# Checks 4, 6 and 7 are not theorems under driving.  Checks 4 and 7 replace
# the time-ordered evolution by a phase diagonal in the instantaneous
# eigenbasis; check 6 is derived through check 4, and under the
# instantaneous shift a state that follows the moving ground state travels
# an angle at almost no shifted energy.  Checks 4 and 6 hold for a constant
# H >= 0; check 7 fails even then for a skewed superposition.
FALSIFIABLE_CHECKS = ("phase_mean_energy", "ml_integrated", "overlap_cosine")
# the default corpus holds a witness for these; check 6's is pinned in
# test_verify.py
CORPUS_WITNESSED = ("phase_mean_energy", "overlap_cosine")


def normalized_margins(lhs, rhs):
    lhs, rhs = np.asarray(lhs, float), np.asarray(rhs, float)
    return (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


def independent_sides(name, traj):
    """(times, lhs, rhs) of a falsifiable check at every sample it covers.

    Recomputed from the stored states and the shifted protocol evaluated one
    time at a time, not from the trajectory's H stack (``h_samples``) or its
    observables.
    """
    hs = [traj.protocol.matrix(t) for t in traj.times]
    states = traj.states
    if name == "phase_mean_energy":
        psi0 = states[0]
        lhs = [abs(np.vdot(psi0, h @ s)) for h, s in zip(hs, states)]
        rhs = [np.vdot(s, h @ s).real for h, s in zip(hs, states)]
        return traj.times[1:-1], np.array(lhs[1:-1]), np.array(rhs[1:-1])
    if name == "overlap_cosine":
        psi0 = states[0]
        phase = np.trapezoid([np.vdot(psi0, h @ psi0).real for h in hs], dx=traj.dt) / traj.hbar
        lhs, rhs = abs(math.cos(phase)), abs(np.vdot(psi0, states[-1]))
        return traj.times[-1:], np.array([lhs]), np.array([rhs])
    if name == "ml_integrated":
        rhos = [np.outer(s, s.conj()) for s in states] if traj.is_pure else states
        mean_e = [np.trace(rho @ h).real for h, rho in zip(hs, rhos)]
        if traj.is_pure:
            cos_l = abs(np.vdot(states[0], states[-1]))
        else:
            w, v = np.linalg.eigh(states[0])
            root0 = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
            lam = np.linalg.eigvalsh(root0 @ states[-1] @ root0)
            cos_l = float(np.sqrt(np.clip(lam, 0.0, None)).sum())
        lhs, rhs = 1.0 - cos_l, np.trapezoid(mean_e, dx=traj.dt) / traj.hbar
        return traj.times[-1:], np.array([lhs]), np.array([rhs])
    raise KeyError(name)


def falsifiable_check_problems(name, applicable, rerun):
    """Contract parts 1 and 2 for a falsifiable check; returns (problems, drift)."""
    problems = []
    # 1a. every pass flag and worst margin follows from the reported side
    # values (a clipped margin or a forgiven violation breaks these)
    for r in applicable:
        c = r.audit.check(name)
        if c.passed != (c.worst_margin >= -AUDIT_TOL):
            problems.append(f"run {r.index}: passed={c.passed} at margin {c.worst_margin:+.3e}")
        if abs(c.worst_margin - float(normalized_margins(c.lhs_at_worst, c.rhs_at_worst))) > 1e-15:
            problems.append(f"run {r.index}: worst margin does not follow from the side values")
    drift = 0.0
    for r in sorted(applicable, key=lambda r: r.audit.check(name).worst_margin)[:TOP_K]:
        c = r.audit.check(name)
        # 1b. the side values at the reported time match an independent
        # recomputation, and no sample is worse than the reported one
        traj = rerun(r.index)
        times, lhs, rhs = independent_sides(name, traj)
        k = int(np.flatnonzero(times == c.worst_time)[0])
        if max(abs(lhs[k] - c.lhs_at_worst), abs(rhs[k] - c.rhs_at_worst)) > RECOMPUTE_AGREEMENT:
            problems.append(
                f"run {r.index}: reported sides ({c.lhs_at_worst!r}, {c.rhs_at_worst!r}) at t={c.worst_time!r}, "
                f"recomputed ({lhs[k]!r}, {rhs[k]!r})"
            )
        if float(normalized_margins(lhs, rhs).min()) < c.worst_margin - RECOMPUTE_AGREEMENT:
            problems.append(f"run {r.index}: a sample is worse than the reported worst margin")
        # 2. the verdict and margin survive a doubled grid
        fine = audit_trajectory(rerun(r.index, FINE_STEPS), tol=AUDIT_TOL).check(name)
        drift = max(drift, abs(fine.worst_margin - c.worst_margin))
        if fine.passed != c.passed:
            problems.append(f"run {r.index}: passed={c.passed} at N={CORPUS_STEPS} but {fine.passed} at N={FINE_STEPS}")
    if drift > GRID_AGREEMENT:
        problems.append(f"worst margin moves by {drift:.2e} > {GRID_AGREEMENT:g} at N = {FINE_STEPS}")
    return problems, drift


@pytest.mark.parametrize("name", ALL_CHECKS)
def test_criterion_3_pointwise_audit(corpus, rerun, name):
    runs, _ = corpus
    applicable = [r for r in runs if any(c.name == name for c in r.audit.checks)]
    bad = [r.index for r in applicable if not r.audit.check(name).passed]
    worst = min(applicable, key=lambda r: r.audit.check(name).worst_margin)
    detail = f"{len(bad)}/{len(applicable)} runs violate, worst margin {worst.audit.check(name).worst_margin:+.3e}"
    if name not in FALSIFIABLE_CHECKS:
        # checks 1, 2, 3 and 5 are rigorous and must pass on every run
        ok = not bad
        line = report_line(3, ok, f"pointwise audit '{name}' passes at tol 1e-6 on the corpus", detail)
        assert ok, line
        return
    # checks 4, 6 and 7 are not theorems: assert that each violation is
    # reported faithfully and is genuine, and, for 4 and 7, that the corpus
    # holds a witness
    problems, drift = falsifiable_check_problems(name, applicable, rerun)
    if name in CORPUS_WITNESSED and not bad:
        problems.append(f"no corpus run falsifies '{name}'")
    ok = not problems
    line = report_line(
        3, ok, f"pointwise audit '{name}' (not a theorem under driving) reports each violation faithfully at tol 1e-6",
        f"{detail} (run {worst.index}), N={FINE_STEPS} margin drift {drift:.1e}",
    )
    assert ok, "\n".join([line, *problems])


def test_criterion_3_velocity_equality_on_pure_runs(corpus):
    runs, _ = corpus
    margins = [r.audit.check("velocity_variance").worst_margin for r in runs if r.pure]
    ok = max(margins) <= 1e-3 and min(margins) >= -1e-6
    line = report_line(
        3, ok, "velocity bound is tight (within 1e-3) on pure runs",
        f"margin range [{min(margins):+.2e}, {max(margins):+.2e}]",
    )
    assert ok, line


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_metric_increment_consistency():
    rng = np.random.default_rng(404)
    h_step = 0.04
    orders = []
    gaps = []
    for _ in range(100):
        rho0 = random_mixed_state(rng, 2, floor=0.1)
        gen_a = random_hermitian(rng, 2)
        gen_b = random_hermitian(rng, 2)
        t0 = float(rng.uniform(0.2, 1.0))

        def rho_at(t):
            u = step_unitary(gen_a, math.sin(1.3 * t), 1.0) @ step_unitary(gen_b, t + 0.5 * t * t, 1.0)
            return u @ rho0.matrix @ u.conj().T

        base = QuantumState.mixed(rho_at(t0))

        def gap(dt):
            target = rho_at(t0 + dt)
            ell2 = bures_length(base, QuantumState.mixed(target)) ** 2
            form = bures_increment(base, target - base.matrix)
            return ell2 / form - 1.0

        d1, d2, d4 = gap(h_step), gap(h_step / 2), gap(h_step / 4)
        r1 = 2 * d2 - d1
        r2 = 2 * d4 - d2
        orders.append(math.log2(abs(r1 / r2)))
        gaps.append(abs(d4))
    med = float(np.median(orders))
    frac = float(np.mean(np.asarray(orders) >= 1.8))
    ok = med >= 1.8 and float(np.median(gaps)) < 2e-3 and max(gaps) < 5e-2
    line = report_line(
        4, ok, "metric increment matches finite-difference length, Richardson order >= 1.8",
        f"median order {med:.2f}, {frac:.0%} of 100 trajectories >= 1.8, median rel gap {float(np.median(gaps)):.1e}",
    )
    assert ok, line


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_fisher_demo(tmp_path):
    worst_ref, worst_pair = 0.0, 0.0
    for sigma in (0.5, 1.0, 2.0):
        out = tmp_path / f"fisher_{sigma}.csv"
        assert fisher_command(sigma, str(out)) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
        for row in rows:
            j, ref, wv2 = float(row[1]), float(row[2]), float(row[3])
            worst_ref = max(worst_ref, abs(j / ref - 1.0))
            worst_pair = max(worst_pair, abs(wv2 / j - 1.0))
    ok = worst_ref <= 1e-3 and worst_pair <= 1e-2
    line = report_line(
        5, ok, "Fisher demo: J = 1/sigma^2 within 1e-3 and both routes agree within 1e-2",
        f"worst |J sigma^2 - 1| = {worst_ref:.1e}, worst route mismatch {worst_pair:.1e}",
    )
    assert ok, line


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_ordering_and_trig_bound(corpus):
    runs, _ = corpus
    order_bad = [r.index for r in runs if r.report.tau_ml_quad > r.report.tau_ml_lin + 1e-12]
    xs = np.arange(1e-4, math.pi / 2, 1e-4)
    interior = check_trig_bound(xs)
    trig_ok = (
        float(interior.min()) > 0.0
        and check_trig_bound(0.0) == 0.0
        and abs(check_trig_bound(math.pi / 2)) <= 1e-12
    )
    ok = not order_bad and trig_ok
    line = report_line(
        6, ok, "quadratic <= linear bound on every run; trig bound >= 0 with equality only at ends",
        f"{len(order_bad)} ordering violations, interior trig min {float(interior.min()):.2e}",
    )
    assert ok, line


# -- criterion 7 -------------------------------------------------------------


def test_criterion_7_pump_rate_monotonicity(tmp_path):
    cfg_path = tmp_path / "osc.json"
    cfg_path.write_text(json.dumps(OSC_CONFIG))
    out = tmp_path / "gamma.csv"
    rc = sweep_command(str(cfg_path), "params.pump_rate", [0.0, 0.5, 1.0, 2.0], str(out))
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    e_avg = [float(r[header.index("e_avg")]) for r in rows]
    ml_raw = [float(r[header.index("tau_ml_lin")]) for r in rows]
    # the fixed-angle variant of the linear bound: hbar * L_ref / e_avg
    ml_fixed = [1.0 * (math.pi / 2) / e for e in e_avg]
    energy_ok = all(b > a for a, b in zip(e_avg, e_avg[1:]))
    fixed_ok = all(b <= a for a, b in zip(ml_fixed, ml_fixed[1:]))
    raw_ok = all(b <= a + 1e-6 * max(1.0, a) for a, b in zip(ml_raw, ml_raw[1:]))
    ok = energy_ok and fixed_ok and raw_ok
    line = report_line(
        7, ok, "pump-rate sweep: mean energy strictly increasing, energy-route bound non-increasing",
        f"e_avg {['%.3f' % e for e in e_avg]}, tau_ml_lin {['%.3f' % m for m in ml_raw]}",
    )
    assert ok, line


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_hbar_scaling(tmp_path):
    # formula level: frozen trajectory, hbar swept in the bound evaluation
    traj = propagate(ground_shift(two_level_protocol()), equal_superposition(), 2048)
    base = build_report(replace(traj, hbar=1.0), strict=False)
    worst = 0.0
    for hb in (0.5, 1.0, 2.0):
        rep = build_report(replace(traj, hbar=hb), strict=False)
        for a, b in (
            (rep.tau_mt, base.tau_mt),
            (rep.tau_ml_quad, base.tau_ml_quad),
            (rep.tau_ml_lin, base.tau_ml_lin),
            (rep.tau_qsl, base.tau_qsl),
        ):
            worst = max(worst, abs(a / (hb * b) - 1.0))
    # pipeline level: the pumped-ladder generator H / hbar is fixed, so the
    # trajectory is hbar-independent, averaged energies scale with hbar, and
    # the bound columns cancel hbar exactly
    cfg_path = tmp_path / "osc.json"
    cfg_path.write_text(json.dumps(OSC_CONFIG))
    out = tmp_path / "hbar.csv"
    assert sweep_command(str(cfg_path), "hbar", [0.5, 1.0, 2.0], str(out)) == 0
    lines = out.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    get = lambda col: [float(r[header.index(col)]) for r in rows]
    e_avg, de_avg, mt, bures = get("e_avg"), get("de_avg"), get("tau_mt"), get("bures")
    sweep_worst = max(
        abs(e_avg[1] / (2 * e_avg[0]) - 1.0),
        abs(de_avg[2] / (2 * de_avg[1]) - 1.0),
        abs(mt[0] / mt[2] - 1.0),
        abs(bures[0] / bures[2] - 1.0),
    )
    ok = worst <= 1e-9 and sweep_worst <= 1e-9
    line = report_line(
        8, ok, "hbar scaling: bounds linear in hbar at fixed dynamics, within 1e-9",
        f"formula-level worst {worst:.1e}, sweep-level worst {sweep_worst:.1e}",
    )
    assert ok, line


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "bench.json"
    cfg_path.write_text(json.dumps(BENCH_CONFIG))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["run", str(cfg_path), "-o", str(out1)]) == 0
    assert main(["run", str(cfg_path), "-o", str(out2)]) == 0
    ok = out1.read_bytes() == out2.read_bytes()
    line = report_line(9, ok, "repeated run of the benchmark produces byte-identical JSON")
    assert ok, line
