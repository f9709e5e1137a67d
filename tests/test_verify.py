"""Trajectory audits: the inequality chain, trig bound, and variance bound."""

import dataclasses
import math

import numpy as np
import pytest

from conftest import (
    bures_rate,
    equal_superposition,
    random_hermitian,
    random_mixed_state,
    random_pure_state,
    random_smooth_protocol,
    run_random,
    two_level_protocol,
)
from qspeed import (
    HamiltonianProtocol,
    QuantumState,
    audit_trajectory,
    build_report,
    check_trig_bound,
    ground_shift,
    propagate,
)
from qspeed.errors import DomainError, NotFinite

RIGOROUS_CHECKS = ("velocity_variance", "overlap_derivative", "sin_velocity", "mt_integrated")
# not theorems under driving; 4 and 6 hold for a constant Hamiltonian >= 0,
# 7 fails even then for a skewed superposition
FALSIFIABLE_CHECKS = ("phase_mean_energy", "ml_integrated", "overlap_cosine")


class TestTrigBound:
    def test_zero_is_equality(self):
        assert check_trig_bound(0.0) == 0.0

    def test_endpoint_is_equality(self):
        assert abs(check_trig_bound(math.pi / 2)) <= 1e-12

    def test_dense_scan_nonnegative(self):
        xs = np.arange(1e-4, math.pi / 2, 1e-4)
        vals = check_trig_bound(xs)
        assert float(vals.min()) >= 0.0
        assert float(vals.min()) > 0.0  # equality only at the endpoints

    def test_rounding_floor_near_the_ends(self):
        """Where cos x rounds to 1 or x = pi/2, the value sits within eps of 0."""
        xs = np.concatenate([np.linspace(0.0, math.pi / 2, 10**6), [1e-8, 1e-6]])
        assert float(check_trig_bound(xs).min()) >= -np.finfo(float).eps

    def test_nan_is_a_domain_error(self):
        with pytest.raises(DomainError):
            check_trig_bound(math.nan)
        with pytest.raises(DomainError):
            check_trig_bound(np.array([0.5, math.nan]))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            check_trig_bound(2.0)
        with pytest.raises(DomainError):
            check_trig_bound(-0.1)


class TestAuditTrajectory:
    def test_saturating_run_all_pass_with_tight_velocity_margin(self, saturating_run):
        report = audit_trajectory(saturating_run)
        assert report.passed
        vv = report.check("velocity_variance")
        assert -1e-6 <= vv.worst_margin <= 1e-3  # equality case of the velocity bound

    def test_stationary_run_trivially_passes(self):
        traj = propagate(ground_shift(two_level_protocol(duration=3.0)), QuantumState.pure([0.0, 1.0]), 256)
        report = audit_trajectory(traj)
        assert report.passed
        for c in report.checks:
            assert c.worst_margin >= -1e-9

    def test_rigorous_checks_hold_on_random_corpus(self, small_corpus):
        # tolerance matches the N=512 grid; the acceptance suite runs N=2048
        for traj in small_corpus:
            report = audit_trajectory(traj, tol=2e-5)
            for name in RIGOROUS_CHECKS:
                if traj.is_pure or name in ("velocity_variance", "mt_integrated"):
                    assert report.check(name).passed, (name, report.check(name).worst_margin)

    def test_overlap_derivative_margin_exactly_nonnegative(self, small_corpus):
        for traj in small_corpus:
            if traj.is_pure:
                assert audit_trajectory(traj).check("overlap_derivative").worst_margin >= -1e-15

    def test_tilted_superposition_falsifies_overlap_cosine(self):
        # constant diag(0, 1), (0.75, 0.25) weights, tau = pi: the final
        # overlap is 0.5 but cos of the accumulated initial-state phase is
        # cos(pi/4) = 0.707, an O(1) violation of the overlap bound
        state = QuantumState.pure([math.sqrt(0.75), 0.5])
        traj = propagate(ground_shift(two_level_protocol()), state, 2048)
        report = audit_trajectory(traj)
        oc = report.check("overlap_cosine")
        assert not oc.passed
        assert oc.worst_margin == pytest.approx(0.5 - math.cos(math.pi / 4), abs=1e-4)
        assert not report.passed
        # the rigorous members of the chain still hold on the same run, and
        # so does check 6, which is a theorem for a constant Hamiltonian
        for name in (*RIGOROUS_CHECKS, "ml_integrated"):
            assert report.check(name).passed

    def test_ml_integrated_holds_for_constant_hamiltonians(self):
        # for constant H >= 0, |<psi_0|psi_t>| >= sum_k p_k cos(E_k t / hbar)
        # >= 1 - <H> t / hbar, and Uhlmann's theorem carries this to mixed
        # states, so 1 - cos L <= int <H> dt / hbar on every such run
        rng = np.random.default_rng(16)
        for i in range(8):
            dim = 2 + i % 3
            h = random_hermitian(rng, dim, scale=2.0)
            protocol = HamiltonianProtocol(lambda t, h=h: h, float(rng.uniform(0.5, 4.0)), 1.0, "const", dim)
            state = random_pure_state(rng, dim) if i % 2 == 0 else random_mixed_state(rng, dim)
            traj = propagate(ground_shift(protocol), state, 512)
            check = audit_trajectory(traj).check("ml_integrated")
            assert check.passed, (i, check.worst_margin)

    def test_driven_run_falsifies_ml_integrated(self):
        # acceptance-corpus recipe at seed 11, input 0 (d = 2, pure): the
        # state follows the moving ground state, so under the instantaneous
        # shift it travels an angle at almost no shifted energy
        margins = []
        for steps in (2048, 8192):
            rng = np.random.default_rng(11)
            protocol = random_smooth_protocol(rng, 2)
            traj = propagate(ground_shift(protocol), random_pure_state(rng, 2), steps)
            report = audit_trajectory(traj)
            check = report.check("ml_integrated")
            assert not check.passed
            assert check.lhs_at_worst == pytest.approx(0.12991, abs=1e-5)  # 1 - cos L
            assert check.rhs_at_worst == pytest.approx(0.12002, abs=1e-5)  # int <H> dt / hbar
            margins.append(check.worst_margin)
            for name in RIGOROUS_CHECKS:
                assert report.check(name).passed, name
        assert margins[0] == pytest.approx(-9.887e-3, abs=1e-6)
        # a genuine violation, not a discretization artefact
        assert margins[1] == pytest.approx(margins[0], abs=1e-6)

    def test_mixed_run_skips_pure_checks(self, small_corpus):
        traj = next(t for t in small_corpus if not t.is_pure)
        report = audit_trajectory(traj)
        names = [c.name for c in report.checks]
        assert names == ["velocity_variance", "mt_integrated", "ml_integrated"]
        assert set(report.skipped) == {"overlap_derivative", "sin_velocity", "phase_mean_energy", "overlap_cosine"}

    def test_each_check_appears_once(self, saturating_run):
        names = [c.name for c in audit_trajectory(saturating_run).checks]
        assert len(names) == len(set(names)) == 7
        assert set(names) == {*RIGOROUS_CHECKS, *FALSIFIABLE_CHECKS}

    def test_passed_iff_margin_within_tolerance(self, small_corpus):
        for traj in small_corpus[:6]:
            report = audit_trajectory(traj)
            for c in report.checks:
                assert c.passed == (c.worst_margin >= -report.tolerance)

    def test_refining_grid_never_breaks_a_pass(self):
        rng = np.random.default_rng(14)
        for _ in range(4):
            seed = int(rng.integers(0, 2**31))
            coarse = run_random(np.random.default_rng(seed), 3, pure=True, steps=512)
            fine = run_random(np.random.default_rng(seed), 3, pure=True, steps=2048)
            passed_coarse = {c.name: c.passed for c in audit_trajectory(coarse).checks}
            passed_fine = {c.name: c.passed for c in audit_trajectory(fine).checks}
            for name, ok in passed_coarse.items():
                if ok:
                    assert passed_fine[name], name

    def test_too_few_samples(self):
        traj = propagate(ground_shift(two_level_protocol()), QuantumState.pure([1.0, 0.0]), 8)
        with pytest.raises(DomainError, match=r"^audit needs at least 16 samples, got 9$"):
            audit_trajectory(traj)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-6, True, False, np.True_])
    def test_tolerance_must_be_finite_nonnegative(self, saturating_run, tol):
        with pytest.raises(DomainError, match="tolerance"):
            audit_trajectory(saturating_run, tol)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.inf, math.nan])
    def test_hbar_rule_of_build_report(self, hbar):
        """The hbar that ``build_report`` refuses, with its message, before a
        quotient over hbar is formed."""
        traj = propagate(ground_shift(two_level_protocol()), equal_superposition(), 64)
        probe = dataclasses.replace(traj, hbar=hbar)
        for call in (lambda: audit_trajectory(probe), lambda: build_report(probe, strict=False)):
            with pytest.raises(DomainError, match=r"^hbar must be a finite number > 0, got "):
                call()

    @pytest.mark.parametrize("check", ["velocity_variance", "sin_velocity"])
    def test_overflowing_pointwise_quotient_is_named(self, check):
        """At a subnormal hbar, dE / hbar and |<psi_0|H|psi_t>| / hbar
        overflow at every sample while the integrals stay finite: the check
        is named, with no numpy warning, and no margin reads NaN."""
        p = HamiltonianProtocol(lambda t: np.diag([0.0, 10.0]), 4.7104e-305, 6e-309)
        traj = propagate(ground_shift(p), equal_superposition(), 2048)
        if check == "sin_velocity":
            traj = dataclasses.replace(traj, energy_variance=np.zeros_like(traj.energy_variance))
        with pytest.raises(NotFinite, match=f"^a side of the {check} check overflows a float or is NaN$"):
            audit_trajectory(traj)

    def test_zero_tolerance_is_an_exact_check(self, saturating_run):
        report = audit_trajectory(saturating_run, 0.0)
        assert report.tolerance == 0.0
        for c in report.checks:
            assert c.passed == (c.worst_margin >= 0.0)

    def test_unknown_check_name_raises_key_error(self, saturating_run):
        with pytest.raises(KeyError, match="nope"):
            audit_trajectory(saturating_run).check("nope")

    def test_report_serialization(self, saturating_run):
        doc = audit_trajectory(saturating_run).to_dict()
        assert set(doc) == {"checks", "tolerance", "trajectory_label", "skipped"}
        fields = ["name", "worst_margin", "worst_time", "passed", "samples_checked", "lhs_at_worst", "rhs_at_worst"]
        # key order is part of the byte-identical report; extra entries come last
        assert list(doc["checks"][0]) == [*fields, "velocity_sign_changes"]
        for entry in doc["checks"][1:]:
            assert list(entry) == fields


def variance_margin(traj):
    """Worst <dH_t^2>/hbar^2 - (d_t L)^2 over the interior samples: the
    squared form of the audit's velocity_variance check."""
    return float(np.min(traj.energy_variance[1:-1] / traj.hbar**2 - bures_rate(traj) ** 2))


class TestFisherVarianceBound:
    def test_pure_run_margin_near_zero(self, saturating_run):
        margin = variance_margin(saturating_run)
        assert -1e-6 <= margin <= 1e-3

    def test_maximally_mixed_margin_is_variance(self):
        rng = np.random.default_rng(15)
        p = random_smooth_protocol(rng, 3, duration=1.5)
        traj = propagate(ground_shift(p), QuantumState.mixed(np.eye(3) / 3), 512)
        margin = variance_margin(traj)
        assert margin == pytest.approx(float(traj.energy_variance[1:-1].min()), rel=1e-4)
        assert margin > 0.0

    def test_random_mixed_runs_nonnegative(self, small_corpus):
        for traj in small_corpus:
            if not traj.is_pure:
                assert variance_margin(traj) >= -1e-6

    def test_too_few_samples(self):
        traj = propagate(ground_shift(two_level_protocol()), QuantumState.pure([1.0, 0.0]), 4)
        with pytest.raises(DomainError, match=r"^audit needs at least 16 samples, got 5$"):
            audit_trajectory(traj)
