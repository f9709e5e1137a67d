"""Time-averaged energies, the three bound formulas, and report assembly."""

import math
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    equal_superposition,
    run_random,
    two_level_protocol,
)
from qspeed import (
    HamiltonianProtocol,
    QuantumState,
    build_report,
    ground_shift,
    propagate,
    qsl_time,
    tau_ml_linear,
    tau_ml_quadratic,
    tau_mt,
    time_avg_energy_variance,
    time_avg_mean_energy,
)
from qspeed.errors import BoundViolation, DomainError, NegativeEnergy, NotFinite


def skewed_two_level_run(p_ground=0.75, steps=2048):
    """Constant diag(0, 1) with a tilted superposition; breaks the linear
    mean-energy bound while the variance and quadratic bounds hold."""
    state = QuantumState.pure([math.sqrt(p_ground), math.sqrt(1.0 - p_ground)])
    return propagate(ground_shift(two_level_protocol()), state, steps)


class TestTimeAverages:
    def test_constant_mean(self, saturating_run):
        assert time_avg_mean_energy(saturating_run) == pytest.approx(0.5, abs=1e-12)

    def test_eigenstate_zero_mean(self):
        traj = propagate(ground_shift(two_level_protocol()), QuantumState.pure([1.0, 0.0]), 64)
        assert time_avg_mean_energy(traj) == pytest.approx(0.0, abs=1e-12)

    def test_linear_ramp_exact_trapezoid(self):
        c, tau = 0.8, 2.0
        p = HamiltonianProtocol(lambda t: np.diag([0.0, 2.0 * c * t]).astype(complex), tau)
        traj = propagate(p, equal_superposition(), 256)
        assert time_avg_mean_energy(traj) == pytest.approx(c * tau / 2, abs=1e-8)

    def test_negative_energy_flags_missing_shift(self):
        h = np.diag([-2.0, 1.0]).astype(complex)
        p = HamiltonianProtocol(lambda t: h, 1.0)
        traj = propagate(p, equal_superposition(), 64)
        with pytest.raises(NegativeEnergy):
            time_avg_mean_energy(traj)

    def test_constant_variance(self, saturating_run):
        assert time_avg_energy_variance(saturating_run) == pytest.approx(0.5, abs=1e-12)

    def test_stationary_variance_zero(self):
        traj = propagate(ground_shift(two_level_protocol()), QuantumState.pure([1.0, 0.0]), 64)
        assert time_avg_energy_variance(traj) == pytest.approx(0.0, abs=1e-12)

    def test_variance_average_against_finer_grid(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            seed = int(rng.integers(0, 2**31))
            coarse = run_random(np.random.default_rng(seed), 2, pure=True, steps=512)
            fine = run_random(np.random.default_rng(seed), 2, pure=True, steps=2048)
            assert time_avg_energy_variance(coarse) == pytest.approx(
                time_avg_energy_variance(fine), rel=1e-4
            )


class TestBoundFormulas:
    def test_mt_recovers_undriven_value(self):
        # L = pi/2 with spread E/2 gives the classic pi hbar / E
        assert tau_mt(math.pi / 2, 0.5, 1.0) == pytest.approx(math.pi)

    def test_mt_trivial_cases(self):
        assert tau_mt(0.0, 1.0, 1.0) == 0.0
        assert tau_mt(math.pi / 4, 1.0, 1.0) == pytest.approx(math.pi / 4)
        assert tau_mt(0.3, 0.0, 1.0) == math.inf

    def test_mt_domain_error(self):
        with pytest.raises(DomainError):
            tau_mt(2.0, 1.0, 1.0)

    def test_ml_quadratic_substitution(self):
        assert tau_ml_quadratic(math.pi / 2, 0.5, 1.0) == pytest.approx(2.0)
        assert tau_ml_quadratic(0.0, 1.0, 1.0) == 0.0
        assert tau_ml_quadratic(0.3, 0.0, 1.0) == math.inf

    def test_ml_quadratic_prefactor_below_two_over_pi(self):
        ell, e_avg = math.pi / 2, 0.5
        ours = tau_ml_quadratic(ell, e_avg, 1.0)
        looser = (2.0 / math.pi) * ell**2 / e_avg
        assert ours < looser

    def test_ml_quadratic_negative_energy(self):
        with pytest.raises(NegativeEnergy):
            tau_ml_quadratic(0.3, -1.0, 1.0)

    def test_ml_linear_recovers_undriven_value(self):
        assert tau_ml_linear(math.pi / 2, 0.5, 1.0) == pytest.approx(math.pi)
        assert tau_ml_linear(0.0, 1.0, 1.0) == 0.0

    def test_quadratic_never_exceeds_linear(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            ell = float(rng.uniform(0.0, math.pi / 2))
            e_avg = float(rng.uniform(1e-3, 10.0))
            hbar = float(rng.uniform(0.1, 3.0))
            assert tau_ml_quadratic(ell, e_avg, hbar) <= tau_ml_linear(ell, e_avg, hbar) + 1e-12

    def test_qsl_saturating_case_both_branches(self):
        for mode in ("linear", "quadratic"):
            val = qsl_time(math.pi / 2, 0.5, 0.5, 1.0, mode)
            assert val == pytest.approx(math.pi)

    def test_qsl_variance_branch_dominates(self):
        assert qsl_time(0.5, 10.0, 0.1, 1.0) == pytest.approx(tau_mt(0.5, 0.1, 1.0))

    @pytest.mark.parametrize("formula", [tau_mt, tau_ml_linear, tau_ml_quadratic])
    def test_nan_energy_is_not_finite(self, formula):
        with pytest.raises(NotFinite):
            formula(0.5, math.nan, 1.0)

    def test_infinite_spread_is_not_finite(self):
        with pytest.raises(NotFinite):
            tau_mt(0.5, math.inf, 1.0)

    @pytest.mark.parametrize("hbar", [math.nan, -1.0, 0.0, math.inf, True, np.True_])
    def test_hbar_must_be_finite_positive(self, hbar):
        for formula in (tau_mt, tau_ml_linear, tau_ml_quadratic):
            with pytest.raises(DomainError, match="hbar"):
                formula(0.5, 1.0, hbar)

    @pytest.mark.parametrize("formula", [tau_mt, tau_ml_linear, tau_ml_quadratic])
    def test_one_input_rule_for_every_formula(self, formula):
        for ell in (2.0, -1e-6, math.nan):
            with pytest.raises(DomainError, match="Bures angle"):
                formula(ell, 1.0, 1.0)
        # hbar and a NaN rate: test_hbar_must_be_finite_positive and test_nan_energy_is_not_finite
        for rate in (math.inf, -math.inf):
            with pytest.raises(NotFinite):
                formula(0.5, rate, 1.0)
        for rate in (-1e-6, -2.0):
            with pytest.raises(NegativeEnergy):
                formula(0.5, rate, 1.0)
        # rounding noise below zero is clamped, not rejected
        assert formula(0.0, -1e-12, 1.0) == 0.0
        assert formula(0.5, -1e-12, 1.0) == math.inf

    @pytest.mark.parametrize("mode", ["cubic", None, ["linear"]])
    def test_qsl_unknown_mode(self, mode):
        with pytest.raises(DomainError, match="mode"):
            qsl_time(0.5, 1.0, 1.0, 1.0, mode)

    def test_quadratic_bound_finite_when_both_products_overflow(self):
        # 4 hbar L^2 and pi^2 E_avg both overflow; their ratio is 4 / pi^2
        assert tau_ml_quadratic(1.0, 1e308, 1e308) == pytest.approx(4.0 / math.pi**2, rel=1e-15)

    @pytest.mark.parametrize("hbar", [1e300, 1e308, 1.5e308, 1.7e308])
    @pytest.mark.parametrize("ell, rate", [(1.5, 1.0), (1.5, 10.0), (0.3, 1e300), (1.5, 1e308)])
    def test_no_time_overflows_on_the_way(self, hbar, ell, rate):
        """hbar L, 4 hbar and pi^2 rate may overflow, the time does not (nor
        does it underflow to 0 through pi^2 rate): it is the exact ratio
        within rounding, and inf only above the float range."""
        e, h, r = Fraction(ell), Fraction(hbar), Fraction(rate)
        exact = {
            tau_mt: h * e / r,
            tau_ml_linear: h * e / r,
            tau_ml_quadratic: 4 * h * e * e / (Fraction(math.pi**2) * r),
        }
        for formula, value in exact.items():
            t = formula(ell, rate, hbar)
            if value > sys.float_info.max:
                assert t == math.inf, formula
            else:
                assert t == pytest.approx(float(value), rel=1e-15, abs=0.0), formula

    @pytest.mark.parametrize("ell, rate, hbar", [(1.5, 1e-300, 5e-324), (0.3, 1e-300, 1e-310), (1.5, 1e-250, 1e-300)])
    def test_no_time_underflows_on_the_way(self, ell, rate, hbar):
        """A subnormal hbar, or hbar L near the bottom of the float range,
        loses no digits: the time is the exact ratio within rounding."""
        e, h, r = Fraction(ell), Fraction(hbar), Fraction(rate)
        exact = {
            tau_mt: h * e / r,
            tau_ml_linear: h * e / r,
            tau_ml_quadratic: 4 * h * e * e / (Fraction(math.pi**2) * r),
        }
        for formula, value in exact.items():
            assert formula(ell, rate, hbar) == pytest.approx(float(value), rel=1e-15, abs=0.0), formula

    def test_qsl_linear_in_hbar(self):
        base = qsl_time(0.7, 1.3, 0.9, 1.0)
        assert qsl_time(0.7, 1.3, 0.9, 2.0) == pytest.approx(2.0 * base, rel=1e-12)


class TestBuildReport:
    def test_saturating_slack_one(self, saturating_run):
        report = build_report(saturating_run)
        assert report.slacks["mt"] == pytest.approx(1.0, abs=1e-4)
        assert report.slacks["ml_lin"] == pytest.approx(1.0, abs=1e-4)
        assert report.tau_qsl == pytest.approx(report.tau, rel=1e-4)
        assert report.qsl_satisfied

    def test_stationary_run_all_bounds_zero(self):
        traj = propagate(ground_shift(two_level_protocol()), QuantumState.pure([1.0, 0.0]), 64)
        report = build_report(traj)
        assert report.bures == 0.0
        assert report.tau_mt == report.tau_ml_quad == report.tau_ml_lin == report.tau_qsl == 0.0
        assert report.slack_min == math.inf

    def test_mixed_four_level_corpus_slacks(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            traj = run_random(rng, 4, pure=False)
            report = build_report(traj, strict=False)
            assert report.slacks["mt"] >= 1.0 - 1e-6
            assert report.slacks["ml_quad"] >= 1.0 - 1e-6
            assert report.slacks["ml_lin"] >= 1.0 - 1e-6

    def test_linear_bound_falsified_by_tilted_superposition(self):
        # analytically: L = pi/3, E_avg = 1/4, so the linear bound is 4 pi / 3 > pi
        traj = skewed_two_level_run()
        with pytest.raises(BoundViolation):
            build_report(traj)
        report = build_report(traj, strict=False)
        assert report.tau_ml_lin == pytest.approx(4.0 * math.pi / 3.0, rel=1e-6)
        assert not report.qsl_satisfied
        assert report.slacks["ml_lin"] == pytest.approx(0.75, rel=1e-6)
        # the variance and quadratic bounds hold on the same run
        assert report.slacks["mt"] >= 1.0
        assert report.slacks["ml_quad"] >= 1.0

    def test_quadratic_mode_passes_where_linear_fails(self):
        traj = skewed_two_level_run()
        report = build_report(traj, mode="quadratic")
        assert report.qsl_satisfied
        assert report.tau_qsl == pytest.approx(report.tau_mt)

    def test_hbar_override_scales_bounds_linearly(self, saturating_run):
        base = build_report(saturating_run)
        for hb in (0.5, 2.0, 3.0):
            scaled = build_report(replace(saturating_run, hbar=hb), strict=False)
            assert scaled.tau_mt == pytest.approx(hb * base.tau_mt, rel=1e-12)
            assert scaled.tau_ml_quad == pytest.approx(hb * base.tau_ml_quad, rel=1e-12)
            assert scaled.tau_ml_lin == pytest.approx(hb * base.tau_ml_lin, rel=1e-12)

    def test_negative_hbar_is_a_domain_error(self, saturating_run):
        with pytest.raises(DomainError, match="hbar"):
            build_report(replace(saturating_run, hbar=-1.0), strict=False)

    def test_report_serialization_keys(self, saturating_run):
        doc = build_report(saturating_run).to_dict()
        # key order is part of the byte-identical report
        assert list(doc) == [
            "tau", "bures", "e_avg", "de_avg",
            "tau_mt", "tau_ml_quad", "tau_ml_lin", "tau_qsl", "slacks",
        ]
        assert list(doc["slacks"]) == ["mt", "ml_quad", "ml_lin"]

    def test_slacks_derived_from_the_bounds(self):
        report = build_report(skewed_two_level_run(), strict=False)
        assert list(report.slacks) == ["mt", "ml_quad", "ml_lin"]
        taus = (report.tau_mt, report.tau_ml_quad, report.tau_ml_lin)
        assert list(report.slacks.values()) == [report.tau / t for t in taus]
        assert report.slack_min == min(report.slacks.values()) == report.slacks["ml_lin"]
