"""Fidelity, Bures angle, statistical distance, Fisher information, velocity."""

import math

import numpy as np
import pytest

from conftest import (
    bures_rate,
    random_hermitian,
    random_mixed_state,
    random_pure_state,
    random_unitary,
    run_random,
    two_level_protocol,
)
from qspeed import (
    DistributionTrack,
    HamiltonianProtocol,
    QuantumState,
    bures_increment,
    bures_length,
    fidelity,
    fisher_information_1d,
    ground_shift,
    propagate,
    statistical_velocity_sq,
    step_unitary,
    wootters_angle,
)
from qspeed.errors import (
    DimensionMismatch,
    DomainError,
    GridMismatch,
    NotFinite,
    NotHermitian,
    NotNormalized,
)


def gaussian_track(sigma, n_params=121, step=0.005, grid_points=3001, speed=1.0):
    """Means mu(t) = speed * t on a grid wide enough for tight normalization."""
    ts = (np.arange(n_params) - 1) * step
    lo = min(0.0, speed * ts[0]) - 8.0 * sigma
    hi = max(0.0, speed * ts[-1]) + 8.0 * sigma
    grid = np.linspace(lo, hi, grid_points)
    dens = np.exp(-((grid - speed * ts[:, None]) ** 2) / (2 * sigma**2)) / (sigma * math.sqrt(2 * math.pi))
    return DistributionTrack(grid, ts, dens)


class TestFidelity:
    def test_identical_states(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3, 5):
            rho = random_mixed_state(rng, dim)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-12)

    def test_commuting_diagonal(self):
        a = QuantumState.mixed(np.diag([1.0, 0.0]))
        for p in (0.2, 0.5, 0.9):
            b = QuantumState.mixed(np.diag([p, 1.0 - p]))
            assert fidelity(a, b) == pytest.approx(p, abs=1e-12)

    def test_pure_reduction_to_overlap(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a = random_pure_state(rng, 2)
            b = random_pure_state(rng, 2)
            expected = abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2
            assert fidelity(a, b) == pytest.approx(expected, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a = random_mixed_state(rng, dim)
            b = random_mixed_state(rng, dim)
            assert abs(fidelity(a, b) - fidelity(b, a)) <= 1e-9

    def test_range_and_distinguishability(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            dim = int(rng.integers(2, 5))
            a = random_mixed_state(rng, dim)
            b = random_mixed_state(rng, dim)
            f = fidelity(a, b)
            assert 0.0 <= f <= 1.0
            if np.max(np.abs(a.matrix - b.matrix)) > 1e-4:
                assert f < 1.0 - 1e-10

    def test_unitary_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            dim = int(rng.integers(2, 5))
            a = random_mixed_state(rng, dim)
            b = random_mixed_state(rng, dim)
            u = random_unitary(rng, dim)
            ua = QuantumState.mixed(u @ a.matrix @ u.conj().T)
            ub = QuantumState.mixed(u @ b.matrix @ u.conj().T)
            assert fidelity(ua, ub) == pytest.approx(fidelity(a, b), abs=1e-9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            fidelity(QuantumState.pure([1.0, 0.0]), QuantumState.pure([1.0, 0.0, 0.0]))


class TestBuresLength:
    def test_identical(self):
        s = QuantumState.pure([1.0, 0.0])
        assert bures_length(s, s) == 0.0

    def test_orthogonal(self):
        a = QuantumState.pure([1.0, 0.0])
        b = QuantumState.pure([0.0, 1.0])
        assert bures_length(a, b) == pytest.approx(math.pi / 2, abs=1e-12)

    def test_bloch_angle_halving(self):
        a = QuantumState.pure([1.0, 0.0])
        for theta in (0.3, 1.0, 2.0, 3.0):
            b = QuantumState.pure([math.cos(theta / 2), math.sin(theta / 2)])
            assert bures_length(a, b) == pytest.approx(theta / 2, abs=1e-10)


class TestWoottersAngle:
    def test_identical(self):
        track = gaussian_track(1.0)
        p = track.densities[0]
        assert wootters_angle(p, p, track.spacing) == pytest.approx(0.0, abs=1e-7)

    def test_disjoint_supports(self):
        h = 0.01
        grid = np.arange(0.0, 2.0, h)
        p0 = np.where(grid < 1.0, 1.0, 0.0)
        p1 = np.where(grid >= 1.0, 1.0, 0.0)
        assert wootters_angle(p0 / (p0.sum() * h), p1 / (p1.sum() * h), h) == pytest.approx(math.pi / 2)

    def test_gaussian_gap_closed_form(self):
        # overlap of two unit-variance Gaussians separated by mu, by quadrature
        h = 0.002
        grid = np.arange(-12.0, 14.0, h)

        def gauss(mu):
            p = np.exp(-((grid - mu) ** 2) / 2) / math.sqrt(2 * math.pi)
            return p / (p.sum() * h)

        for mu in (0.5, 1.0, 2.0):
            angle = wootters_angle(gauss(0.0), gauss(mu), h)
            assert angle == pytest.approx(math.acos(math.exp(-(mu**2) / 8)), abs=1e-6)
        # an angle of ~3.5e-7 to full precision: arccos of an overlap within
        # eps of 1 gets only its first three digits right
        angle = wootters_angle(gauss(0.0), gauss(1e-6), h)
        assert angle == pytest.approx(2.0 * math.asin(math.sqrt(-math.expm1(-1e-12 / 8) / 2)), rel=1e-9)

    def test_large_densities_do_not_overflow(self):
        # p0 * p1 would be 1e400; the RuntimeWarning is an error in this suite
        assert wootters_angle([1e200, 1e200], [1e200, 1e200], 5e-201) == 0.0

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            wootters_angle(np.ones(4) / 4, np.ones(5) / 5, 1.0)

    def test_rejects_negative_entry(self):
        # normalized, but sqrt of the negative cell mass would be NaN
        with pytest.raises(NotNormalized, match="negative entry -5.000e-01"):
            wootters_angle([1.5, -0.5], [0.5, 0.5], 1.0)

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            wootters_angle(np.ones(4), np.ones(4) / 4, 1.0)
        with pytest.raises(NotNormalized):
            wootters_angle([1.7e308, 1.7e308], [0.5, 0.5], 1.0)  # the sum overflows
        with pytest.raises(NotNormalized):
            wootters_angle([1.7e308, 1.7e308], [0.5, 0.5], 0.0)  # and inf * 0 is NaN

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        half = [0.5, 0.5]
        for p0, p1, h in (([bad, 1.0], half, 1.0), (half, [1.0, bad], 1.0), (half, half, bad)):
            with pytest.raises(NotFinite):
                wootters_angle(p0, p1, h)


class TestDistributionTrack:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        grid = np.linspace(0.0, 1.0, 11)
        ts = np.array([0.0, 0.1, 0.2])
        dens = np.ones((3, 11)) / 1.1
        for field, arr in (("grid", grid), ("parameter_values", ts), ("densities", dens)):
            arr = arr.copy()
            arr.flat[1] = bad
            args = {"grid": grid, "parameter_values": ts, "densities": dens, field: arr}
            with pytest.raises(NotFinite, match=field):
                DistributionTrack(**args)
        with pytest.raises(NotFinite, match="densities"):
            DistributionTrack(grid, ts, np.full((3, 11), bad))

    def test_overflowing_spacing_or_norm_named(self):
        with pytest.raises(NotFinite, match="spacing"):
            DistributionTrack(np.array([-1.7e308, 1.7e308]), np.array([0.0]), np.array([[0.5, 0.5]]))
        with pytest.raises(NotNormalized):
            DistributionTrack(np.array([0.0, 1.0]), np.array([0.0]), np.array([[1.7e308, 1.7e308]]))

    def test_empty_family_is_a_grid_mismatch(self):
        with pytest.raises(GridMismatch, match="parameter_values"):
            DistributionTrack(np.linspace(0.0, 1.0, 3), np.array([]), np.zeros((0, 3)))

    @pytest.mark.parametrize(
        "grid, dens, match",
        [
            (np.linspace(0.0, 1.0, 4).reshape(2, 2), np.ones((1, 4)) / 1.0, "1-D"),
            (np.array([0.0]), np.ones((1, 1)), "at least 2 points"),
            (np.array([0.0, 1.0, 3.0]), np.ones((1, 3)) / 3.0, "uniform"),
            (np.linspace(0.0, 1.0, 3), np.ones((1, 4)), r"densities shape \(1, 4\)"),
        ],
        ids=["grid_2d", "grid_one_point", "grid_non_uniform", "densities_shape"],
    )
    def test_grid_shape_is_a_grid_mismatch(self, grid, dens, match):
        with pytest.raises(GridMismatch, match=match):
            DistributionTrack(grid, np.array([0.0]), dens)


class TestFisherInformation:
    def test_inverse_width_sigma_2(self):
        track = gaussian_track(2.0)
        j = fisher_information_1d(track, 0.25)
        assert j == pytest.approx(0.25, abs=1e-3)

    def test_static_family_zero(self):
        grid = np.linspace(-8, 8, 1001)
        p = np.exp(-(grid**2) / 2) / math.sqrt(2 * math.pi)
        p = p / (p.sum() * (grid[1] - grid[0]))
        track = DistributionTrack(grid, np.array([0.0, 0.1, 0.2, 0.3]), np.tile(p, (4, 1)))
        assert fisher_information_1d(track, 0.1) == 0.0

    def test_sigma_half_vs_analytic_derivative_quadrature(self):
        sigma = 0.5
        track = gaussian_track(sigma)
        t = 0.25
        i = track.index_of(t)
        p = track.densities[i]
        dp = p * (track.grid - t) / sigma**2  # analytic d_t of the translated Gaussian
        mask = p >= 1e-14
        oracle = float(np.sum(dp[mask] ** 2 / p[mask]) * track.spacing)
        j = fisher_information_1d(track, t)
        assert j == pytest.approx(oracle, rel=1e-2)
        assert j == pytest.approx(4.0, rel=1e-2)

    def test_parameter_out_of_range(self):
        track = gaussian_track(1.0)
        with pytest.raises(DomainError, match=r"^t=0\.123457 is not a sampled parameter value$"):
            fisher_information_1d(track, 0.12345678)  # not a sampled value
        with pytest.raises(DomainError, match=r"^t=-0\.005 is not interior to the sampled range$"):
            fisher_information_1d(track, float(track.parameter_values[0]))  # boundary


class TestStatisticalVelocity:
    def test_matches_fisher_information(self):
        for sigma in (0.5, 1.0, 2.0):
            track = gaussian_track(sigma)
            for t in (0.1, 0.25, 0.4):
                v2 = statistical_velocity_sq(track, t)
                j = fisher_information_1d(track, t)
                assert v2 == pytest.approx(j, rel=1e-2)

    def test_static_family_zero(self):
        grid = np.linspace(-8, 8, 1001)
        p = np.exp(-(grid**2) / 2) / math.sqrt(2 * math.pi)
        p = p / (p.sum() * (grid[1] - grid[0]))
        track = DistributionTrack(grid, np.array([0.0, 0.1, 0.2]), np.tile(p, (3, 1)))
        assert statistical_velocity_sq(track, 0.1) == pytest.approx(0.0, abs=1e-20)

    def test_accumulated_length_matches_inverse_width(self):
        # unit mean shift at sigma = 1: integral of dt/sigma over the shift is 1
        track = gaussian_track(1.0, n_params=203)
        ts = track.parameter_values[1:-1]
        speeds = [math.sqrt(statistical_velocity_sq(track, float(t))) for t in ts]
        length = float(np.trapezoid(speeds, ts))
        assert length == pytest.approx(ts[-1] - ts[0], rel=1e-2)


class TestBuresIncrement:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(5)
        rho = random_mixed_state(rng, 3)
        inc = bures_increment(rho, np.zeros((3, 3)))
        assert type(inc) is float and inc == 0.0

    def test_first_order_match_with_finite_difference(self):
        # squared endpoint length vs quadratic form: relative gap shrinks ~ dt
        rng = np.random.default_rng(6)
        ratios = []
        for _ in range(10):
            rho0 = random_mixed_state(rng, 2, floor=0.1)
            h1 = random_hermitian(rng, 2)
            h2 = random_hermitian(rng, 2)

            def rho_at(t):
                u = step_unitary(h1, math.sin(1.3 * t), 1.0) @ step_unitary(h2, t + 0.4 * t * t, 1.0)
                return u @ rho0.matrix @ u.conj().T

            t0 = float(rng.uniform(0.2, 1.0))
            base = QuantumState.mixed(rho_at(t0))

            def gap(dt):
                target = rho_at(t0 + dt)
                ell2 = bures_length(base, QuantumState.mixed(target)) ** 2
                form = bures_increment(base, target - base.matrix)
                return ell2 / form - 1.0

            d1, d2 = gap(0.04), gap(0.02)
            ratios.append(abs(d1) / abs(d2))
            # at least first-order shrinkage; in practice the gap is ~O(dt^2)
            assert abs(d2) < 0.6 * abs(d1)
        assert float(np.median(ratios)) > 1.8

    def test_pure_state_limit_equals_variance(self):
        rng = np.random.default_rng(7)
        eps = 1e-6
        psi = random_pure_state(rng, 2).amplitudes
        perp = np.array([-np.conj(psi[1]), np.conj(psi[0])])
        rho = QuantumState.mixed((1 - eps) * np.outer(psi, psi.conj()) + eps * np.outer(perp, perp.conj()))
        h = random_hermitian(rng, 2, scale=2.0)
        drho_dt = -1j * (h @ rho.matrix - rho.matrix @ h)
        rate_sq = bures_increment(rho, drho_dt)
        state = QuantumState.mixed(rho.matrix)
        me = float(np.trace(rho.matrix @ h).real)
        var = float(np.trace(rho.matrix @ h @ h).real) - me**2
        assert rate_sq == pytest.approx(var, rel=1e-3)

    def test_rejects_traced_perturbation(self):
        rng = np.random.default_rng(8)
        rho = random_mixed_state(rng, 2)
        with pytest.raises(NotNormalized, match=r"^drho has trace 2\.000e\+00\+0\.000e\+00j \(must vanish within 1e-9\)$"):
            bures_increment(rho, np.eye(2))

    def test_rejects_non_hermitian_perturbation(self):
        rng = np.random.default_rng(9)
        rho = random_mixed_state(rng, 2)
        with pytest.raises(NotHermitian):
            bures_increment(rho, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_wrongly_shaped_perturbation(self):
        with pytest.raises(DimensionMismatch, match=r"drho shape \(3, 3\)"):
            bures_increment(QuantumState.mixed(np.eye(2) / 2), np.zeros((3, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_perturbation(self, bad):
        with pytest.raises(NotFinite, match="non-finite"):
            bures_increment(QuantumState.mixed(np.eye(2) / 2), [[bad, 0.0], [0.0, bad]])


class TestDynamicalVelocity:
    """d_t L(rho_0, rho_t) by the central difference of the audit's checks."""

    def test_constant_two_level_closed_form(self):
        # equal superposition under diag(0, E): L(t) = E t / (2 hbar)
        energy = 1.5
        traj = propagate(
            ground_shift(two_level_protocol(energy=energy)),
            QuantumState.pure(np.ones(2) / math.sqrt(2)),
            512,
        )
        rate = bures_rate(traj)
        for i in (10, 100, 300, 500):
            assert abs(rate[i - 1]) == pytest.approx(energy / 2, rel=1e-6)
            assert rate[i - 1] > 0

    def test_stationary_zero(self):
        h = np.diag([0.0, 2.0]).astype(complex)
        p = HamiltonianProtocol(lambda t: h, 3.0)
        traj = propagate(p, QuantumState.pure([1.0, 0.0]), 256)
        assert abs(bures_rate(traj)[127]) == pytest.approx(0.0, abs=1e-10)

    def test_bounded_by_energy_spread(self):
        # N = 2048 keeps the finite-difference error below the 1e-6 slack
        rng = np.random.default_rng(10)
        for _ in range(4):
            traj = run_random(rng, 2, pure=bool(rng.integers(0, 2)), steps=2048)
            spread = np.sqrt(traj.energy_variance)
            rate = bures_rate(traj)
            for i in range(1, traj.n_samples - 1):
                assert abs(rate[i - 1]) <= spread[i] / traj.hbar + 1e-6
