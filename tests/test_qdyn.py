"""States, eigendecomposition, ground shift, and unitary propagation."""

import math
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    equal_superposition,
    every_matrix,
    random_hermitian,
    random_mixed_state,
    random_pure_state,
    random_smooth_protocol,
    two_level_protocol,
)
from qspeed import (
    HamiltonianProtocol,
    QuantumState,
    audit_trajectory,
    build_report,
    ground_shift,
    propagate,
    step_unitary,
    validate_state,
)
from qspeed import _linalg, qdyn
from qspeed.cli import ProtocolConfig, build_protocol, initial_state
from qspeed.errors import (
    DimensionMismatch,
    DomainError,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotPositive,
)
from qspeed.qdyn import _beside, _unitaries

SRC = Path(__file__).resolve().parents[1] / "src"
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def per_step_reference(p, s0, steps):
    """States, <H_t> and Bures angles from a loop that builds each step
    unitary inside the loop, with the observables formed as propagate forms
    them: the reference for building all unitaries before the loop."""
    s0 = validate_state(s0)
    times = np.linspace(0.0, p.duration, steps + 1)
    dt = p.duration / steps
    w, v = np.linalg.eigh(p.matrices(times[:-1] + dt / 2))
    phases = np.exp(-1j * w * dt / p.hbar)
    h = p.matrices(times)
    if s0.is_pure:
        psis = np.empty((steps + 1, p.dim), dtype=complex)
        psis[0] = s0.amplitudes
        for k in range(steps):
            u = (v[k] * phases[k]) @ v[k].conj().T
            psis[k + 1] = u @ psis[k]
        me = np.einsum("ti,tij,tj->t", psis.conj(), h, psis).real
        overlap = np.einsum("i,ti->t", psis[0].conj(), psis)
        residual = np.linalg.norm(psis - overlap[:, None] * psis[0][None, :], axis=1)
        bures = np.arctan2(residual, np.abs(overlap))
        states = psis
    else:
        rhos = np.empty((steps + 1, p.dim, p.dim), dtype=complex)
        rhos[0] = s0.matrix
        for k in range(steps):
            u = (v[k] * phases[k]) @ v[k].conj().T
            rhos[k + 1] = _linalg.symmetrize(u @ rhos[k] @ u.conj().T)
        me = np.einsum("tij,tji->t", rhos, h).real
        sqrt0 = _linalg.psd_sqrt(rhos[0], "initial state")
        bures = _linalg.bures_angle_from_fidelity(_linalg.fidelity_from_sqrt(sqrt0, rhos))
        states = rhos
    bures[0] = 0.0
    return states, me, bures


def piecewise_constant(rng, dim):
    """A ``stack`` protocol on [0, 1] that holds A, B, C, then A again.  At
    256 steps and 256-byte slices (4 midpoints at d = 2) its first edge falls
    inside a slice, B holds over 23 slices, and its second edge lies off the
    grid."""
    table = np.stack([random_hermitian(rng, dim) for _ in range(3)])[[0, 1, 2, 0]]
    edges = np.array([6.0, 100.3, 180.0]) / 256
    return HamiltonianProtocol(None, 1.0, stack=lambda ts: table[np.searchsorted(edges, ts, side="right")])


class TestValidateState:
    def test_maximally_mixed_accepted(self):
        s = QuantumState.mixed(np.eye(2) / 2)
        w = np.linalg.eigvalsh(s.matrix)
        assert np.allclose(w, [0.5, 0.5])

    def test_kind_and_dim_read_from_the_array(self):
        pure = QuantumState.pure([1.0, 0.0, 0.0])
        mixed = QuantumState.mixed(np.eye(2) / 2)
        assert pure.is_pure and pure.dim == 3
        assert not mixed.is_pure and mixed.dim == 2

    @pytest.mark.parametrize(
        "state",
        [QuantumState(matrix=np.ones((2, 3)) / 2), QuantumState(amplitudes=np.eye(2, dtype=complex))],
        ids=["non_square_matrix", "2d_amplitudes"],
    )
    def test_misshapen_array_rejected(self, state):
        with pytest.raises(DimensionMismatch):
            validate_state(state)

    def test_direct_construction_validated(self):
        s = validate_state(QuantumState(amplitudes=[1, 0]))
        assert s.amplitudes.dtype == complex and s.dim == 2
        with pytest.raises(DimensionMismatch):
            validate_state(QuantumState())

    def test_both_arrays_set_rejected(self):
        with pytest.raises(DimensionMismatch, match="not both"):
            validate_state(QuantumState(amplitudes=[1, 0], matrix=np.eye(3) / 3))

    def test_basis_state_accepted(self):
        s = QuantumState.pure([1.0, 0.0])
        assert s.purity() == pytest.approx(1.0)

    def test_trace_violation_rejected(self):
        with pytest.raises(NotNormalized):
            QuantumState.mixed(np.diag([0.7, 0.4]))

    def test_norm_violation_rejected(self):
        with pytest.raises(NotNormalized):
            QuantumState.pure([1.0, 1.0])

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(NotPositive):
            QuantumState.mixed(np.diag([1.1, -0.1]))

    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.3], [0.0, 0.5]], dtype=complex)
        with pytest.raises(NotHermitian):
            QuantumState.mixed(m)

    def test_overflowing_skew_rejected_without_a_warning(self):
        m = np.array([[0.5, 1.7e308], [-1.7e308, 0.5]], dtype=complex)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(NotHermitian, match="by inf"):
                QuantumState.mixed(m)
        assert caught == []

    def test_overflowing_norm_named(self):
        with pytest.raises(NotNormalized, match="norm overflows"):
            QuantumState.pure([1e200, 1e200])

    def test_nan_pure_state_rejected(self):
        with pytest.raises(NotFinite, match="non-finite"):
            QuantumState.pure([math.nan, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_density_matrix_rejected(self, bad):
        with pytest.raises(NotFinite, match="non-finite"):
            QuantumState.mixed(np.array([[bad, 0.0], [0.0, 0.5]]))

    def test_small_deviations_canonicalized(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2) * (1 + 3e-7)
        s = QuantumState.pure(v)
        assert np.linalg.norm(s.amplitudes) == pytest.approx(1.0, abs=1e-12)
        rho = np.diag([0.6, 0.4]) + 1e-8 * np.array([[0, 1j], [-1j, 0]])
        m = validate_state(QuantumState(matrix=rho))
        assert np.max(np.abs(m.matrix - m.matrix.conj().T)) < 1e-15
        assert np.trace(m.matrix).real == pytest.approx(1.0, abs=1e-12)


def ground_amplitudes(h):
    """The "ground" initial state of a constant protocol with real ``h``."""
    cfg = ProtocolConfig.from_dict(
        {"kind": "constant", "dim": len(h), "duration": 1.0, "params": {"matrix": h.tolist()}, "initial_state": "ground"}
    )
    return initial_state(cfg, build_protocol(cfg)).amplitudes


def constant_run(h, s, steps=16):
    """``s`` under the constant Hamiltonian ``h`` for unit time, unshifted."""
    h = np.asarray(h, dtype=complex)
    return propagate(HamiltonianProtocol(lambda t: h, 1.0), s, steps)


class TestEigensystem:
    """The eigendecompositions behind step unitaries and the "ground" state."""

    def test_diagonal(self):
        h = np.diag([2.0, -1.0])
        assert np.allclose(step_unitary(h, 0.3, 1.0), np.diag(np.exp(-0.3j * np.array([2.0, -1.0]))))
        # eigenvalues ascend, so the ground state is the eigenvector of -1
        assert np.allclose(np.abs(ground_amplitudes(h)), [0.0, 1.0])

    def test_pauli_x(self):
        expected = math.cos(0.3) * np.eye(2) - 1j * math.sin(0.3) * SX
        assert np.allclose(step_unitary(SX, 0.3, 1.0), expected)
        assert abs(np.vdot([1.0, -1.0], ground_amplitudes(SX.real))) / math.sqrt(2) == pytest.approx(1.0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            step_unitary(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.1, 1.0)


class TestEnergyMoments:
    """<H_t> and the energy variance along constant-H runs of ``propagate``."""

    def test_mean_maximally_mixed(self):
        s = QuantumState.mixed(np.eye(2) / 2)
        assert constant_run(np.diag([0.0, 3.0]), s).mean_energy == pytest.approx(1.5)

    def test_mean_eigenstate(self):
        s = QuantumState.pure([0.0, 1.0])
        assert constant_run(np.diag([0.0, 3.0]), s).mean_energy == pytest.approx(3.0)

    def test_mean_superposition_pauli_x(self):
        assert constant_run(SX, equal_superposition()).mean_energy == pytest.approx(1.0)

    def test_variance_eigenstate_zero(self):
        s = QuantumState.pure([0.0, 1.0])
        assert constant_run(np.diag([0.0, 3.0]), s).energy_variance[0] == 0.0

    def test_variance_superposition(self):
        traj = constant_run(np.diag([0.0, 2.0]), equal_superposition())
        assert traj.energy_variance == pytest.approx(1.0)

    def test_variance_maximally_mixed(self):
        s = QuantumState.mixed(np.eye(2) / 2)
        assert constant_run(np.diag([0.0, 2.0]), s).energy_variance == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            constant_run(np.eye(3), equal_superposition())


class TestGroundShift:
    def test_constant_diagonal(self):
        p = HamiltonianProtocol(lambda t: np.diag([-3.0, 1.0]).astype(complex), 1.0)
        shifted = ground_shift(p)
        assert np.allclose(shifted.matrix(0.3), np.diag([0.0, 4.0]))

    def test_idempotent_when_ground_is_zero(self):
        h = np.diag([0.0, 4.0]).astype(complex)
        p = HamiltonianProtocol(lambda t: h, 1.0)
        shifted = ground_shift(p)
        for t in (0.0, 0.5, 1.0):
            assert np.max(np.abs(shifted.matrix(t) - h)) < 1e-12

    def test_landau_zener_ground_zero_everywhere(self):
        tau = 2.0
        p = HamiltonianProtocol(lambda t: (2.0 * (t - tau / 2) / 2) * SZ + 0.5 * SX, tau)
        shifted = ground_shift(p)
        for t in np.linspace(0.0, tau, 33):
            assert abs(np.linalg.eigvalsh(shifted.matrix(t))[0]) < 1e-12

    def test_unknown_mode_is_domain_error(self):
        with pytest.raises(DomainError, match="sometimes"):
            ground_shift(two_level_protocol(), mode="sometimes")

    def test_global_mode_constant_offset(self):
        tau = 1.0
        p = HamiltonianProtocol(lambda t: np.diag([math.sin(t), 5.0]).astype(complex), tau)
        shifted = ground_shift(p, mode="global")
        # global minimum of the ground energy over [0, 1] is sin(0) = 0
        assert np.allclose(shifted.matrix(0.0), np.diag([0.0, 5.0]))
        assert np.linalg.eigvalsh(shifted.matrix(1.0))[0] == pytest.approx(math.sin(1.0), abs=1e-9)

    @pytest.mark.parametrize("mode", ["instantaneous", "global"])
    def test_shifted_matrix_and_stack_agree(self, mode):
        shifted = ground_shift(random_smooth_protocol(np.random.default_rng(8), 3), mode=mode)
        for t in np.linspace(0.0, shifted.duration, 7):
            assert np.array_equal(shifted.matrix(t), shifted.matrices([t])[0])

    def test_oversized_global_scan_refused_before_any_h_evaluation(self):
        def stack(ts):
            raise AssertionError("H(t) evaluated for an oversized global scan")

        p = HamiltonianProtocol(None, 1.0, dim=600, stack=stack)
        with pytest.raises(DomainError, match="GiB"):
            ground_shift(p, mode="global")


class TestPropagate:
    def test_two_level_reaches_orthogonality(self, saturating_run):
        traj = saturating_run
        psi0 = traj.states[0]
        psi_tau = traj.states[-1]
        assert abs(np.vdot(psi0, psi_tau)) < 1e-8
        assert traj.bures_from_initial[-1] == pytest.approx(math.pi / 2, abs=1e-6)

    def test_initial_sample_trivial(self, saturating_run):
        assert saturating_run.bures_from_initial[0] == 0.0
        assert saturating_run.overlap_with_initial[0] == pytest.approx(1.0)

    def test_landau_zener_self_convergence(self):
        tau, v, gap = 4.0, 2.0, 1.0

        def make(steps):
            p = HamiltonianProtocol(
                lambda t: (v * (t - tau / 2) / 2) * SZ + (gap / 2) * SX, tau, label="lz"
            )
            ground = np.linalg.eigh(p.matrix(0.0))[1][:, 0]
            return propagate(p, QuantumState.pure(ground), steps)

        coarse = make(2048)
        fine = make(2048 * 16)
        h_final = coarse.protocol.matrix(tau)
        excited = np.linalg.eigh(h_final)[1][:, 1]
        pop_coarse = abs(np.vdot(excited, coarse.states[-1])) ** 2
        pop_fine = abs(np.vdot(excited, fine.states[-1])) ** 2
        assert abs(pop_coarse - pop_fine) < 1e-6

    def test_rejects_dimension_mismatch(self):
        p = two_level_protocol()
        with pytest.raises(DimensionMismatch):
            propagate(p, QuantumState.pure([1.0, 0.0, 0.0]), 64)

    @pytest.mark.parametrize("field", ["duration", "hbar"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, True, np.True_])
    def test_protocol_rejects_non_positive_or_non_finite(self, field, value):
        kwargs = {"duration": 1.0, "hbar": 1.0, field: value}
        with pytest.raises(DomainError, match=field):
            HamiltonianProtocol(lambda t: SZ, **kwargs)

    def test_nan_hamiltonian_raises(self):
        p = HamiltonianProtocol(lambda t: SZ * (math.nan if t > 0.5 else 1.0), 1.0)
        with pytest.raises(NotFinite, match="H\\(t\\) on the sample grid has non-finite entries"):
            propagate(p, equal_superposition(), 64)

    @pytest.mark.parametrize(
        "s0", [QuantumState.pure([1.0, 0.0]), QuantumState.mixed(np.diag([0.7, 0.3]))], ids=["pure", "mixed"]
    )
    def test_overflowing_energy_square_raises_not_finite(self, s0):
        # <H^2> ~ 1e400 overflows; the RuntimeWarning is an error in this suite
        p = HamiltonianProtocol(lambda t: 1e200 * SX, 1.0)
        with pytest.raises(NotFinite, match="<H\\^2> overflows a float"):
            propagate(p, s0, 64)

    @pytest.mark.parametrize(
        "s0, message",
        [
            (QuantumState.pure([0.0, 1.0]), "energy variance dipped"),
            (equal_superposition(), "purity drifted .* not unitary"),
        ],
        ids=["variance", "purity"],
    )
    def test_non_unitary_steps_raise_not_positive(self, monkeypatch, s0, message):
        """Steps that grow the norm by 1e-6 are refused, not reported as a trajectory."""

        def inflated(*args, out=None):
            return np.multiply(_unitaries(*args, out=out), 1 + 1e-6, out=out)

        monkeypatch.setattr(qdyn, "_unitaries", inflated)
        p = HamiltonianProtocol(lambda t: np.diag([0.0, 1.0]).astype(complex), 1.0)
        with pytest.raises(NotPositive, match=message):
            propagate(p, s0, 64)

    @pytest.mark.parametrize(
        "dim, pure, drive",
        [
            pytest.param(3, True, None, id="pure"),
            pytest.param(3, False, None, id="mixed"),
            pytest.param(1, True, None, id="pure-d1"),
            pytest.param(1, False, None, id="mixed-d1"),
            pytest.param(8, True, None, id="pure-d8"),
            pytest.param(8, False, None, id="mixed-d8"),
            pytest.param(2, True, "instantaneous", id="pure-piecewise"),
            pytest.param(2, False, "instantaneous", id="mixed-piecewise"),
            pytest.param(2, True, "global", id="pure-piecewise-global"),
            pytest.param(2, False, "global", id="mixed-piecewise-global"),
        ],
    )
    def test_propagate_matches_per_step_reference(self, monkeypatch, dim, pure, drive):
        """With the midpoint stack in one slice, and in several shared with a
        pool, where each of a mixed run's state rows holds U_k and then
        rho_{k+1}.  A smooth drive, or a piecewise-constant ``stack`` under
        either shift, whose runs of equal samples are decomposed once against
        a reference that decomposes every sample."""
        rng = np.random.default_rng(21)
        if drive is None:
            base, mode = random_smooth_protocol(rng, dim), "instantaneous"
        else:
            base, mode = piecewise_constant(rng, dim), drive
        s0 = random_pure_state(rng, dim) if pure else random_mixed_state(rng, dim)
        with monkeypatch.context() as m:
            m.setattr(_linalg, "once_per_run", every_matrix, raising=False)
            states, me, bures = per_step_reference(ground_shift(base, mode), s0, 256)
        p = ground_shift(base, mode)
        for slice_bytes, pool_bytes in ((_linalg.SLICE_BYTES, qdyn.POOL_BYTES), (256, 0)):
            monkeypatch.setattr(_linalg, "SLICE_BYTES", slice_bytes)
            monkeypatch.setattr(qdyn, "POOL_BYTES", pool_bytes)
            traj = propagate(p, s0, 256)
            assert np.array_equal(traj.states, states)
            assert np.array_equal(traj.mean_energy, me)
            assert np.array_equal(traj.bures_from_initial, bures)

    def test_step_unitary_is_a_slice_of_the_stacked_build(self):
        rng = np.random.default_rng(22)
        hs = np.stack([random_hermitian(rng, 4, 2.0) for _ in range(6)])
        w, v = np.linalg.eigh(hs)
        stacked = _unitaries(w, v, 0.037, 1.3)
        for k, h in enumerate(hs):
            assert np.array_equal(step_unitary(h, 0.037, 1.3), stacked[k])

    def test_overflowing_step_phase_names_hbar(self):
        with pytest.raises(NotFinite, match="hbar = 4.94066e-324"):
            step_unitary(SZ, 0.01, 5e-324)

    def test_protocol_needs_an_evaluator_or_a_stack(self):
        with pytest.raises(DomainError, match="evaluator or a stack"):
            HamiltonianProtocol(None, 1.0)

    def test_stack_protocol(self):
        """A stack protocol gets its dim from the stack."""
        p = HamiltonianProtocol(None, 2.0, stack=lambda ts: ts[:, None, None] * SZ)
        assert p.dim == 2
        assert np.array_equal(p.matrix(0.5), 0.5 * SZ)
        assert np.array_equal(p.matrices([0.0, 1.5]), np.stack([0.0 * SZ, 1.5 * SZ]))

    def test_evaluator_of_inconsistent_shape_names_t(self):
        p = HamiltonianProtocol(lambda t: SZ if t < 0.5 else np.eye(3), 1.0)
        with pytest.raises(DimensionMismatch, match=r"at t = 0\.75 has shape \(3, 3\), expected \(2, 2\)"):
            p.matrices([0.0, 0.25, 0.75])

    def test_evaluator_stack_matches_np_stack(self):
        """Samples converted per 256-sample block have the bits of one
        conversion per sample, for partial, whole and several blocks."""
        p = random_smooth_protocol(np.random.default_rng(24), 4)
        for n in (33, 1, 255, 256, 257, 513):
            ts = np.linspace(0.0, p.duration, n)
            expected = np.stack([np.asarray(p.evaluator(float(t)), dtype=complex) for t in ts])
            assert p.matrices(ts).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("kind", ["nested lists", "real array"])
    def test_evaluator_of_lists_or_real_arrays(self, kind):
        def h(t):
            m = np.array([[t, 1.0 - t], [1.0 - t, -t]])
            return m.tolist() if kind == "nested lists" else m

        ts = np.linspace(0.0, 1.0, 300)
        expected = np.stack([np.asarray(h(t), dtype=complex) for t in ts.tolist()])
        assert HamiltonianProtocol(h, 1.0).matrices(ts).tobytes() == expected.tobytes()

    def test_wrong_shape_in_second_block_names_t(self):
        ts = np.arange(600) / 600
        bad = float(ts[300])
        p = HamiltonianProtocol(lambda t: np.eye(3) if t >= bad else SZ, 1.0)
        with pytest.raises(DimensionMismatch, match=rf"at t = {bad!r} has shape \(3, 3\), expected \(2, 2\)"):
            p.matrices(ts)

    def test_shape_error_precedes_a_later_unconvertible_sample(self):
        """Errors come in sample order, as with one conversion per sample,
        also when the block as a whole fails to convert."""
        bad = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, object()]]
        p = HamiltonianProtocol(lambda t: np.eye(3) if t < 0.5 else bad, 1.0, dim=2)
        with pytest.raises(DimensionMismatch, match=r"at t = 0\.0 has shape \(3, 3\)"):
            p.matrices([0.0, 0.75])
        p = HamiltonianProtocol(lambda t: SZ if t < 0.5 else bad, 1.0)
        with pytest.raises(TypeError):
            p.matrices([0.0, 0.75])

    def test_vector_sample_is_not_broadcast(self):
        """A (d,) sample would fill a (d, d) slot by broadcasting; it is refused."""
        p = HamiltonianProtocol(lambda t: SZ if t < 0.5 else np.ones(2), 1.0)
        with pytest.raises(DimensionMismatch, match=r"at t = 0\.75 has shape \(2,\), expected \(2, 2\)"):
            p.matrices([0.0, 0.25, 0.75])
        p = HamiltonianProtocol(lambda t: np.ones(2), 1.0, dim=2)
        with pytest.raises(DimensionMismatch, match=r"at t = 0\.0 has shape \(2,\)"):
            p.matrices([0.0, 0.5])

    @staticmethod
    def d16_run_peak(state):
        """The tracemalloc peak of an N = 2048, d = 16 ground-shifted run from
        ``state(rng, 16)``, in (N+1, d, d) complex arrays."""
        n, d = 2048, 16
        rng = np.random.default_rng(26)
        p = ground_shift(random_smooth_protocol(rng, d))
        s0 = state(rng, d)
        tracemalloc.start()
        try:
            propagate(p, s0, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / ((n + 1) * d * d * 16)

    def test_mixed_run_memory_peak(self):
        """The ground shift works on the stack it is given, the states hold
        the unitaries until the step loop writes each state over its
        unitary, and every pass over a whole stack, the step loop's adjoints
        among them, works one 256 KiB row slice at a time, so a d = 16 mixed
        run peaks at no more than 2.5 (N+1, d, d) complex arrays: the states,
        the samples and slices (2.37 measured)."""
        assert self.d16_run_peak(random_mixed_state) <= 2.5

    def test_pure_run_memory_peak(self):
        """A d = 16 pure run holds the unitaries and the samples, and 256 KiB
        slices of both threads' work beside them: no more than 2.5 stacks
        (2.36 measured)."""
        assert self.d16_run_peak(random_pure_state) <= 2.5

    @pytest.mark.parametrize("mode", [None, "instantaneous", "global"])
    @pytest.mark.parametrize("form", ["evaluator", "stack"])
    def test_matrices_of_no_times(self, form, mode):
        """An empty grid deviates from Hermiticity by 0: its stack is (0, d, d)."""
        if form == "evaluator":
            p = HamiltonianProtocol(lambda t: SZ, 1.0)
        else:
            p = HamiltonianProtocol(None, 1.0, stack=lambda ts: (1.0 + ts)[:, None, None] * SZ)
        h = (p if mode is None else ground_shift(p, mode)).matrices([])
        assert h.shape == (0, 2, 2) and h.dtype == complex

    @pytest.mark.parametrize("pure", [True, False], ids=["pure", "mixed"])
    @pytest.mark.parametrize(
        "layout",
        [np.asfortranarray, lambda h: np.ascontiguousarray(np.swapaxes(h, -1, -2)).swapaxes(-1, -2)],
        ids=["fortran", "strided_view"],
    )
    def test_stack_layout_leaves_the_bits(self, layout, pure):
        """A ``stack`` that returns its values in Fortran order, or as a view
        with swapped strides, gives the bytes of the same values in C order."""
        rng = np.random.default_rng(37)
        base = random_smooth_protocol(rng, 5)
        s0 = random_pure_state(rng, 5) if pure else random_mixed_state(rng, 5)
        runs = [
            propagate(ground_shift(HamiltonianProtocol(None, base.duration, stack=lambda ts, f=f: f(base.matrices(ts)))), s0, 256)
            for f in (np.ascontiguousarray, layout)
        ]
        for name in ("states", "h_samples", "mean_energy", "energy_variance", "bures_from_initial"):
            assert getattr(runs[1], name).tobytes() == getattr(runs[0], name).tobytes(), name

    def test_matrices_is_not_the_array_a_stack_keeps(self):
        """The caller owns what ``matrices`` returns, also when ``stack``
        hands out an array it keeps."""
        kept = np.stack([SZ, SX])
        p = HamiltonianProtocol(None, 1.0, stack=lambda ts: kept)
        h = p.matrices([0.0, 1.0])
        assert np.array_equal(h, kept) and not np.shares_memory(h, kept)

    @pytest.mark.parametrize("stack", [lambda ts: 1.0, lambda ts: np.zeros(len(ts))], ids=["scalar", "vector"])
    def test_stack_without_matrix_shape_rejected(self, stack):
        with pytest.raises(DimensionMismatch, match="probe"):
            HamiltonianProtocol(None, 1.0, stack=stack)

    @pytest.mark.parametrize("h", [1.0, [1.0, 0.0]], ids=["scalar", "vector"])
    def test_evaluator_without_matrix_shape_rejected(self, h):
        with pytest.raises(DimensionMismatch, match="probe"):
            HamiltonianProtocol(lambda t: h, 1.0)

    @pytest.mark.parametrize("duration", [5e-324, 1e-310, 64 * 2.2e-308])
    def test_subnormal_step_refused_before_any_h_evaluation(self, duration):
        def stack(ts):
            raise AssertionError("H(t) evaluated for a subnormal step")

        p = HamiltonianProtocol(None, duration, dim=2, stack=stack)
        with pytest.raises(DomainError, match="duration .* steps"):
            propagate(p, equal_superposition(), 64)

    def test_smallest_normal_step_runs(self):
        p = HamiltonianProtocol(lambda t: SZ, 64 * sys.float_info.min)
        assert propagate(p, equal_superposition(), 64).dt == sys.float_info.min

    def test_stack_of_wrong_length_rejected(self):
        p = HamiltonianProtocol(None, 1.0, dim=2, stack=lambda ts: np.stack([SZ] * (len(ts) + 1)))
        with pytest.raises(DimensionMismatch, match="shape"):
            p.matrices([0.0, 0.5])

    def test_rejects_too_few_steps(self):
        with pytest.raises(DomainError, match="steps must be an integer >= 2"):
            propagate(two_level_protocol(), equal_superposition(), 1)

    @pytest.mark.parametrize("steps", [64.9, math.nan, math.inf, "64", True])
    def test_steps_must_be_an_integer(self, steps):
        with pytest.raises(DomainError, match="steps"):
            propagate(two_level_protocol(), equal_superposition(), steps)

    def test_oversized_grid_refused_before_any_h_evaluation(self):
        def stack(ts):
            raise AssertionError("H(t) evaluated for an oversized grid")

        p = HamiltonianProtocol(None, 1.0, dim=2, stack=stack)
        with pytest.raises(DomainError, match="GiB"):
            propagate(p, equal_superposition(), 10**9)

    def test_numpy_integer_steps(self):
        traj = propagate(two_level_protocol(), equal_superposition(), np.int64(64))
        assert traj.n_samples == 65

    def test_step_unitary_is_unitary(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = step_unitary(random_hermitian(rng, 5, 2.0), 0.037, 1.0)
            assert np.max(np.abs(u.conj().T @ u - np.eye(5))) < 1e-10

    def test_constant_h_matches_single_exponential(self):
        rng = np.random.default_rng(4)
        h = random_hermitian(rng, 4, 1.5)
        p = HamiltonianProtocol(lambda t: h, 2.0)
        s0 = random_pure_state(rng, 4)
        traj = propagate(p, s0, 1024)
        expected = step_unitary(h, 2.0, 1.0) @ s0.amplitudes
        # global phase is physical here (same construction), compare directly
        assert np.max(np.abs(traj.states[-1] - expected)) < 1e-9

    def test_eigenstate_is_stationary(self):
        h = np.diag([0.0, 1.0, 3.0]).astype(complex)
        p = HamiltonianProtocol(lambda t: h, 5.0)
        traj = propagate(p, QuantumState.pure([0.0, 1.0, 0.0]), 256)
        assert np.max(traj.bures_from_initial) < 1e-8

    def test_second_order_self_convergence(self):
        p = HamiltonianProtocol(lambda t: 0.5 * SZ + 1.2 * math.cos(1.7 * t) * SX, 2.0)
        s0 = QuantumState.pure([1.0, 0.0])

        def final(steps):
            return propagate(p, s0, steps).states[-1]

        ref = final(1 << 15)
        err_n = np.linalg.norm(final(128) - ref)
        err_2n = np.linalg.norm(final(256) - ref)
        assert 2.0 < err_n / err_2n < 8.0

    def test_purity_and_trace_conserved_mixed(self):
        rng = np.random.default_rng(5)
        p = random_smooth_protocol(rng, 3, duration=1.5)
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho = g @ g.conj().T
        s0 = QuantumState.mixed(rho / np.trace(rho).real)
        traj = propagate(p, s0, 512)
        purities = np.einsum("tij,tji->t", traj.states, traj.states).real
        traces = np.trace(traj.states, axis1=1, axis2=2).real
        assert np.max(np.abs(np.diff(purities))) < 1e-10
        assert np.max(np.abs(np.array(traces) - 1.0)) < 1e-10

    def test_variance_nonnegative_and_bures_in_range(self, small_corpus):
        for traj in small_corpus:
            assert traj.energy_variance.min() >= 0.0
            assert traj.bures_from_initial.min() >= 0.0
            assert traj.bures_from_initial.max() <= math.pi / 2 + 1e-9

    def test_overlap_only_for_pure(self, small_corpus):
        for traj in small_corpus:
            if traj.is_pure:
                assert traj.overlap_with_initial is not None
            else:
                assert traj.overlap_with_initial is None

    @pytest.mark.parametrize("pure", [True, False])
    def test_one_h_sample_per_grid_point(self, pure):
        """ground shift -> propagate -> report -> audit samples H(t) exactly
        once at each of the N midpoints and N+1 grid points."""
        rng = np.random.default_rng(9)
        base = random_smooth_protocol(rng, 3)
        calls = []

        def counted(t):
            calls.append(t)
            return base.evaluator(t)

        p = HamiltonianProtocol(counted, base.duration, base.hbar, base.label, base.dim)
        s0 = random_pure_state(rng, 3) if pure else QuantumState.mixed(np.eye(3) / 3)
        steps = 64
        traj = propagate(ground_shift(p), s0, steps)
        build_report(traj, strict=False)
        audit_trajectory(traj)
        assert len(calls) == 2 * steps + 1

    def test_ground_energy_zero_after_shift(self, small_corpus):
        for traj in small_corpus:
            assert np.max(np.abs(np.linalg.eigvalsh(traj.h_samples)[:, 0])) < 1e-9


def _nan_at_end(duration):
    return lambda t: SZ * (math.nan if t == duration else 1.0)


# a pure and a mixed start, for the error paths of both kinds of run
STARTS = (equal_superposition(), QuantumState.mixed(np.diag([0.7, 0.3])))


@pytest.fixture(params=["one_slice", "several_slices"])
def midpoint_slicing(request, monkeypatch):
    """Run a test with the midpoint stack in one slice, on the calling
    thread alone, and in several, shared with a worker thread: a pool size
    of 0 gives every stack the pool."""
    if request.param == "several_slices":
        monkeypatch.setattr(_linalg, "SLICE_BYTES", 256)
        monkeypatch.setattr(qdyn, "POOL_BYTES", 0)
    return request.param


def threads_started(monkeypatch, run):
    """``run()``'s result, and how many threads it started."""
    started = []

    class CountingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    with monkeypatch.context() as m:
        m.setattr(threading, "Thread", CountingThread)
        result = run()
    return result, len(started)


class TestMidpointWorker:
    """The midpoint eigh runs on a thread of its own, beside the grid H stack,
    when the stack holds more than ``qdyn.POOL_BYTES``."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("dim, samples", [(16, 1100), (3, 40)], ids=["several_chunks", "one_chunk"])
    def test_chunked_eigh_matches_one_eigh(self, dim, samples, threads):
        """Slices of a stack turned into step unitaries in place, by one
        thread or two, have the bits of one eigh and one build of the whole."""
        rng = np.random.default_rng(25)
        h = np.stack([random_hermitian(rng, dim, 2.0) for _ in range(samples)])
        expected = _unitaries(*np.linalg.eigh(h), 0.037, 1.3)
        slices = _linalg.row_slices(h)
        assert (len(slices) > 1) == (dim == 16)

        def to_unitaries(block):
            _unitaries(*np.linalg.eigh(block), 0.037, 1.3, out=block)

        assert _beside(to_unitaries, (h[s] for s in slices), lambda: "done", threads == 2)[1] == "done"
        assert h.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("mode", [None, "instantaneous", "global"])
    def test_stack_a_protocol_keeps_is_unchanged_by_propagate(self, midpoint_slicing, mode):
        """Neither the ground shift nor the in-place unitaries of a pure or a
        mixed run write into the arrays a caching ``stack`` hands out."""
        cache = {}

        def h(ts):
            return (1.0 + ts)[:, None, None] * SZ + 0.3 * SX

        def stack(ts):
            return cache.setdefault(ts.tobytes(), h(ts))

        p = HamiltonianProtocol(None, 1.0, stack=stack)
        for s0 in STARTS:
            propagate(p if mode is None else ground_shift(p, mode), s0, 64)
        assert len(cache) >= 3
        for key, kept in cache.items():
            assert kept.tobytes() == h(np.frombuffer(key)).tobytes()

    def test_worker_only_for_several_slices(self, midpoint_slicing, monkeypatch):
        """Several slices with the pool start one thread for the midpoint
        unitaries, and a mixed run one more for its moments; one slice starts
        none."""
        p = ground_shift(random_smooth_protocol(np.random.default_rng(28), 3))
        several = midpoint_slicing == "several_slices"
        for s0, threads in [(equal_superposition(3), 1), (random_mixed_state(np.random.default_rng(28), 3), 2)]:
            expected = propagate(p, s0, 64).states
            states, started = threads_started(monkeypatch, lambda: propagate(p, s0, 64).states)
            assert started == several * threads
            assert states.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "pool_bytes, pooled",
        [(None, False), (64 * 9 * 16, False), (64 * 9 * 16 - 1, True)],
        ids=["default", "at_the_pool_size", "above_it"],
    )
    def test_pool_only_for_a_stack_above_the_pool_size(self, monkeypatch, pool_bytes, pooled):
        """A (64, 3, 3) midpoint stack in 64 slices starts a thread only when
        it holds more than ``POOL_BYTES``: one for the unitaries, and a mixed
        run one more for its moments.  Either way a run has the bits of a
        one-slice run without a pool."""
        p = ground_shift(random_smooth_protocol(np.random.default_rng(38), 3))
        for s0, threads in [(equal_superposition(3), 1), (random_mixed_state(np.random.default_rng(38), 3), 2)]:
            expected = propagate(p, s0, 64)
            with monkeypatch.context() as m:
                m.setattr(_linalg, "SLICE_BYTES", 256)
                if pool_bytes is not None:
                    m.setattr(qdyn, "POOL_BYTES", pool_bytes)
                assert len(_linalg.row_slices(np.empty((64, 3, 3), dtype=complex))) == 64
                traj, started = threads_started(monkeypatch, lambda: propagate(p, s0, 64))
            assert started == pooled * threads
            for name in ("states", "mean_energy", "energy_variance", "bures_from_initial"):
                assert getattr(traj, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_threads_end_with_the_call(self, midpoint_slicing):
        start = threading.active_count()
        p = ground_shift(random_smooth_protocol(np.random.default_rng(26), 3))
        for s0 in (equal_superposition(3), random_mixed_state(np.random.default_rng(26), 3)):
            propagate(p, s0, 64)
            assert threading.active_count() == start
        with pytest.raises(NotFinite):
            propagate(HamiltonianProtocol(_nan_at_end(1.0), 1.0), equal_superposition(), 64)
        assert threading.active_count() == start

    def test_propagate_in_forked_child(self, midpoint_slicing):
        """A process forked after a pure and a mixed propagate can propagate
        both: no thread or lock of the parent's calls is left behind."""
        p = ground_shift(random_smooth_protocol(np.random.default_rng(27), 3))
        starts = (equal_superposition(3), random_mixed_state(np.random.default_rng(27), 3))
        expected = [propagate(p, s0, 64).states for s0 in starts]
        ctx = multiprocessing.get_context("fork")
        results = ctx.Queue()
        child = ctx.Process(target=lambda: results.put([propagate(p, s0, 64).states for s0 in starts]))
        child.start()
        try:
            states = results.get(timeout=60)
            child.join(timeout=60)
            assert not child.is_alive() and child.exitcode == 0
        except queue.Empty:
            pytest.fail("the forked child produced no trajectory within 60 s")
        finally:
            if child.is_alive():
                child.kill()
                child.join(timeout=10)
        for got, want in zip(states, expected, strict=True):
            assert np.array_equal(got, want)

    def test_subnormal_hbar_raises_the_step_phase_error(self, midpoint_slicing):
        p = HamiltonianProtocol(lambda t: SZ, 1.0, hbar=5e-324)
        for s0 in STARTS:
            with pytest.raises(NotFinite, match="step phase"):
                propagate(p, s0, 64)

    def test_nan_at_the_last_sample_raises_the_grid_error(self, midpoint_slicing):
        p = HamiltonianProtocol(_nan_at_end(1.0), 1.0)
        with pytest.raises(NotFinite, match="H\\(t\\) on the sample grid has non-finite entries"):
            propagate(p, equal_superposition(), 64)

    def test_step_phase_error_wins_over_a_grid_error(self, midpoint_slicing):
        p = HamiltonianProtocol(_nan_at_end(1.0), 1.0, hbar=5e-324)
        for s0 in STARTS:
            with pytest.raises(NotFinite, match="step phase"):
                propagate(p, s0, 64)

    def test_eigh_error_wins_over_a_grid_error(self, midpoint_slicing, monkeypatch):
        def failing_eigh(h):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        p = HamiltonianProtocol(_nan_at_end(1.0), 1.0)
        for s0 in STARTS:
            with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                propagate(p, s0, 64)

    def test_evaluator_exception_on_the_grid_propagates_unchanged(self, midpoint_slicing):
        def evaluator(t):
            if t == 1.0:
                raise KeyError("no H at the end")
            return SZ

        start = threading.active_count()
        with pytest.raises(KeyError, match="no H at the end"):
            propagate(HamiltonianProtocol(evaluator, 1.0), equal_superposition(), 64)
        assert threading.active_count() == start

    def test_every_item_is_consumed_once_under_contention(self):
        """Four callers, each with a thread of its own, hand over 2,000 items
        apiece at a shortened switch interval: each item is consumed once, by
        whichever thread takes it, and no thread is left."""
        counts = [np.zeros(2000, dtype=int) for _ in range(4)]

        def caller(count):
            def consume(k):
                count[k] += 1

            assert _beside(consume, range(len(count)), lambda: "done", True)[1] == "done"

        start = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=caller, args=(count,)) for count in counts]
            for thread in callers:
                thread.start()
            for thread in callers:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert all((count == 1).all() for count in counts)
        assert threading.active_count() == start

    @pytest.mark.parametrize("threaded", [False, True])
    def test_the_earliest_failing_item_wins(self, threaded):
        """Item 0 fails only after ``then`` has run (on the pool, once it has
        started there), item 1 at once: item 0's error is raised, chained to
        ``then``'s, and no thread is left."""
        started, ready = threading.Event(), threading.Event()

        def consume(k):
            if k == 0:
                started.set()
                assert ready.wait(timeout=10)
            raise KeyError(f"item {k}")

        def then():
            assert not threaded or started.wait(timeout=10)
            ready.set()
            raise ValueError("then")

        start = threading.active_count()
        with pytest.raises(KeyError, match="item 0") as excinfo:
            _beside(consume, range(2), then, threaded)
        assert isinstance(excinfo.value.__context__, ValueError)
        assert threading.active_count() == start

    def test_beside_returns_the_items_it_was_given(self):
        items = iter([3, 1, 2])
        assert _beside(lambda k: None, items, lambda: "done", True) == ([3, 1, 2], "done")

    @pytest.mark.parametrize("pool_imported", [False, True])
    def test_propagate_while_the_interpreter_exits(self, pool_imported):
        """From a thread still running after the main thread ended and from an
        ``atexit`` handler, where the pool refuses work (or its module its
        first import), a run of several slices is taken on the calling thread
        and has the bits of a one-slice run."""
        code = """if True:
            import atexit, sys, threading, time
            import numpy as np
            from qspeed import HamiltonianProtocol, QuantumState, _linalg, ground_shift, propagate, qdyn

            sx, sz = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)
            p = ground_shift(HamiltonianProtocol(lambda t: np.cos(t) * sz + 0.3 * sx, 1.0))
            starts = [QuantumState.pure([0.6, 0.8]), QuantumState.mixed(np.diag([0.7, 0.3]))]

            def run():
                return [propagate(p, s0, 64).states.tobytes() for s0 in starts]

            expected = run()
            _linalg.SLICE_BYTES, qdyn.POOL_BYTES = 256, 0
            if sys.argv[1] == "True":
                assert run() == expected

            def check(where):
                assert run() == expected
                print(where, flush=True)

            def after_main():
                while threading.main_thread().is_alive():
                    time.sleep(0.01)
                check("thread")

            atexit.register(check, "atexit")
            threading.Thread(target=after_main).start()
        """
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-W", "error", "-c", code, str(pool_imported)]
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.split() == ["thread", "atexit"]

    def test_import_leaves_the_thread_pool_out(self):
        """``concurrent.futures`` imports ``logging``; only a threaded call loads it."""
        code = "import sys, qspeed; sys.exit('concurrent.futures' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0

    def test_evaluator_exception_in_the_second_midpoint_slice(self, midpoint_slicing):
        """It propagates unchanged, before any later midpoint is evaluated, and
        leaves no thread behind."""
        mid = _midpoints(64)
        calls = []

        def evaluator(t):
            calls.append(t)
            if t == mid[4]:
                raise KeyError("no H at the fifth midpoint")
            return SZ

        start = threading.active_count()
        for s0 in STARTS:
            calls.clear()
            with pytest.raises(KeyError, match="fifth midpoint") as excinfo:
                propagate(HamiltonianProtocol(evaluator, 1.0, dim=2), s0, 64)
            assert excinfo.value.__context__ is None
            assert calls == mid[:5].tolist()
            assert threading.active_count() == start

    def test_nan_in_the_first_midpoint_slice_beats_a_later_evaluator_exception(self, midpoint_slicing):
        """Several slices are checked one by one, so slice 0's NaN is raised
        before slice 2 is evaluated; one slice is evaluated whole first."""
        mid = _midpoints(64)

        def evaluator(t):
            if t == mid[9]:
                raise KeyError("no H in the third slice")
            return SZ * (math.nan if t == mid[0] else 1.0)

        expected = (NotFinite, "non-finite") if midpoint_slicing == "several_slices" else (KeyError, "third slice")
        with pytest.raises(expected[0], match=expected[1]):
            propagate(HamiltonianProtocol(evaluator, 1.0, dim=2), equal_superposition(), 64)

    def test_evaluator_exception_beats_an_eigh_failure_in_an_earlier_slice(self, midpoint_slicing, monkeypatch):
        mid = _midpoints(64)
        failed = threading.Event()

        def failing_eigh(h):
            failed.set()
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        def evaluator(t):
            if t == mid[9]:
                # with a thread, slice 0's eigh has failed by now
                assert midpoint_slicing == "one_slice" or failed.wait(timeout=10)
                raise KeyError("no H in the third slice")
            return SZ

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        start = threading.active_count()
        with pytest.raises(KeyError, match="third slice"):
            propagate(HamiltonianProtocol(evaluator, 1.0, dim=2), equal_superposition(), 64)
        assert threading.active_count() == start

    def test_stack_is_called_once_per_midpoint_slice(self, midpoint_slicing):
        """In time order, covering each midpoint once, and then once for the grid."""
        calls = []

        def stack(ts):
            calls.append(ts.copy())
            return (1.0 + ts)[:, None, None] * SZ + 0.3 * SX

        traj = propagate(HamiltonianProtocol(None, 1.0, dim=2, stack=stack), equal_superposition(), 64)
        *midpoint_calls, grid = calls
        slices = _linalg.row_slices(np.empty((64, 2, 2), dtype=complex))
        assert len(slices) == (16 if midpoint_slicing == "several_slices" else 1)
        assert [len(ts) for ts in midpoint_calls] == [len(range(64)[s]) for s in slices]
        assert np.concatenate(midpoint_calls).tobytes() == _midpoints(64).tobytes()
        assert grid.tobytes() == traj.times.tobytes()

    @pytest.mark.parametrize("rows", [1, 7, 30])
    @pytest.mark.parametrize("dim", [2, 4])
    def test_mixed_observables_have_the_bits_of_one_slice(self, monkeypatch, dim, rows):
        """Moments taken slice by slice on a thread beside the fidelities give
        the bits of a one-slice run."""
        p = ground_shift(random_smooth_protocol(np.random.default_rng(35), dim))
        s0 = random_mixed_state(np.random.default_rng(36), dim)
        whole = propagate(p, s0, 64)
        monkeypatch.setattr(_linalg, "SLICE_BYTES", rows * dim * dim * 16)
        sliced = propagate(p, s0, 64)
        for name in ("states", "mean_energy", "energy_variance", "bures_from_initial"):
            assert getattr(sliced, name).tobytes() == getattr(whole, name).tobytes(), name


def _midpoints(steps, duration=1.0):
    """The midpoint times ``propagate`` evaluates H at."""
    return np.linspace(0.0, duration, steps + 1)[:-1] + duration / steps / 2


@pytest.fixture
def small_slices(monkeypatch):
    """Row slices of 1,000 bytes: 6 matrices at d = 3, 3 at d = 4."""
    monkeypatch.setattr(_linalg, "SLICE_BYTES", 1000)


def whole_stack_fidelity(sqrt_a, b):
    """``fidelity_from_sqrt`` as one pass over all of ``b``."""
    inner = _linalg.symmetrize(sqrt_a @ b @ sqrt_a)
    lam = _linalg._floor_noise(np.clip(np.linalg.eigvalsh(inner), 0.0, None))
    return np.clip(np.sqrt(lam).sum(axis=-1) ** 2, 0.0, 1.0)


def hermitian_stack(n, d, seed=31):
    rng = np.random.default_rng(seed)
    return np.stack([random_hermitian(rng, d) for _ in range(n)])


class TestSlicedPasses:
    """Every pass over a whole stack works on row slices and gives the bits
    of one pass over the whole."""

    def test_row_slices_cover_the_stack_in_order(self, small_slices):
        h = hermitian_stack(40, 3)
        slices = _linalg.row_slices(h)
        assert [s.start for s in slices] == list(range(0, 40, 6))
        assert np.array_equal(np.concatenate([h[s] for s in slices]), h)
        assert _linalg.row_slices(h[:0]) == []

    @pytest.mark.parametrize("mode", ["instantaneous", "global"])
    def test_shifted_stack_has_the_bits_of_a_whole_stack_shift(self, small_slices, mode):
        p = random_smooth_protocol(np.random.default_rng(32), 3)
        shifted = ground_shift(p, mode)
        ts = np.linspace(0.0, p.duration, 41)
        h = p.matrices(ts)
        offset = shifted.global_offset
        if offset is None:
            offset = np.linalg.eigvalsh(h)[:, 0, None, None]
        assert shifted.matrices(ts).tobytes() == (h - offset * np.eye(3)).tobytes()

    @pytest.mark.parametrize("state", [random_pure_state, random_mixed_state], ids=["pure", "mixed"])
    def test_d16_run_has_the_bits_of_one_slice_without_the_pool(self, monkeypatch, state):
        """The path of a d = 16 run: a 4 MiB midpoint stack in 256 KiB slices
        with the pool gives the bits of one slice without it."""
        rng = np.random.default_rng(39)
        p = ground_shift(random_smooth_protocol(rng, 16))
        s0 = state(rng, 16)
        assert len(_linalg.row_slices(np.empty((1024, 16, 16), dtype=complex))) == 16
        sliced, started = threads_started(monkeypatch, lambda: propagate(p, s0, 1024))
        assert started == (1 if s0.is_pure else 2)
        monkeypatch.setattr(_linalg, "SLICE_BYTES", 2**23)
        monkeypatch.setattr(qdyn, "POOL_BYTES", 2**22)
        whole = propagate(p, s0, 1024)
        for name in ("states", "mean_energy", "energy_variance", "bures_from_initial"):
            assert getattr(sliced, name).tobytes() == getattr(whole, name).tobytes(), name

    def test_mixed_states_have_the_bits_of_a_whole_adjoint_stack(self, small_slices):
        rng = np.random.default_rng(33)
        u = _unitaries(*np.linalg.eigh(hermitian_stack(40, 3)), 0.05, 1.0)
        states = np.empty((41, 3, 3), dtype=complex)
        states[0] = random_mixed_state(rng, 3).matrix
        expected = states.copy()
        uh = np.conj(np.swapaxes(u, -1, -2))
        for k in range(40):
            step = u[k] @ expected[k] @ uh[k]
            expected[k + 1] = (step + np.conj(step.T)) / 2
        qdyn._step_states([u[s] for s in _linalg.row_slices(u)], states)
        assert states.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("shape", [(40,), (), (2, 20)], ids=["stack", "single", "batch"])
    def test_fidelity_has_the_bits_of_a_whole_stack_pass(self, small_slices, shape):
        rng = np.random.default_rng(34)
        rhos = np.stack([random_mixed_state(rng, 4).matrix for _ in range(40)])
        b = rhos.reshape(shape + (4, 4)) if shape else rhos[7]
        sqrt_a = _linalg.psd_sqrt(rhos[0])
        f = _linalg.fidelity_from_sqrt(sqrt_a, b)
        expected = whole_stack_fidelity(sqrt_a, b)
        assert np.shape(f) == shape and np.asarray(f).tobytes() == np.asarray(expected).tobytes()

    @pytest.mark.parametrize("nan_row, skew_row", [(31, 2), (2, 31)])
    def test_nan_in_one_slice_beats_a_deviation_in_another(self, small_slices, nan_row, skew_row):
        h = hermitian_stack(40, 3)
        h[skew_row, 0, 1] += 5.0
        h[nan_row, 1, 1] = math.nan
        assert math.isnan(_linalg.hermitian_deviation(h))
        with pytest.raises(NotFinite, match="non-finite entries"):
            _linalg.require_hermitian(h)

    def test_finite_deviation_is_the_whole_stack_value(self, small_slices):
        h = hermitian_stack(40, 3)
        h[7, 0, 2] += 1e-3
        h[33, 2, 1] -= 2e-3j
        dev = _linalg.hermitian_deviation(h)
        assert dev == np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2)))) == _linalg.hermitian_deviation(h[33])
        with pytest.raises(NotHermitian, match=f"by {dev:.3e} "):
            _linalg.require_hermitian(h)


def recording(f, sizes):
    """``f``, recording in ``sizes`` how many matrices each call receives."""

    def record(h, *args, **kwargs):
        sizes.append(len(h))
        return f(h, *args, **kwargs)

    return record


def eigh_unitaries(h, out=None):
    """The step unitaries of ``h`` at dt = 0.037, hbar = 1.3, as ``propagate`` builds them."""
    return _unitaries(*np.linalg.eigh(h), 0.037, 1.3, out=out)


class TestOncePerRun:
    """``_linalg.once_per_run`` gives the bytes of ``f`` on the whole stack,
    handing ``f`` the first matrix of each run of bit-equal matrices."""

    @pytest.mark.parametrize(
        "runs",
        [[1], [40], [1] * 40, [3, 17, 1, 1, 9, 9], [2, 1, 2, 1, 2]],
        ids=["one_row", "all_equal", "none_equal", "runs_across_slices", "short_runs"],
    )
    @pytest.mark.parametrize("f", [np.linalg.eigvalsh, eigh_unitaries], ids=["eigvalsh", "unitaries"])
    def test_bytes_of_f_on_the_whole_stack(self, small_slices, runs, f):
        """Runs of the given lengths, of distinct matrices, at d = 3: 6 rows
        of a slice are compared at a time, so a run of 17 spans three."""
        distinct = hermitian_stack(len(runs), 3)
        stack = np.repeat(distinct, runs, axis=0)
        sizes = []
        got = _linalg.once_per_run(recording(f, sizes), stack)
        assert got.tobytes() == f(stack).tobytes()
        assert sizes == [len(runs)]

    @pytest.mark.parametrize(
        "entry, part, change",
        [
            ((0, 0), "real", "sign_of_zero"),
            ((2, 2), "imag", "sign_of_zero"),
            ((0, 0), "real", "last_bit"),
            ((2, 1), "imag", "last_bit"),
        ],
    )
    def test_rows_that_differ_in_one_bit_are_runs_of_their_own(self, entry, part, change):
        """The first entry is the one compared before whole rows are, in a
        slice that also holds a row whose first entry differs."""
        g, h = hermitian_stack(2, 3)
        if change == "sign_of_zero":
            getattr(h, part)[entry] = 0.0
        stack = np.stack([g, h, h, h])
        view = getattr(stack[3], part)
        view[entry] = -0.0 if change == "sign_of_zero" else np.nextafter(view[entry], math.inf)
        assert stack[3].tobytes() != stack[2].tobytes()
        sizes = []
        got = _linalg.once_per_run(recording(eigh_unitaries, sizes), stack)
        assert got.tobytes() == eigh_unitaries(stack).tobytes()
        assert sizes == [3]

    @pytest.mark.parametrize("runs", [[1] * 12, [5, 7]], ids=["none_equal", "two_runs"])
    def test_out_form(self, runs):
        """The results are written into ``out``, which may be the stack itself."""
        stack = np.repeat(hermitian_stack(len(runs), 4), runs, axis=0)
        expected = eigh_unitaries(stack.copy())
        assert _linalg.once_per_run(eigh_unitaries, stack, out=stack) is stack
        assert stack.tobytes() == expected.tobytes()

    def test_f_gets_the_callers_array_without_a_repeat(self):
        stack = hermitian_stack(12, 4)
        seen = []

        def f(h, out=None):
            seen.append((h, out))
            return np.linalg.eigvalsh(h)

        _linalg.once_per_run(f, stack)
        _linalg.once_per_run(f, stack, out=stack)
        assert seen[0][0] is stack and seen[0][1] is None
        assert seen[1][0] is stack and seen[1][1] is stack

    @pytest.mark.parametrize("mode", ["instantaneous", "global"])
    @pytest.mark.parametrize("drive", ["constant", "smooth"])
    def test_decompositions_per_slice(self, small_slices, monkeypatch, drive, mode):
        """A constant protocol hands ``eigh`` and ``eigvalsh`` one matrix per
        slice, and the global scan one; a smooth one hands over every matrix.
        The instantaneous shift takes the midpoints' and the samples'
        eigenvalues, the global shift those of its scan alone."""
        rng = np.random.default_rng(40)
        if drive == "constant":
            h = random_hermitian(rng, 3)
            base = HamiltonianProtocol(None, 1.0, stack=lambda ts: np.repeat(h[None], len(ts), axis=0))
        else:
            base = random_smooth_protocol(rng, 3)
        s0 = random_pure_state(rng, 3)
        eigh_sizes, eigvalsh_sizes = [], []
        monkeypatch.setattr(np.linalg, "eigh", recording(np.linalg.eigh, eigh_sizes))
        monkeypatch.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh, eigvalsh_sizes))
        propagate(ground_shift(base, mode), s0, 64)
        mid = [len(range(64)[s]) for s in _linalg.row_slices(np.empty((64, 3, 3), dtype=complex))]
        grid = [len(range(65)[s]) for s in _linalg.row_slices(np.empty((65, 3, 3), dtype=complex))]
        shifts = [qdyn.GLOBAL_SCAN_SAMPLES] if mode == "global" else mid + grid
        assert len(mid) == 11
        if drive == "constant":
            mid, shifts = [1] * len(mid), [1] * len(shifts)
        assert eigh_sizes == mid
        assert eigvalsh_sizes == shifts
