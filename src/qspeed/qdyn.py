"""Quantum states, time-dependent Hamiltonian protocols, and unitary propagation.

States are finite-dimensional pure vectors or density matrices.  A protocol
wraps a map t -> H(t) (Hermitian, energy units) over a duration tau together
with the value of hbar, which is carried explicitly through every formula.
Propagation uses exponential midpoint stepping: each step applies the exact
unitary of the Hamiltonian sampled at the step midpoint, built by
eigendecomposition, so unitarity, trace, and purity are preserved to machine
precision while the time dependence is resolved to second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal

import numpy as np

from . import _linalg
from .errors import (
    DimensionMismatch,
    DomainError,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotPositive,
    StepCountTooSmall,
)

__all__ = [
    "QuantumState",
    "EigenSystem",
    "HamiltonianProtocol",
    "Trajectory",
    "validate_state",
    "eigensystem",
    "ground_shift",
    "mean_energy",
    "energy_variance",
    "step_unitary",
    "propagate",
]

NORM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure state vector or a density matrix of dimension ``dim``.

    Construct through :meth:`pure` / :meth:`mixed` (or :func:`validate_state`),
    which canonicalize the data: unit norm for vectors; Hermitian, unit-trace,
    positive semidefinite matrices for density operators.
    """

    kind: Literal["pure", "mixed"]
    dim: int
    amplitudes: np.ndarray | None = None
    matrix: np.ndarray | None = None

    @staticmethod
    def pure(amplitudes) -> "QuantumState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(-1)
        return validate_state(QuantumState("pure", vec.size, amplitudes=vec))

    @staticmethod
    def mixed(matrix) -> "QuantumState":
        mat = np.asarray(matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise DimensionMismatch(f"density matrix must be square, got shape {mat.shape}")
        return validate_state(QuantumState("mixed", mat.shape[0], matrix=mat))

    @property
    def is_pure(self) -> bool:
        return self.kind == "pure"

    def density_matrix(self) -> np.ndarray:
        """The d x d density operator (outer product for pure states)."""
        if self.is_pure:
            return np.outer(self.amplitudes, self.amplitudes.conj())
        return self.matrix

    def purity(self) -> float:
        """tr(rho^2); equals 1 for pure states."""
        if self.is_pure:
            return float(np.linalg.norm(self.amplitudes) ** 4)
        return float(np.einsum("ij,ji->", self.matrix, self.matrix).real)


def validate_state(s: QuantumState) -> QuantumState:
    """Canonicalize a state, or raise if it is not a valid quantum state.

    Pure vectors are renormalized when the norm deviation is below 1e-6;
    density matrices are symmetrized, their eigenvalues clipped at zero from
    below (rejected below -1e-6), and the trace renormalized.  Larger
    deviations raise :class:`NotNormalized` / :class:`NotPositive` /
    :class:`NotHermitian`.
    """
    if s.kind == "pure":
        if s.amplitudes is None or s.amplitudes.ndim != 1:
            raise DimensionMismatch("pure state requires a 1-D amplitude vector")
        if s.amplitudes.size != s.dim:
            raise DimensionMismatch(f"dim {s.dim} != amplitude length {s.amplitudes.size}")
        if not np.isfinite(s.amplitudes).all():
            raise NotFinite("pure state amplitudes are non-finite")
        # finite amplitudes can still overflow the sum of squares
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(s.amplitudes))
        if not math.isfinite(norm):
            raise NotNormalized("pure state norm overflows a float; amplitudes must have unit norm")
        if abs(norm - 1.0) > NORM_TOL:
            raise NotNormalized(f"pure state norm {norm:.8f} deviates from 1 beyond {NORM_TOL:g}")
        return QuantumState("pure", s.dim, amplitudes=s.amplitudes / norm)

    if s.matrix is None or s.matrix.shape != (s.dim, s.dim):
        raise DimensionMismatch(f"mixed state requires a {s.dim} x {s.dim} matrix")
    rho = _linalg.symmetrize(_linalg.require_hermitian(s.matrix, NORM_TOL, "density matrix"))
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > NORM_TOL:
        raise NotNormalized(f"density matrix trace {trace:.8f} deviates from 1 beyond {NORM_TOL:g}")
    w, v = np.linalg.eigh(rho)
    w = _linalg.clamped_nonneg(w, "density matrix")
    rho = (v * (w / w.sum())) @ v.conj().T
    return QuantumState("mixed", s.dim, matrix=_linalg.symmetrize(rho))


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ascending eigenvalues and the unitary of eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    h = np.asarray(h, dtype=complex)
    w, v = _linalg.eigh_checked(h, what="Hamiltonian")
    return EigenSystem(eigenvalues=w, eigenvectors=v)


@dataclass(frozen=True, eq=False)
class HamiltonianProtocol:
    """A driving protocol: t -> H(t) on [0, duration], with hbar attached.

    ``evaluator`` must return a Hermitian d x d matrix in energy units for
    every t in [0, duration].  A protocol may instead give ``stack``, which
    maps an array of n times to the (n, d, d) stack of H(t) in one call;
    its ``evaluator`` is then the one-sample stack :meth:`matrix`.
    Hermiticity is validated on every evaluation.
    """

    evaluator: Callable[[float], np.ndarray] | None
    duration: float
    hbar: float = 1.0
    label: str = ""
    dim: int = 0
    stack: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name in ("duration", "hbar"):
            # false for NaN and infinities too
            if not 0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be a finite number > 0, got {getattr(self, name)}")
        if self.stack is not None:
            object.__setattr__(self, "evaluator", self.matrix)
        elif self.evaluator is None:
            raise DomainError("a protocol needs an evaluator or a stack")
        if self.dim == 0:
            probe = self.stack(np.zeros(1))[0] if self.stack is not None else self.evaluator(0.0)
            object.__setattr__(self, "dim", np.shape(probe)[0])

    def matrix(self, t: float) -> np.ndarray:
        """H(t), the one-sample stack of :meth:`matrices`."""
        return self.matrices([t])[0]

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        """Stack of H(t) over the given sample times, shape (len(ts), d, d).

        One call of ``stack`` when it is set, else one ``evaluator`` call per
        sample.  Validates the shape, Hermiticity, and that every entry is
        finite, once on the whole stack; subclasses may override to batch
        further per-sample work.
        """
        ts = np.asarray(ts, dtype=float)
        if self.stack is not None:
            stack = np.asarray(self.stack(ts), dtype=complex)
        else:
            stack = np.stack([np.asarray(self.evaluator(float(t)), dtype=complex) for t in ts])
        if stack.shape != (len(ts), self.dim, self.dim):
            raise DimensionMismatch(f"H(t) stack has shape {stack.shape}, expected {(len(ts), self.dim, self.dim)}")
        return _linalg.require_hermitian(stack, what="H(t) on the sample grid")


@dataclass(frozen=True, eq=False)
class _GroundShiftedProtocol(HamiltonianProtocol):
    """``base`` shifted down by its instantaneous ground energy, or by
    ``global_offset`` when set; the shift is applied in :meth:`matrices` only."""

    base: HamiltonianProtocol | None = None
    global_offset: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "evaluator", self.matrix)
        super().__post_init__()

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        stack = self.base.matrices(ts)
        eye = np.eye(self.dim)
        if self.global_offset is None:
            e0 = np.linalg.eigvalsh(stack)[:, 0]
            return stack - e0[:, None, None] * eye
        return stack - self.global_offset * eye


def ground_shift(
    p: HamiltonianProtocol,
    mode: Literal["instantaneous", "global"] = "instantaneous",
    scan_samples: int = 1024,
) -> HamiltonianProtocol:
    """Shift the protocol so mean energies are measured above the ground state.

    ``instantaneous`` (default) subtracts the lowest eigenvalue of H(t) at each
    time, keeping <H_t> >= 0 pointwise.  ``global`` subtracts a single constant,
    the minimum instantaneous ground energy over a uniform scan of
    ``scan_samples`` + 1 times in [0, duration].  Either way the returned
    protocol evaluates ``p`` and applies the shift to the whole H(t) stack.
    """
    if mode == "instantaneous":
        offset = None
    elif mode == "global":
        ts = np.linspace(0.0, p.duration, scan_samples + 1)
        offset = float(np.linalg.eigvalsh(p.matrices(ts))[:, 0].min())
    else:
        raise DomainError(f"unknown ground shift mode {mode!r}")

    label = f"{p.label}+gshift[{mode}]" if p.label else f"gshift[{mode}]"
    # __post_init__ binds the evaluator to the shifted one-sample stack
    return _GroundShiftedProtocol(None, p.duration, p.hbar, label, p.dim, base=p, global_offset=offset)


def mean_energy(s: QuantumState, h: np.ndarray) -> float:
    """tr(rho H), or <psi|H|psi> for pure states; the real part is returned
    after checking the imaginary residue is below 1e-9 of the local scale."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (s.dim, s.dim):
        raise DimensionMismatch(f"H shape {h.shape} does not match state dim {s.dim}")
    if s.is_pure:
        val = complex(s.amplitudes.conj() @ (h @ s.amplitudes))
    else:
        val = complex(np.einsum("ij,ji->", s.matrix, h))
    scale = max(1.0, abs(val))
    if abs(val.imag) > 1e-9 * scale:
        raise NotHermitian(f"mean energy has imaginary residue {val.imag:.3e}")
    return float(val.real)


def energy_variance(s: QuantumState, h: np.ndarray) -> float:
    """<H^2> - <H>^2, clamped to 0 when within -1e-9 of zero."""
    h = np.asarray(h, dtype=complex)
    if h.shape != (s.dim, s.dim):
        raise DimensionMismatch(f"H shape {h.shape} does not match state dim {s.dim}")
    if s.is_pure:
        hpsi = h @ s.amplitudes
        m1 = float((s.amplitudes.conj() @ hpsi).real)
        m2 = float(np.linalg.norm(hpsi) ** 2)
    else:
        m1 = float(np.einsum("ij,ji->", s.matrix, h).real)
        m2 = float(np.einsum("ij,jk,ki->", s.matrix, h, h).real)
    var = m2 - m1 * m1
    if var < -1e-9 * max(1.0, m2):
        raise NotPositive(f"energy variance {var:.3e} is negative beyond tolerance")
    return max(var, 0.0)


def _unitaries(w: np.ndarray, v: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    """V exp(-i W dt / hbar) V† from eigenpairs, for one H or a stack.

    A stacked matmul, because it gives the same bits as building each
    slice on its own; an einsum contraction does not.  Raises
    :class:`NotFinite` when a phase E dt / hbar overflows.
    """
    # numpy's complex division scales by 1 / hbar, which overflows for a
    # subnormal hbar even when E dt / hbar itself is small
    with np.errstate(over="ignore", invalid="ignore"):
        angles = -1j * w * dt / hbar
    if not np.isfinite(angles).all():
        top = float(np.abs(w).max())
        raise NotFinite(f"step phase |E|*dt/hbar overflows a float (max |E| = {top:g}, dt = {dt:g}, hbar = {hbar:g})")
    phases = np.exp(angles)
    return (v * phases[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def step_unitary(h: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    """exp(-i H dt / hbar) via eigendecomposition; exactly unitary."""
    w, v = _linalg.eigh_checked(np.asarray(h, dtype=complex), what="step Hamiltonian")
    return _unitaries(w, v, dt, hbar)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A uniformly sampled run: state and H(t) arrays plus per-sample observables.

    ``times`` holds N+1 uniform samples on [0, tau].  ``states`` is the
    (N+1, d) array of state vectors of a pure run or the (N+1, d, d) array of
    density matrices of a mixed run; ``h_samples`` is the (N+1, d, d) stack of
    H(t) at ``times`` that every observable was computed from.
    ``overlap_with_initial`` is filled only for pure runs;
    ``bures_from_initial`` is the Bures angle L(rho_0, rho_t) at every sample
    (for pure runs computed from the overlap magnitude, which is the
    numerically sharper equivalent route).
    """

    times: np.ndarray
    states: np.ndarray
    h_samples: np.ndarray
    mean_energy: np.ndarray
    energy_variance: np.ndarray
    bures_from_initial: np.ndarray
    hbar: float
    protocol: HamiltonianProtocol
    overlap_with_initial: np.ndarray | None = None

    @property
    def tau(self) -> float:
        return float(self.times[-1])

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def is_pure(self) -> bool:
        return self.states.ndim == 2

    @property
    def dim(self) -> int:
        return self.states.shape[-1]

    @property
    def label(self) -> str:
        return self.protocol.label


def propagate(p: HamiltonianProtocol, s0: QuantumState, steps: int) -> Trajectory:
    """Evolve ``s0`` under the protocol with N = ``steps`` midpoint-exponential
    steps and return the densely sampled trajectory.

    Each step applies U_k = exp(-i H(t_k + dt/2) dt / hbar); pure amplitudes
    are mapped psi -> U psi, densities rho -> U rho U†.  U_k depends on H
    alone, so all N unitaries (and, for densities, their adjoints) are built
    before the loop, from one batched eigendecomposition of the midpoint H
    stack and the stacked matmul that :func:`step_unitary` also uses; the
    loop only applies them in order.  Per-sample observables (<H_t>,
    variance, Bures angle from the start, and for pure runs the complex
    overlap with the initial state) are computed from the H(t) stack at the
    N+1 samples, which the trajectory keeps.  A non-finite H(t), variance
    or purity raises :class:`NotFinite`.
    """
    if steps < 2:
        raise StepCountTooSmall(f"need at least 2 steps, got {steps}")
    if s0.dim != p.dim:
        raise DimensionMismatch(f"state dim {s0.dim} != protocol dim {p.dim}")
    s0 = validate_state(s0)

    n = int(steps)
    times = np.linspace(0.0, p.duration, n + 1)
    dt = p.duration / n
    d = p.dim

    # the midpoint H stack and its eigenvectors are released once the
    # unitaries exist, so building them all up front does not raise peak memory
    w, v = np.linalg.eigh(p.matrices(times[:-1] + dt / 2))
    u = _unitaries(w, v, dt, p.hbar)
    del w, v

    pure = s0.is_pure
    if pure:
        psis = np.empty((n + 1, d), dtype=complex)
        psis[0] = s0.amplitudes
        for k in range(n):
            psis[k + 1] = u[k] @ psis[k]
        states = psis
    else:
        uh = np.conj(np.swapaxes(u, -1, -2))
        rhos = np.empty((n + 1, d, d), dtype=complex)
        rhos[0] = s0.matrix
        for k in range(n):
            rhos[k + 1] = _linalg.symmetrize(u[k] @ rhos[k] @ uh[k])
        states = rhos
        del uh
    del u

    h_samp = p.matrices(times)

    if pure:
        me = np.einsum("ti,tij,tj->t", psis.conj(), h_samp, psis).real
        hpsi = np.einsum("tij,tj->ti", h_samp, psis)
        m2 = np.einsum("ti,ti->t", hpsi.conj(), hpsi).real
        overlap = np.einsum("i,ti->t", psis[0].conj(), psis)
        # arctan2 of the orthogonal-component norm against |overlap| is the
        # same angle as arccos(|overlap|) but stays accurate near L = 0
        residual = np.linalg.norm(psis - overlap[:, None] * psis[0][None, :], axis=1)
        bures = np.arctan2(residual, np.abs(overlap))
    else:
        me = np.einsum("tij,tji->t", rhos, h_samp).real
        m2 = np.einsum("tij,tjk,tki->t", rhos, h_samp, h_samp).real
        overlap = None
        sqrt0 = _linalg.psd_sqrt(rhos[0], "initial state")
        bures = _linalg.bures_angle_from_fidelity(_linalg.fidelity_from_sqrt(sqrt0, rhos))
    bures[0] = 0.0

    # both checks are written to fail on NaN as well
    var = m2 - me**2
    lowest = float(var.min())
    if not lowest >= -1e-9 * max(1.0, float(np.abs(m2).max())):
        if not math.isfinite(lowest):
            raise NotFinite("energy variance is non-finite along the trajectory")
        raise NotPositive(f"energy variance dipped to {lowest:.3e} along the trajectory")
    var = np.clip(var, 0.0, None)

    # tr(rho^2), which is |psi|^4 for a state vector
    purities = np.linalg.norm(psis, axis=1) ** 4 if pure else np.einsum("tij,tji->t", rhos, rhos).real
    drift = float(np.max(np.abs(purities - purities[0])))
    if not drift <= 1e-8:
        if not math.isfinite(drift):
            raise NotFinite("purity is non-finite along the trajectory")
        raise NotPositive(f"purity drifted by {drift:.3e} along the trajectory; propagation is not unitary")

    return Trajectory(
        times=times,
        states=states,
        h_samples=h_samp,
        mean_energy=me,
        energy_variance=var,
        bures_from_initial=bures,
        hbar=p.hbar,
        protocol=p,
        overlap_with_initial=overlap,
    )
