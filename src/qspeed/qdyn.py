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
import queue
import sys
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _linalg
from .errors import (
    DimensionMismatch,
    DomainError,
    NotFinite,
    NotNormalized,
    NotPositive,
)

__all__ = [
    "QuantumState",
    "HamiltonianProtocol",
    "Trajectory",
    "validate_state",
    "ground_shift",
    "step_unitary",
    "propagate",
]

NORM_TOL = 1e-6
GLOBAL_SCAN_SAMPLES = 1025
_SCAN = f"the global shift's ({GLOBAL_SCAN_SAMPLES}, dim, dim) scan"
GROUND_SHIFT_MODES = ("instantaneous", "global")
# a run holds a few (samples, dim, dim) complex arrays; a larger grid is
# refused before anything is allocated
MAX_ARRAY_BYTES = 2**32
_EVAL_BLOCK = 256  # evaluator samples converted to complex by one np.array call


@dataclass(frozen=True, eq=False)
class QuantumState:
    """A pure state vector (``amplitudes``) or a density matrix (``matrix``).

    The state is pure when ``amplitudes`` is set, and its dimension is read
    from whichever array is set.  Construct through :meth:`pure` /
    :meth:`mixed` (or :func:`validate_state`), which canonicalize the data:
    unit norm for vectors; Hermitian, unit-trace, positive semidefinite
    matrices for density operators.
    """

    amplitudes: np.ndarray | None = None
    matrix: np.ndarray | None = None

    @staticmethod
    def pure(amplitudes) -> "QuantumState":
        return validate_state(QuantumState(amplitudes=np.asarray(amplitudes, dtype=complex).reshape(-1)))

    @staticmethod
    def mixed(matrix) -> "QuantumState":
        return validate_state(QuantumState(matrix=np.asarray(matrix, dtype=complex)))

    @property
    def is_pure(self) -> bool:
        return self.amplitudes is not None

    @property
    def dim(self) -> int:
        return (self.amplitudes if self.is_pure else self.matrix).shape[0]

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
    :class:`NotHermitian`, and a vector that is not 1-D, a matrix that is
    not square, or a state with both arrays set :class:`DimensionMismatch`.
    """
    if s.is_pure and s.matrix is not None:
        raise DimensionMismatch("a state sets amplitudes or matrix, not both")
    if s.is_pure:
        amps = np.asarray(s.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise DimensionMismatch("pure state requires a 1-D amplitude vector")
        if not np.isfinite(amps).all():
            raise NotFinite("pure state amplitudes are non-finite")
        # finite amplitudes can still overflow the sum of squares
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(amps))
        if not math.isfinite(norm):
            raise NotNormalized("pure state norm overflows a float; amplitudes must have unit norm")
        if abs(norm - 1.0) > NORM_TOL:
            raise NotNormalized(f"pure state norm {norm:.8f} deviates from 1 beyond {NORM_TOL:g}")
        return QuantumState(amplitudes=amps / norm)

    shape = np.shape(s.matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise DimensionMismatch(f"density matrix must be square, got shape {shape}")
    rho = _linalg.symmetrize(_linalg.require_hermitian(s.matrix, NORM_TOL, "density matrix"))
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > NORM_TOL:
        raise NotNormalized(f"density matrix trace {trace:.8f} deviates from 1 beyond {NORM_TOL:g}")
    w, v = np.linalg.eigh(rho)
    w = _linalg.clamped_nonneg(w, "density matrix")
    rho = (v * (w / w.sum())) @ v.conj().T
    return QuantumState(matrix=_linalg.symmetrize(rho))


def require_grid_fits(samples: int, dim: int, what: str):
    """:class:`DomainError` naming ``what`` if a (samples, dim, dim) complex array would pass ``MAX_ARRAY_BYTES``."""
    if samples * dim * dim * 16 > MAX_ARRAY_BYTES:
        raise DomainError(f"{what} of complex numbers exceeds {MAX_ARRAY_BYTES >> 30} GiB")


def step_size(duration: float, steps: int, dim: int, shift_mode: str = "instantaneous") -> float:
    """``duration / steps`` if a run meets every start rule, else :class:`DomainError` before anything
    is allocated: ``steps`` an integer >= 2 (not a bool), the (steps + 1, dim, dim) grid and the
    ``global`` shift's scan within ``MAX_ARRAY_BYTES``, and a step of at least the smallest normal float."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
        raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
    require_grid_fits(int(steps) + 1, dim, "the (steps + 1, dim, dim) grid")
    if shift_mode == "global":
        require_grid_fits(GLOBAL_SCAN_SAMPLES, dim, _SCAN)
    dt = duration / int(steps)
    if dt < sys.float_info.min:
        raise DomainError(f"duration {duration!r} / steps {steps} is below the smallest normal float")
    return dt


def require_positive(value: float, name: str):
    """:class:`DomainError` unless ``value`` is a finite number > 0 (not NaN or a bool)."""
    if isinstance(value, (bool, np.bool_)) or not 0 < value < math.inf:
        raise DomainError(f"{name} must be a finite number > 0, got {value}")


@dataclass(frozen=True, eq=False)
class HamiltonianProtocol:
    """A driving protocol: t -> H(t) on [0, duration], with hbar attached.

    ``evaluator`` must return a Hermitian d x d matrix in energy units for
    every t in [0, duration].  A protocol may instead give ``stack``, which
    maps an array of n times to the (n, d, d) stack of H(t) in one call and
    is then used in place of ``evaluator``.  Hermiticity is validated on
    every evaluation.
    """

    evaluator: Callable[[float], np.ndarray] | None
    duration: float
    hbar: float = 1.0
    label: str = ""
    dim: int = 0
    stack: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name in ("duration", "hbar"):
            require_positive(getattr(self, name), name)
        if self.evaluator is None and self.stack is None:
            raise DomainError("a protocol needs an evaluator or a stack")
        if self.dim == 0:
            # a one-sample stack, (1, d, d) when H(0) is a matrix
            shape = np.shape(self.stack(np.zeros(1)) if self.stack is not None else [self.evaluator(0.0)])
            if len(shape) < 3:
                raise DimensionMismatch(f"H(t) probe at t = 0 has shape {shape[1:]}, expected a (d, d) matrix")
            object.__setattr__(self, "dim", shape[1])

    def matrix(self, t: float) -> np.ndarray:
        """H(t), the one-sample stack of :meth:`matrices`."""
        return self.matrices([t])[0]

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        """Stack of H(t) over the given sample times, shape (len(ts), d, d).

        One call of ``stack`` when it is set, else one ``evaluator`` call per
        sample, in order, with samples converted to complex once per block of
        256: a matrix the evaluator returns must not change when it is called
        again, and a block runs to its end before a wrongly shaped sample in it
        raises :class:`DimensionMismatch`, so an evaluator error later in the
        block comes first.  Validates the shape, Hermiticity, and that every
        entry is finite, once on the whole stack; subclasses may override to
        batch further per-sample work.

        The caller owns the returned array and may overwrite it: the ``stack``
        result is copied, so an array that ``stack`` keeps is never handed
        out.  An override must return an array its caller owns as well.
        """
        ts = np.asarray(ts, dtype=float)
        if self.stack is not None:
            stack = np.array(self.stack(ts), dtype=complex)
            if stack.shape != (len(ts), self.dim, self.dim):
                raise DimensionMismatch(f"H(t) stack has shape {stack.shape}, expected {(len(ts), self.dim, self.dim)}")
        else:
            stack = np.empty((len(ts), self.dim, self.dim), dtype=complex)
            times = ts.tolist()
            for lo in range(0, len(times), _EVAL_BLOCK):
                block = [self.evaluator(t) for t in times[lo : lo + _EVAL_BLOCK]]
                try:
                    hs = np.array(block, dtype=complex)
                except (TypeError, ValueError):
                    hs = None
                if hs is not None and hs.shape[1:] == stack.shape[1:]:
                    stack[lo : lo + len(block)] = hs
                else:
                    # ragged or wrongly shaped: convert per sample to name the first bad t
                    for k, (t, h) in enumerate(zip(times[lo:], block), lo):
                        h = np.asarray(h, dtype=complex)
                        if h.shape != stack.shape[1:]:
                            raise DimensionMismatch(f"H(t) at t = {t!r} has shape {h.shape}, expected {stack.shape[1:]}")
                        stack[k] = h
                del block, hs  # freed before the next block and the Hermiticity check
        return _linalg.require_hermitian(stack, what="H(t) on the sample grid")


@dataclass(frozen=True, eq=False)
class _GroundShiftedProtocol(HamiltonianProtocol):
    """``stack``, the base protocol's :meth:`matrices`, shifted down by its
    instantaneous ground energy, or by ``global_offset`` when set.  The shift
    is subtracted in place, from the array ``stack`` returns, which its
    caller owns."""

    global_offset: float | None = None

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        stack = self.stack(ts)
        for s in _linalg.row_slices(stack):
            offset = self.global_offset
            if offset is None:
                offset = np.linalg.eigvalsh(stack[s])[:, 0, None, None]
            stack[s] -= offset * np.eye(self.dim)
        return stack


def ground_shift(p: HamiltonianProtocol, mode: str = "instantaneous") -> HamiltonianProtocol:
    """Shift the protocol so mean energies are measured above the ground state.

    ``instantaneous`` (default) subtracts the lowest eigenvalue of H(t) at each
    time, keeping <H_t> >= 0 pointwise.  ``global`` subtracts a single constant,
    the minimum instantaneous ground energy over a uniform scan of
    ``GLOBAL_SCAN_SAMPLES`` times in [0, duration].  Either way the returned
    protocol evaluates ``p`` and applies the shift in place to the whole H(t)
    stack that ``p.matrices`` returns.
    The scan must fit the cap :func:`step_size` also holds it to, else
    :class:`DomainError` is raised before H is evaluated.
    """
    if mode not in GROUND_SHIFT_MODES:
        raise DomainError(f"unknown ground shift mode {mode!r}")
    offset = None
    if mode == "global":
        require_grid_fits(GLOBAL_SCAN_SAMPLES, p.dim, _SCAN)
        ts = np.linspace(0.0, p.duration, GLOBAL_SCAN_SAMPLES)
        offset = float(np.linalg.eigvalsh(p.matrices(ts))[:, 0].min())

    label = f"{p.label}+gshift[{mode}]" if p.label else f"gshift[{mode}]"
    return _GroundShiftedProtocol(None, p.duration, p.hbar, label, p.dim, stack=p.matrices, global_offset=offset)


def _unitaries(w: np.ndarray, v: np.ndarray, dt: float, hbar: float, out: np.ndarray | None = None) -> np.ndarray:
    """V exp(-i W dt / hbar) V† from eigenpairs, for one H or a stack, written
    into ``out`` when it is given, which may be the H that ``w`` and ``v`` came
    from; ``v`` is overwritten with V exp(-i W dt / hbar).

    A stacked matmul, because it gives the same bits as building each
    slice on its own; an einsum contraction does not.  Raises
    :class:`NotFinite` when a phase E dt / hbar overflows, naming the
    largest |E| of ``w``.
    """
    # numpy's complex division scales by 1 / hbar, which overflows for a
    # subnormal hbar even when E dt / hbar itself is small
    with np.errstate(over="ignore", invalid="ignore"):
        angles = -1j * w * dt / hbar
    if not np.isfinite(angles).all():
        top = float(np.abs(w).max())
        raise NotFinite(f"step phase |E|*dt/hbar overflows a float (max |E| = {top:g}, dt = {dt:g}, hbar = {hbar:g})")
    phases = np.exp(angles)
    vh = np.conj(np.swapaxes(v, -1, -2))
    v *= phases[..., None, :]
    return np.matmul(v, vh, out=out)


def _unitaries_into(h: np.ndarray, dt: float, hbar: float, slices: queue.SimpleQueue, errors: list):
    """Overwrite ``h[s]`` with its step unitaries, ``_unitaries`` of
    ``np.linalg.eigh(h[s])``, for each slice ``s`` taken from ``slices`` until
    it is empty, so threads that share the queue share the work; an exception
    is appended to ``errors`` for the caller to raise."""
    try:
        while True:
            s = slices.get_nowait()
            _unitaries(*np.linalg.eigh(h[s]), dt, hbar, out=h[s])
    except queue.Empty:
        pass
    except Exception as exc:
        errors.append(exc)


def _step_states(u: np.ndarray, states: np.ndarray):
    """Fill ``states[1:]`` in place from ``states[0]``: psi -> U_k psi, or
    rho -> symmetrize(U_k rho U_k†) operation for operation, through buffers
    allocated once: three d x d matrices, and the adjoints U_k† of one
    :func:`_linalg.row_slices` slice of ``u`` at a time.  No view of ``u``
    outlives the call, so the caller can free it."""
    if states.ndim == 2:
        for uk, src, dst in zip(u, states, states[1:]):
            np.matmul(uk, src, out=dst)
        return
    left, step, adj = (np.empty(u.shape[1:], dtype=complex) for _ in range(3))
    slices = _linalg.row_slices(u)
    # U_k† of one slice, in the transposed layout np.conj(np.swapaxes(u))
    # has: a matmul's bits may depend on the layout of its operands
    uh = np.swapaxes(np.empty_like(u[slices[0]]), -1, -2)
    for s in slices:
        adjoints = np.conjugate(np.swapaxes(u[s], -1, -2), out=uh[: len(u[s])])
        for uk, uhk, src, dst in zip(u[s], adjoints, states[s], states[s.start + 1 :]):
            np.matmul(uk, src, out=left)
            np.matmul(left, uhk, out=step)
            # adj = step†, then dst = (step + step†) / 2, as _linalg.symmetrize
            np.conjugate(step, out=adj.T)
            np.add(step, adj, out=adj)
            np.divide(adj, 2, out=dst)


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
    alone, so all N unitaries are built before the loop; the loop only
    applies them in order, writing each state in place, and they are freed
    before the observables.  The midpoint H stack, which
    :meth:`~HamiltonianProtocol.matrices` hands over to this call, becomes
    the unitary stack in place: each :func:`_linalg.row_slices` slice is
    decomposed by ``eigh`` and overwritten with its unitaries by the
    stacked matmul that :func:`step_unitary` also uses.  The protocol
    is evaluated on the calling thread, at the midpoints and then at the
    N+1 samples; when the midpoint stack spans more than one slice, a
    worker thread that this call starts and joins works through the slices
    meanwhile.  The bits are those of running the two in sequence.
    Per-sample observables (<H_t>, variance, Bures angle from the start, and
    for pure runs the complex overlap with the initial state) are computed
    from the H(t) stack at the samples, which the trajectory keeps.  The
    errors of the midpoint slices (an ``eigh`` failure, or a step phase that
    overflows, whose message names the largest |E| of its slice) go into one
    list, whose first entry is raised before an error of the samples.  A
    non-finite H(t), variance or purity raises :class:`NotFinite`; a run that
    :func:`step_size` refuses raises its :class:`DomainError` before H(t) is evaluated.
    """
    dt = step_size(p.duration, steps, p.dim)
    n = int(steps)
    s0 = validate_state(s0)
    if s0.dim != p.dim:
        raise DimensionMismatch(f"state dim {s0.dim} != protocol dim {p.dim}")

    times = np.linspace(0.0, p.duration, n + 1)
    d = p.dim

    # LAPACK releases the GIL, so the worker turns midpoint slices into step
    # unitaries while this thread evaluates the grid; this thread takes the
    # slices left when the grid is done.  A stack of one slice gets no worker:
    # starting a thread costs more than the overlap saves, and how long it
    # takes varies from run to run.  An error of a midpoint slice, raised in
    # the finally, replaces a grid error.
    u = p.matrices(times[:-1] + dt / 2)
    slices = queue.SimpleQueue()
    for s in _linalg.row_slices(u):
        slices.put(s)
    errors = []
    worker = None
    if slices.qsize() > 1:
        worker = threading.Thread(target=_unitaries_into, args=(u, dt, p.hbar, slices, errors))
        worker.start()
    try:
        h_samp = p.matrices(times)
    finally:
        _unitaries_into(u, dt, p.hbar, slices, errors)
        if worker is not None:
            worker.join()
        if errors:
            raise errors[0]

    pure = s0.is_pure
    states = np.empty((n + 1, d) if pure else (n + 1, d, d), dtype=complex)
    states[0] = s0.amplitudes if pure else s0.matrix
    _step_states(u, states)
    del u

    if pure:
        me = np.einsum("ti,tij,tj->t", states.conj(), h_samp, states).real
        hpsi = np.einsum("tij,tj->ti", h_samp, states)
        m2 = np.einsum("ti,ti->t", hpsi.conj(), hpsi).real
        overlap = np.einsum("i,ti->t", states[0].conj(), states)
        # arctan2 of the orthogonal-component norm against |overlap| is the
        # same angle as arccos(|overlap|) but stays accurate near L = 0
        residual = np.linalg.norm(states - overlap[:, None] * states[0][None, :], axis=1)
        bures = np.arctan2(residual, np.abs(overlap))
    else:
        me = np.einsum("tij,tji->t", states, h_samp).real
        m2 = np.einsum("tij,tjk,tki->t", states, h_samp, h_samp).real
        overlap = None
        sqrt0 = _linalg.psd_sqrt(states[0], "initial state")
        bures = _linalg.bures_angle_from_fidelity(_linalg.fidelity_from_sqrt(sqrt0, states))
    bures[0] = 0.0

    # both checks are written to fail on NaN as well; an overflow is named below
    with np.errstate(over="ignore", invalid="ignore"):
        var = m2 - me**2
    lowest = float(var.min())
    if not lowest >= -1e-9 * max(1.0, float(np.abs(m2).max())):
        if not math.isfinite(lowest):
            raise NotFinite("energy variance is non-finite along the trajectory: <H^2> overflows a float")
        raise NotPositive(f"energy variance dipped to {lowest:.3e} along the trajectory")
    var = np.clip(var, 0.0, None)

    # tr(rho^2), which is |psi|^4 for a state vector
    purities = np.linalg.norm(states, axis=1) ** 4 if pure else np.einsum("tij,tji->t", states, states).real
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
