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

import contextlib
import math
import sys
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
GROUND_SHIFT_MODES = ("instantaneous", "global")
# a run holds a few (samples, dim, dim) complex arrays; a larger grid is
# refused before anything is allocated
MAX_ARRAY_BYTES = 2**32
# propagate turns a midpoint stack of more bytes than this (d >= 9 at
# N = 2048) into unitaries on a thread beside the calling one
POOL_BYTES = 2**21


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
        return validate_state(QuantumState(amplitudes=np.asarray(amplitudes, dtype=complex)))

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
    not square, a state of dim 0, or a state with both arrays set
    :class:`DimensionMismatch`.
    """
    if s.is_pure and s.matrix is not None:
        raise DimensionMismatch("a state sets amplitudes or matrix, not both")
    if s.is_pure:
        amps = np.asarray(s.amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0:
            raise DimensionMismatch(f"pure state requires a 1-D amplitude vector of dim >= 1, got shape {amps.shape}")
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
    if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
        raise DimensionMismatch(f"density matrix must be square with dim >= 1, got shape {shape}")
    rho = _linalg.symmetrize(_linalg.require_hermitian(s.matrix, NORM_TOL, "density matrix"))
    trace = float(np.trace(rho).real)
    if abs(trace - 1.0) > NORM_TOL:
        raise NotNormalized(f"density matrix trace {trace:.8f} deviates from 1 beyond {NORM_TOL:g}")
    w, v = np.linalg.eigh(rho)
    w = _linalg.clamped_nonneg(w, "density matrix")
    rho = (v * (w / w.sum())) @ v.conj().T
    return QuantumState(matrix=_linalg.symmetrize(rho))


def step_size(duration: float, steps: int, dim: int) -> float:
    """``duration / steps`` if a run meets every start rule, else :class:`DomainError` before anything
    is allocated: ``steps`` an integer >= 2 (not a bool), the (steps + 1, dim, dim) grid within
    ``MAX_ARRAY_BYTES``, and a step of at least the smallest normal float."""
    if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)) or steps < 2:
        raise DomainError(f"steps must be an integer >= 2, got {steps!r}")
    if (int(steps) + 1) * dim * dim * 16 > MAX_ARRAY_BYTES:
        raise DomainError(f"the (steps + 1, dim, dim) grid of complex numbers exceeds {MAX_ARRAY_BYTES >> 30} GiB")
    dt = duration / int(steps)
    if dt < sys.float_info.min:
        raise DomainError(f"duration {duration!r} / steps {steps} is below the smallest normal float")
    return dt


def run_integral(y: np.ndarray, dt: float, s: float, what: str) -> float:
    """(trapezoid integral of the samples ``y`` at spacing ``dt``) / ``s`` on the
    mantissas of ``dt`` and ``s``, scaled by their exponents last as every
    speed-limit time is, so the integral cannot overflow where the quotient
    does not, and a quotient whose direct form stays normal keeps its bits.
    :class:`NotFinite` naming ``what`` when the quotient overflows a float."""
    (m_dt, e_dt), (m_s, e_s) = math.frexp(dt), math.frexp(s)
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        q = float(np.trapezoid(y, dx=m_dt)) / m_s
    with contextlib.suppress(OverflowError):
        q = math.ldexp(q, e_dt - e_s)
        if math.isfinite(q):
            return q
    raise NotFinite(f"integral of {what} overflows a float")


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
    every evaluation.  ``dim`` 0 (the default) is read from H(0); a ``dim``
    that is not an integer >= 1 (or is a boolean), given or read, raises
    :class:`DimensionMismatch`, and any other is kept as a Python ``int``.
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
        boolean = isinstance(self.dim, (bool, np.bool_))
        if self.dim == 0 and not boolean:
            # a one-sample stack, (1, d, d) when H(0) is a matrix
            shape = np.shape(self.stack(np.zeros(1)) if self.stack is not None else [self.evaluator(0.0)])
            if len(shape) < 3:
                raise DimensionMismatch(f"H(t) probe at t = 0 has shape {shape[1:]}, expected a (d, d) matrix")
            object.__setattr__(self, "dim", shape[1])
        if boolean or not isinstance(self.dim, (int, np.integer)) or self.dim < 1:
            raise DimensionMismatch(f"H(t) dim must be an integer >= 1, got {self.dim!r}")
        object.__setattr__(self, "dim", int(self.dim))

    def matrix(self, t: float) -> np.ndarray:
        """H(t), the one-sample stack of :meth:`matrices`."""
        return self.matrices([t])[0]

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        """Stack of H(t) over the given sample times, shape (len(ts), d, d).

        One call of ``stack`` when it is set, else one ``evaluator`` call per
        sample, in order, each sample converted to complex and copied into
        the stack before the evaluator is called again, so an evaluator may
        return the same array, or views of it, every time; a wrongly shaped
        sample raises :class:`DimensionMismatch` naming its t before the next
        call.  Validates the shape, Hermiticity, and that every entry is
        finite, once on the whole stack.  :func:`propagate` asks for the
        midpoints one row slice of about 256 KiB at a time, so from d = 3 on
        at N = 2048 a ``stack`` is called once per midpoint slice, and then
        once for the samples.

        The caller owns the returned array and may overwrite it: the ``stack``
        result is copied, so an array that ``stack`` keeps is never handed
        out.  An override must return an array its caller owns as well.  The
        copy is C-ordered, as the evaluator's stack is, because the bits of
        the matmuls that take it in depend on its layout: a Fortran-ordered
        or strided ``stack`` result gives the bits of its C-ordered values.
        """
        ts = np.asarray(ts, dtype=float)
        if self.stack is not None:
            stack = np.array(self.stack(ts), dtype=complex, order="C")
            if stack.shape != (len(ts), self.dim, self.dim):
                raise DimensionMismatch(f"H(t) stack has shape {stack.shape}, expected {(len(ts), self.dim, self.dim)}")
        else:
            shape = (self.dim, self.dim)

            def samples():
                for t in ts.tolist():
                    h = np.asarray(self.evaluator(t), dtype=complex)
                    if h.shape != shape:
                        raise DimensionMismatch(f"H(t) at t = {t!r} has shape {h.shape}, expected {shape}")
                    yield h

            # fromiter copies each sample into the stack before the evaluator runs again
            stack = np.fromiter(samples(), dtype=np.dtype((complex, shape)), count=len(ts))
        return _linalg.require_hermitian(stack, what="H(t) on the sample grid")


@dataclass(frozen=True, eq=False)
class _GroundShiftedProtocol(HamiltonianProtocol):
    """``stack``, the base protocol's :meth:`matrices`, shifted down by its
    instantaneous ground energy, or by ``global_offset`` when set.  The shift
    is subtracted in place, from the array ``stack`` returns, which its
    caller owns.  The ground energy is taken once per run of consecutive
    samples that are equal bit for bit (:func:`_linalg.once_per_run`), so a
    piecewise-constant H(t) costs one ``eigvalsh`` per segment and slice."""

    global_offset: float | None = None

    def matrices(self, ts: np.ndarray) -> np.ndarray:
        stack = self.stack(ts)
        for s in _linalg.row_slices(stack):
            offset = self.global_offset
            if offset is None:
                offset = _linalg.once_per_run(np.linalg.eigvalsh, stack[s])[:, 0, None, None]
            with np.errstate(over="ignore", invalid="ignore"):
                stack[s] -= offset * np.eye(self.dim)
            if not np.isfinite(stack[s]).all():
                raise NotFinite("the ground energy of H(t), or H(t) shifted by it, overflows a float")
        return stack


def ground_shift(p: HamiltonianProtocol, mode: str = "instantaneous") -> HamiltonianProtocol:
    """Shift the protocol so mean energies are measured above the ground state.

    ``instantaneous`` (default) subtracts the lowest eigenvalue of H(t) at each
    time, keeping <H_t> >= 0 pointwise.  ``global`` subtracts a single constant,
    the minimum instantaneous ground energy over a uniform scan of
    ``GLOBAL_SCAN_SAMPLES`` times in [0, duration], evaluated and decomposed
    one :func:`_linalg.row_slices` slice at a time, each run of consecutive
    bit-equal samples once.  Either way the returned protocol evaluates ``p``
    and shifts in place the whole H(t) stack that ``p.matrices`` returns.
    """
    if mode not in GROUND_SHIFT_MODES:
        raise DomainError(f"unknown ground shift mode {mode!r}")
    offset = None
    if mode == "global":
        ts = np.linspace(0.0, p.duration, GLOBAL_SCAN_SAMPLES)
        # the scan's shape as a view that allocates nothing, to cut it into slices
        scan = np.broadcast_to(0j, (GLOBAL_SCAN_SAMPLES, p.dim, p.dim))
        lows = (_linalg.once_per_run(np.linalg.eigvalsh, p.matrices(ts[s]))[:, 0] for s in _linalg.row_slices(scan))
        offset = float(np.min([w.min() for w in lows]))

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


def _beside(consume: Callable, items, then: Callable, threaded: bool):
    """``then()``'s result, after ``consume(item)`` has run on each item that
    the iterable ``items`` yields.

    With ``threaded``, a one-thread pool that this call owns, and shuts down
    before it returns, consumes each item as soon as ``items`` yields it,
    while this thread goes on with ``items`` and then runs ``then``, and
    then waits for every item.  Without, or where the pool refuses work
    because the interpreter has begun to exit, this thread consumes the
    items after ``then``.  Errors come in the order of running the three in
    sequence: an exception of ``items`` is raised at once, without those of
    ``consume``, and the exception of ``consume`` on the earliest item that
    failed in place of one of ``then`` (chained to it).
    """
    pool = None
    if threaded:
        with contextlib.suppress(RuntimeError):  # first imported once the interpreter has begun to exit
            # imported here: it imports logging, which `import qspeed` need not load
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(max_workers=1)

    def submit(item):
        try:
            return pool and pool.submit(consume, item)
        except RuntimeError:  # refused once the interpreter has begun to exit
            return None

    with pool or contextlib.nullcontext():
        jobs = [(item, submit(item)) for item in items]
        try:
            return then()
        finally:
            for item, job in jobs:
                if job is None:
                    consume(item)
                else:
                    job.result()


def _step_states(u: np.ndarray, states: np.ndarray):
    """Fill ``states[1:]`` in place from ``states[0]``, step k applying the
    unitary ``u[k]``: psi -> U_k psi, or rho -> symmetrize(U_k rho U_k†)
    operation for operation, through three d x d buffers allocated once, and
    the adjoints U_k† of one :func:`_linalg.row_slices` slice of ``u`` at a
    time.  The unitaries of density matrices may be the rows
    ``states[1:]`` they step into: a slice's adjoints are taken before its
    rows are written, and step k reads U_k before it writes rho_{k+1} over
    it.

    The products go through ``np.dot``, which makes the BLAS call that
    ``np.matmul`` makes for these layouts, with the same bits and less
    dispatch (a test pins this).  step† is read from the transposed view of
    ``step`` into the contiguous ``adj``, which costs less than writing into
    a transposed view.  The halving stays a complex division: multiplying
    by 0.5 gives a real part of -0.0 for -0 + 1j, where the division gives
    +0.0."""
    dot = np.dot
    if states.ndim == 2:
        for uk, src, dst in zip(u, states, states[1:]):
            dot(uk, src, dst)
        return
    conjugate, add, divide = np.conjugate, np.add, np.divide
    left, step, adj = (np.empty(states.shape[1:], dtype=complex) for _ in range(3))
    step_t, two = step.T, np.complex128(2)
    for s in _linalg.row_slices(u):
        # U_k† of the slice, in the transposed layout np.conj(np.swapaxes(u))
        # has: a product's bits may depend on the layout of its operands
        adjoints = np.conjugate(np.swapaxes(u[s], -1, -2))
        for uk, uhk, src, dst in zip(u[s], adjoints, states[s], states[1:][s]):
            dot(uk, src, left)
            dot(left, uhk, step)
            # adj = step†, then dst = (step + step†) / 2, as _linalg.symmetrize
            conjugate(step_t, adj)
            add(step, adj, adj)
            divide(adj, two, dst)


def step_unitary(h: np.ndarray, dt: float, hbar: float) -> np.ndarray:
    """exp(-i H dt / hbar) via eigendecomposition, for one H or a stack; exactly unitary.

    :class:`DomainError` unless ``hbar`` is a finite number > 0 and ``dt`` a
    finite number of either sign and not a bool; :class:`DimensionMismatch`
    unless ``h`` is a square matrix of dim >= 1 or a stack of them."""
    require_positive(hbar, "hbar")
    if isinstance(dt, (bool, np.bool_)) or not math.isfinite(dt):
        raise DomainError(f"dt must be a finite number, got {dt}")
    h = np.asarray(h, dtype=complex)
    if h.ndim < 2 or h.shape[-1] != h.shape[-2] or h.shape[-1] == 0:
        raise DimensionMismatch(f"step Hamiltonian must be a square matrix of dim >= 1 or a stack, got shape {h.shape}")
    w, v = np.linalg.eigh(_linalg.require_hermitian(h, what="step Hamiltonian"))
    return _unitaries(w, v, dt, hbar)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A uniformly sampled run: state and H(t) arrays plus per-sample observables.

    ``times`` holds N+1 uniform samples on [0, tau].  ``states`` is the
    (N+1, d) array of state vectors of a pure run or the (N+1, d, d) array of
    density matrices of a mixed run; ``h_samples`` is the (N+1, d, d) stack of
    H(t) at ``times`` that every observable was computed from, among them
    ``energy_spread``, dE_t = sqrt(<H_t^2> - <H_t>^2).  ``overlap_with_initial``
    is filled only for pure runs; ``bures_from_initial`` is the Bures angle
    L(rho_0, rho_t) at every sample (for pure runs computed from the overlap
    magnitude, which is the numerically sharper equivalent route).
    """

    times: np.ndarray
    states: np.ndarray
    h_samples: np.ndarray
    mean_energy: np.ndarray
    energy_spread: np.ndarray
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
    alone, so all N unitaries are built before the loop, in one (N, d, d)
    array, and the loop only applies them in order, writing each state in
    place.  A mixed run's array is the rows of its states that its steps
    fill, U_k in row k+1 until rho_{k+1} is written over it, so the run holds
    its states and its samples and no third stack; a pure run's is its own,
    freed before the observables.  The midpoint H stack is evaluated one
    :func:`_linalg.row_slices` slice of the array at a time, one
    :meth:`~HamiltonianProtocol.matrices` call each, which evaluates, checks
    and shifts that slice; it is copied into the array and becomes its
    unitaries there, decomposed by ``eigh`` and overwritten by the stacked
    matmul that :func:`step_unitary` also uses.  A run of consecutive midpoint
    samples that are equal bit for bit, as in a piecewise-constant H(t), is
    decomposed once per slice and its unitary copied along the run
    (:func:`_linalg.once_per_run`), with the bits of decomposing every sample.
    The protocol is evaluated on the calling thread, at the midpoints and
    then at the N+1 samples.  When the unitary
    array holds more than ``POOL_BYTES`` (2 MiB: d >= 9 at N = 2048), a
    one-thread pool of this call's own turns each slice into unitaries as
    soon as it is evaluated, and the calling thread waits for them once the
    samples are evaluated; a mixed run's <H_t> and <H_t^2> are then taken
    on such a pool too, beside the fidelities.  A
    smaller array builds no pool, however many slices it spans, and its
    slices become unitaries once the samples are evaluated.  The bits are
    the same either way.
    Per-sample observables (<H_t>, the spread dE_t, Bures angle from the
    start, and for pure runs the complex overlap with the initial state) are
    computed from the H(t) stack at the samples, which the trajectory keeps,
    dE_t on each H_t scaled by a power of two, so it is a float where dE_t is.  Errors
    come in the order of evaluating every midpoint slice, then building the
    unitaries, then evaluating the samples: an error of midpoint slice k (an
    evaluator exception, a shape, :class:`NotFinite` or :class:`NotHermitian`
    error, whose deviation is that slice's, or one of the shift) is raised
    before H is evaluated in slice k+1; an error of the unitaries (an ``eigh``
    failure, or a step phase that overflows, whose message names the largest
    |E| of its slice, the earliest slice's if several fail) only once every
    midpoint slice is evaluated, but before an error of the samples.  A
    non-finite H(t), energy spread or purity raises :class:`NotFinite`; a run that
    :func:`step_size` refuses raises its :class:`DomainError` before H(t) is
    evaluated.
    """
    dt = step_size(p.duration, steps, p.dim)
    n = int(steps)
    s0 = validate_state(s0)
    if s0.dim != p.dim:
        raise DimensionMismatch(f"state dim {s0.dim} != protocol dim {p.dim}")

    times = np.linspace(0.0, p.duration, n + 1)
    d = p.dim

    # one (N, d, d) array u holds the step unitaries: a mixed run's states[1:],
    # U_k in row k+1 until rho_{k+1} is written over it, or a pure run's own
    pure = s0.is_pure
    states = np.empty((n + 1, d) if pure else (n + 1, d, d), dtype=complex)
    u = np.empty((n, d, d), dtype=complex) if pure else states[1:]

    # the midpoint stack is evaluated one row slice of u at a time, and each
    # slice is turned into step unitaries in place; for a u of more than
    # POOL_BYTES, that runs on a one-thread pool of this call's own while
    # this thread evaluates the next slice and then the grid (LAPACK releases
    # the GIL).  A smaller u gets no pool, for the unitaries or the
    # moments: starting a thread costs more than the overlap saves, and how
    # long it takes varies from run to run.
    mid = times[:-1] + dt / 2
    pooled = u.nbytes > POOL_BYTES

    def midpoint_slice(s):
        u[s] = p.matrices(mid[s])
        return u[s]

    def unitaries(h, out=None):
        return _unitaries(*np.linalg.eigh(h), dt, p.hbar, out=out)

    def to_unitaries(h):
        _linalg.once_per_run(unitaries, h, out=h)

    h_samp = _beside(to_unitaries, map(midpoint_slice, _linalg.row_slices(u)), lambda: p.matrices(times), pooled)
    states[0] = s0.amplitudes if pure else s0.matrix
    _step_states(u, states)
    del u

    # <H_t^2> on H_t scaled by 2^-k_t, k_t the exponent of max |H_t| (at least
    # the smallest normal's), which is exact and cannot overflow; dE_t is scaled
    # back by 2^k_t, so every sample whose moments stay normal keeps its bits
    top = np.empty(n + 1)
    for s in _linalg.row_slices(h_samp):
        top[s] = np.maximum(np.abs(h_samp[s].real).max(axis=(1, 2)), np.abs(h_samp[s].imag).max(axis=(1, 2)))
    k = np.frexp(np.maximum(top, np.finfo(float).tiny))[1]
    scale = np.ldexp(1.0, -k)

    if pure:
        me = np.einsum("ti,tij,tj->t", states.conj(), h_samp, states).real
        hpsi = np.einsum("tij,tj->ti", h_samp, states) * scale[:, None]
        m2 = np.einsum("ti,ti->t", hpsi.conj(), hpsi).real
        overlap = np.einsum("i,ti->t", states[0].conj(), states)
        # arctan2 of the orthogonal-component norm against |overlap| is the
        # same angle as arccos(|overlap|) but stays accurate near L = 0
        residual = np.linalg.norm(states - overlap[:, None] * states[0][None, :], axis=1)
        bures = np.arctan2(residual, np.abs(overlap))
    else:
        # einsum releases the GIL too, so the moments of the row slices are
        # taken beside the fidelities, with the same bits as one pass
        me, m2 = np.empty(n + 1), np.empty(n + 1)

        def moments(s):
            me[s] = np.einsum("tij,tji->t", states[s], h_samp[s]).real
            h = h_samp[s] * scale[s, None, None]
            m2[s] = np.einsum("tij,tjk,tki->t", states[s], h, h).real

        def bures_angles():
            sqrt0 = _linalg.psd_sqrt(states[0], "initial state")
            return _linalg.bures_angle_from_fidelity(_linalg.fidelity_from_sqrt(sqrt0, states))

        overlap = None
        bures = _beside(moments, _linalg.row_slices(states), bures_angles, pooled)
    bures[0] = 0.0

    # var_t in units of 4^k_t, refused below -1e-9 max(1, <H_t^2>) in units of H^2
    with np.errstate(over="ignore", invalid="ignore"):
        var = m2 - np.ldexp(me, -k) ** 2
        spread = np.ldexp(np.sqrt(np.clip(var, 0.0, None)), k)
        dipped = var < -1e-9 * np.maximum(np.ldexp(1.0, -2 * k), m2)
        if not (np.isfinite(var).all() and np.isfinite(spread).all()):
            raise NotFinite("the energy spread overflows a float along the trajectory")
        if dipped.any():
            lowest = np.ldexp(var, 2 * k)[dipped].min()
            raise NotPositive(f"energy variance dipped to {lowest:.3e} along the trajectory")

    # tr(rho^2), which is |psi|^4 for a state vector; an overflow is named below
    with np.errstate(over="ignore"):
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
        energy_spread=spread,
        bures_from_initial=bures,
        hbar=p.hbar,
        protocol=p,
        overlap_with_initial=overlap,
    )
