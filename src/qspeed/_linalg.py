"""Internal dense Hermitian linear algebra helpers.

All matrix functions here go through ``numpy.linalg.eigh`` on (stacks of)
Hermitian matrices; eigenvalues that should be nonnegative are clamped at
zero below a small threshold and rejected below an error threshold.
"""

from __future__ import annotations

import numpy as np

from .errors import NotFinite, NotHermitian, NotPositive

# Clamp eigenvalues in [EIG_NEG_ERROR, 0) to zero; reject below EIG_NEG_ERROR.
EIG_NEG_ERROR = -1e-6
HERMITIAN_TOL = 1e-10
# Eigenvalues below this fraction of the largest are eigensolver noise for
# rank-deficient operators; sqrt would amplify them from eps to sqrt(eps).
RANK_FLOOR = 1e-14
# every pass over a whole (n, d, d) stack works on row slices of about this
# many bytes, so its temporaries are a slice, not a stack; smaller slices
# raised a d = 16 run's resident peak (128 KiB) or its time (64 KiB).  Whether
# the midpoint eigh shares its slices with a thread is decided by the size of
# the stack (qdyn.POOL_BYTES), not by how many slices it spans
SLICE_BYTES = 2**18


def row_slices(stack: np.ndarray) -> list[slice]:
    """Slices of the leading axis of ``stack`` that cover it in order, each of
    about ``SLICE_BYTES`` and at least one row; none for an empty stack."""
    rows = max(1, SLICE_BYTES // max(1, stack[:1].nbytes))
    return [slice(lo, lo + rows) for lo in range(0, len(stack), rows)]


def once_per_run(f, stack: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``f(stack)``, or ``f(stack, out=out)``, for an ``f`` that works matrix
    by matrix, with ``f`` applied only to the first matrix of each run of
    consecutive matrices that are equal bit for bit, and its result repeated
    along the run.

    Rows are compared as the bits of their entries, so -0.0 and +0.0 differ,
    and every result has the bits ``f`` gives on the whole stack, as long as
    ``f`` gives a matrix the same bits in any batch (``eigh``, ``eigvalsh``
    and stacked matmuls do).  Without a repeat, ``f`` gets ``stack`` itself.
    Rows are compared whole one :func:`row_slices` slice at a time, and only
    in a slice where the first entry of a row has the bits of the row before
    it, so a stack whose first entries all differ costs arrays of one entry
    per row.
    """
    starts = np.ones(len(stack), dtype=bool)
    if len(stack) > 1:
        rows = stack.reshape(len(stack), -1).view(np.uint64)
        new, row, prev = starts[1:], rows[1:], rows[:-1]
        np.not_equal(row[:, 0], prev[:, 0], out=new)
        for s in row_slices(row):
            if not new[s].all():
                np.any(row[s] != prev[s], axis=1, out=new[s])
    if starts.all():
        return f(stack) if out is None else f(stack, out=out)
    # a mode other than "raise" writes into out without a buffer of its size
    return np.take(f(stack[starts]), np.cumsum(starts) - 1, axis=0, out=out, mode="clip")


def hermitian_deviation(m: np.ndarray) -> float:
    """Max elementwise deviation of m, or of a stack (..., d, d), from its
    conjugate transpose, 0 for an empty stack; not finite when an entry is
    not, which every caller reports as :class:`NotFinite`."""
    m = np.asarray(m)
    stack = m.reshape(-1, *m.shape[-2:])
    devs = []
    # one slice at a time, whose difference overwrites its conjugate
    # transpose, so a stack costs one complex and one real temporary of a
    # slice; inf - inf is NaN here, and a difference of finite entries may
    # overflow to inf: the caller names either, so numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for s in row_slices(stack):
            diff = np.conj(np.swapaxes(stack[s], -1, -2))
            devs.append(np.max(np.abs(np.subtract(stack[s], diff, out=diff))))
            del diff  # before the next slice's is built
    return float(np.max(devs, initial=0.0))


def require_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL, what: str = "matrix") -> np.ndarray:
    """m itself, after checking that it, or every matrix of a stack, is
    Hermitian within ``tol`` and has only finite entries."""
    dev = hermitian_deviation(m)
    # written so that a NaN deviation fails too
    if not dev <= tol:
        if not np.isfinite(m).all():
            raise NotFinite(f"{what} has non-finite entries")
        raise NotHermitian(f"{what} deviates from Hermiticity by {dev:.3e} (tol {tol:.1e})")
    return m


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m†)/2, for stacks or single matrices."""
    return (m + np.conj(np.swapaxes(m, -1, -2))) / 2


def eigh_checked(h: np.ndarray, what: str = "matrix"):
    """Ascending eigendecomposition after a Hermiticity check."""
    require_hermitian(h, what=what)
    return np.linalg.eigh(h)


def clamped_nonneg(w: np.ndarray, what: str = "operator") -> np.ndarray:
    """Clamp small negative eigenvalues to 0; reject genuine negativity."""
    lo = float(np.min(w)) if w.size else 0.0
    if lo < EIG_NEG_ERROR:
        raise NotPositive(f"{what} has eigenvalue {lo:.3e} below {EIG_NEG_ERROR:.1e}")
    return np.clip(w, 0.0, None)


def _floor_noise(w: np.ndarray) -> np.ndarray:
    top = np.max(w, axis=-1, keepdims=True)
    return np.where(w < RANK_FLOOR * np.maximum(top, 0.0), 0.0, w)


def psd_sqrt(rho: np.ndarray, what: str = "state") -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix."""
    w, v = eigh_checked(rho, what=what)
    w = _floor_noise(clamped_nonneg(w, what))
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity_from_sqrt(sqrt_a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Uhlmann fidelity [tr sqrt(sqrt_a b sqrt_a)]^2 given a precomputed root.

    ``b`` may be a single matrix or a stack (..., d, d); returns a scalar or
    a stack of scalars, clipped into [0, 1].  The eigenvalues are taken one
    slice of matrices at a time, so the temporaries are a slice, not a stack.
    """
    b = np.asarray(b)
    stack = b.reshape(-1, *b.shape[-2:])
    lam = np.empty(stack.shape[:-1])
    for s in row_slices(stack):
        lam[s] = np.linalg.eigvalsh(symmetrize(sqrt_a @ stack[s] @ sqrt_a))
    lam = _floor_noise(np.clip(lam, 0.0, None))
    f = np.sqrt(lam).sum(axis=-1) ** 2
    return np.clip(f.reshape(b.shape[:-2]), 0.0, 1.0)


def bures_angle_from_fidelity(f) -> np.ndarray:
    """arccos(sqrt F) with the argument clamped into [0, 1]."""
    return np.arccos(np.clip(np.sqrt(np.clip(f, 0.0, 1.0)), 0.0, 1.0))
