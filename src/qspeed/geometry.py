"""Quantum and classical information geometry.

Uhlmann fidelity and the Bures angle between density operators, the Bures
metric increment through the eigenbasis superoperator (matrix elements
divided by eigenvalue sums), the statistical angle between sampled
probability distributions, and Fisher information of a one-parameter
family.
"""

from __future__ import annotations

import math

from dataclasses import dataclass

import numpy as np

from . import _linalg
from .errors import DimensionMismatch, DomainError, GridMismatch, NotFinite, NotNormalized
from .qdyn import QuantumState

__all__ = [
    "DistributionTrack",
    "fidelity",
    "bures_length",
    "wootters_angle",
    "fisher_information_1d",
    "statistical_velocity_sq",
    "bures_increment",
]

DENSITY_SUPPORT_CUTOFF = 1e-14


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Uhlmann fidelity F(a, b) = [tr sqrt(sqrt(a) b sqrt(a))]^2.

    Computed through Hermitian eigendecompositions with eigenvalues clamped
    at zero from below; the result is clipped into [0, 1].  For two pure
    states this equals the squared overlap |<psi_a|psi_b>|^2 to within 1e-10.
    """
    if a.dim != b.dim:
        raise DimensionMismatch(f"state dims differ: {a.dim} vs {b.dim}")
    sqrt_a = _linalg.psd_sqrt(a.density_matrix(), "first state")
    return float(_linalg.fidelity_from_sqrt(sqrt_a, b.density_matrix()))


def bures_length(a: QuantumState, b: QuantumState) -> float:
    """Bures angle L = arccos(sqrt F) in [0, pi/2]."""
    return float(_linalg.bures_angle_from_fidelity(fidelity(a, b)))


def _checked_densities(dens: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The rows of ``dens`` clipped at 0, and their norms sum(p) h, after
    checking that every entry is finite and >= -1e-12 and that every norm
    is 1 within 1e-8."""
    if not np.isfinite(dens).all():
        raise NotFinite("densities have non-finite entries")
    lowest = float(dens.min(initial=0.0))  # 0 for an empty density, which fails below
    if not lowest >= -1e-12:
        raise NotNormalized(f"density has negative entry {lowest:.3e}")
    # an overflowing norm, or inf * 0 = NaN for h = 0, fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        norms = dens.sum(axis=-1) * h
    worst = float(np.max(np.abs(norms - 1.0)))
    if not worst <= 1e-8:
        raise NotNormalized(f"density normalization off by {worst:.3e} (must be within 1e-8)")
    return np.clip(dens, 0.0, None), norms


def wootters_angle(p0: np.ndarray, p1: np.ndarray, h: float) -> float:
    """Statistical angle arccos(sum sqrt(p0 p1) h) between two sampled densities.

    Both densities must be finite, nonnegative (a negative entry below
    -1e-12 raises :class:`NotNormalized`) and normalized (sum p h = 1 within
    1e-8) on the same uniform grid of finite spacing ``h``.  Each is
    divided by its quadrature norm, so identical inputs give angle 0, and
    the angle is taken from the Hellinger chord c = ||sqrt(p0 h) -
    sqrt(p1 h)|| = 2 sin(angle / 2).  Unlike arccos of an overlap within eps
    of 1, this resolves small angles to full relative precision, and it
    never forms the product p0 p1, which can overflow.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape:
        raise GridMismatch(f"density lengths differ: {p0.shape} vs {p1.shape}")
    if not math.isfinite(h):
        raise NotFinite(f"grid spacing h is {h}")
    (q0, q1), (n0, n1) = _checked_densities(np.stack([p0, p1]).reshape(2, -1), h)
    # square roots of the cell masses, which sum to 1, so nothing overflows
    chord = float(np.linalg.norm(np.sqrt(q0 * (h / n0)) - np.sqrt(q1 * (h / n1))))
    return 2.0 * math.asin(chord / 2.0)


@dataclass(frozen=True, eq=False)
class DistributionTrack:
    """A one-parameter family of probability densities on a uniform grid.

    ``densities[i]`` is the density sampled at ``parameter_values[i]`` on
    ``grid``.  Every entry must be finite, and every density nonnegative and
    Riemann-normalized (sum P h = 1 within 1e-8).
    """

    grid: np.ndarray
    parameter_values: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        ts = np.asarray(self.parameter_values, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        for name, arr in (("grid", grid), ("parameter_values", ts)):
            if not np.isfinite(arr).all():
                raise NotFinite(f"{name} has non-finite entries")
        if grid.ndim != 1 or grid.size < 2:
            raise GridMismatch("grid must be a 1-D array with at least 2 points")
        # an overflowing spacing is named below, so numpy need not warn
        with np.errstate(over="ignore"):
            spacings = np.diff(grid)
        if not np.isfinite(spacings).all():
            raise NotFinite("grid spacing overflows a float")
        if np.max(np.abs(spacings - spacings[0])) > 1e-9 * abs(spacings[0]):
            raise GridMismatch("grid spacing must be uniform")
        if ts.size == 0:
            raise GridMismatch("parameter_values is empty")
        if dens.shape != (ts.size, grid.size):
            raise GridMismatch(f"densities shape {dens.shape} does not match ({ts.size}, {grid.size})")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "parameter_values", ts)
        object.__setattr__(self, "densities", _checked_densities(dens, spacings[0])[0])

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def index_of(self, t: float) -> int:
        idx = int(np.argmin(np.abs(self.parameter_values - t)))
        if abs(self.parameter_values[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise DomainError(f"t={t:g} is not a sampled parameter value")
        if not 0 < idx < self.parameter_values.size - 1:
            raise DomainError(f"t={t:g} is not interior to the sampled range")
        return idx


def fisher_information_1d(track: DistributionTrack, t: float) -> float:
    """Fisher information J_t = sum (d_t P)^2 / P h of the family at ``t``.

    The parameter derivative is a central finite difference over the two
    neighboring samples; grid points with P below 1e-14 are excluded.
    """
    i = track.index_of(t)
    dt2 = track.parameter_values[i + 1] - track.parameter_values[i - 1]
    dp = (track.densities[i + 1] - track.densities[i - 1]) / dt2
    p = track.densities[i]
    mask = p >= DENSITY_SUPPORT_CUTOFF
    j = float(np.sum(dp[mask] ** 2 / p[mask]) * track.spacing)
    return max(j, 0.0)


def statistical_velocity_sq(track: DistributionTrack, t: float) -> float:
    """Squared statistical velocity of the family at ``t``, via the angle route.

    Computed as (angle between the two neighboring densities / half the
    parameter gap)^2.  The infinitesimal statistical angle accrues at half
    the Fisher rate, so the half-gap denominator puts this on the Fisher
    normalization, where it equals :func:`fisher_information_1d` (the common
    convention with a 1/4 between the two quantities is documented in the
    README).
    """
    i = track.index_of(t)
    delta = 0.5 * (track.parameter_values[i + 1] - track.parameter_values[i - 1])
    ell = wootters_angle(track.densities[i - 1], track.densities[i + 1], track.spacing)
    return float((ell / delta) ** 2)


def bures_increment(rho: QuantumState, drho: np.ndarray) -> float:
    """Squared Bures distance element dL^2 for the perturbation ``drho``.

    In the eigenbasis of rho (eigenvalues p_j),

        dL^2 = (1/2) sum_{j,k} |<j|drho|k>|^2 / (p_j + p_k),

    where terms with p_j + p_k <= 1e-12 are skipped rather than
    regularized: for rank-deficient states under unitary motion those terms
    have vanishing numerators, and skipping them reproduces the pure-state
    limit exactly.  ``drho`` must be Hermitian and traceless within 1e-9.
    """
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != (rho.dim, rho.dim):
        raise DimensionMismatch(f"drho shape {drho.shape} does not match dim {rho.dim}")
    if not np.isfinite(drho).all():
        raise NotFinite("drho has non-finite entries")
    scale = max(1.0, float(np.max(np.abs(drho))))
    _linalg.require_hermitian(drho, 1e-9 * scale, "drho")
    tr = complex(np.trace(drho))
    if not abs(tr) <= 1e-9 * scale:
        raise NotNormalized(f"drho has trace {tr:.3e} (must vanish within 1e-9)")

    w, v = _linalg.eigh_checked(rho.density_matrix(), what="state")
    p = np.clip(w, 0.0, None)
    o = v.conj().T @ drho @ v
    sums = p[:, None] + p[None, :]
    mask = sums > 1e-12
    return 0.5 * float(np.sum(np.abs(o[mask]) ** 2 / sums[mask]))
