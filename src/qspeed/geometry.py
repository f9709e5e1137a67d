"""Quantum and classical information geometry.

Uhlmann fidelity and the Bures angle between density operators, the Bures
metric increment through the eigenbasis superoperator (matrix elements
divided by eigenvalue sums), the statistical angle between sampled
probability distributions, Fisher information of a one-parameter family,
and the dynamical velocity d_t L along a trajectory.
"""

from __future__ import annotations

import math

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _linalg
from .errors import (
    DimensionMismatch,
    GridMismatch,
    IndexOutOfRange,
    NotFinite,
    NotHermitian,
    NotNormalized,
    NotTraceless,
    ParameterOutOfRange,
)
from .qdyn import EigenSystem, QuantumState, Trajectory, eigensystem

__all__ = [
    "DistributionTrack",
    "BuresIncrement",
    "fidelity",
    "bures_length",
    "wootters_angle",
    "fisher_information_1d",
    "statistical_velocity_sq",
    "bures_increment",
    "dynamical_velocity",
    "dynamical_velocity_signed",
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


def wootters_angle(p0: np.ndarray, p1: np.ndarray, h: float) -> float:
    """Statistical angle arccos(sum sqrt(p0 p1) h) between two sampled densities.

    Both densities must be nonnegative and normalized (sum p h = 1 within
    1e-8) on the same uniform grid of spacing ``h``.  The overlap is divided
    by the geometric mean of the two quadrature norms, which keeps it <= 1
    by Cauchy-Schwarz and makes identical inputs give angle 0 instead of the
    arccos noise floor; within the admitted normalization tolerance this
    agrees with the plain sum to better than 1e-8.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    if p0.shape != p1.shape:
        raise GridMismatch(f"density lengths differ: {p0.shape} vs {p1.shape}")
    norms = []
    for name, p in (("first", p0), ("second", p1)):
        total = float(p.sum() * h)
        if abs(total - 1.0) > 1e-8:
            raise NotNormalized(f"{name} density sums to {total:.10f} (must be 1 within 1e-8)")
        norms.append(total)
    overlap = float(np.sqrt(p0 * p1).sum() * h) / math.sqrt(norms[0] * norms[1])
    return float(np.arccos(np.clip(overlap, 0.0, 1.0)))


@dataclass(frozen=True, eq=False)
class DistributionTrack:
    """A one-parameter family of probability densities on a uniform grid.

    ``densities[i]`` is the density sampled at ``parameter_values[i]`` on
    ``grid``.  Every density must be nonnegative and Riemann-normalized
    (sum P h = 1 within 1e-8).
    """

    grid: np.ndarray
    parameter_values: np.ndarray
    densities: np.ndarray

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        ts = np.asarray(self.parameter_values, dtype=float)
        dens = np.asarray(self.densities, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise GridMismatch("grid must be a 1-D array with at least 2 points")
        spacings = np.diff(grid)
        if np.max(np.abs(spacings - spacings[0])) > 1e-9 * abs(spacings[0]):
            raise GridMismatch("grid spacing must be uniform")
        if dens.shape != (ts.size, grid.size):
            raise GridMismatch(f"densities shape {dens.shape} does not match ({ts.size}, {grid.size})")
        if float(dens.min()) < -1e-12:
            raise NotNormalized(f"density has negative entry {dens.min():.3e}")
        norms = dens.sum(axis=1) * spacings[0]
        worst = float(np.max(np.abs(norms - 1.0)))
        if worst > 1e-8:
            raise NotNormalized(f"density normalization off by {worst:.3e} (must be within 1e-8)")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "parameter_values", ts)
        object.__setattr__(self, "densities", np.clip(dens, 0.0, None))

    @classmethod
    def from_function(
        cls,
        density: Callable[[np.ndarray, float], np.ndarray],
        grid: np.ndarray,
        parameter_values: np.ndarray,
    ) -> "DistributionTrack":
        grid = np.asarray(grid, dtype=float)
        ts = np.asarray(parameter_values, dtype=float)
        dens = np.stack([np.asarray(density(grid, float(t)), dtype=float) for t in ts])
        return cls(grid=grid, parameter_values=ts, densities=dens)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def index_of(self, t: float, interior: bool = True) -> int:
        idx = int(np.argmin(np.abs(self.parameter_values - t)))
        if abs(self.parameter_values[idx] - t) > 1e-9 * max(1.0, abs(t)):
            raise ParameterOutOfRange(f"t={t:g} is not a sampled parameter value")
        if interior and not 0 < idx < self.parameter_values.size - 1:
            raise ParameterOutOfRange(f"t={t:g} is not interior to the sampled range")
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


@dataclass(frozen=True, eq=False)
class BuresIncrement:
    """A squared Bures length element and the state eigenbasis used for it."""

    value: float
    eigen_basis: EigenSystem


def bures_increment(rho: QuantumState, drho: np.ndarray, tol_p: float = 1e-12) -> BuresIncrement:
    """Squared Bures distance element dL^2 for the perturbation ``drho``.

    In the eigenbasis of rho (eigenvalues p_j),

        dL^2 = (1/2) sum_{j,k} |<j|drho|k>|^2 / (p_j + p_k),

    where terms with p_j + p_k <= ``tol_p`` are skipped rather than
    regularized: for rank-deficient states under unitary motion those terms
    have vanishing numerators, and skipping them reproduces the pure-state
    limit exactly.  ``drho`` must be Hermitian and traceless within 1e-9.
    """
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != (rho.dim, rho.dim):
        raise DimensionMismatch(f"drho shape {drho.shape} does not match dim {rho.dim}")
    if not np.isfinite(drho).all():
        raise NotFinite("drho has non-finite entries")
    dev = _linalg.hermitian_deviation(drho)
    scale = max(1.0, float(np.max(np.abs(drho))))
    # both checks are written to fail on NaN as well
    if not dev <= 1e-9 * scale:
        raise NotHermitian(f"drho deviates from Hermiticity by {dev:.3e}")
    tr = complex(np.trace(drho))
    if not abs(tr) <= 1e-9 * scale:
        raise NotTraceless(f"drho has trace {tr:.3e} (must vanish within 1e-9)")

    basis = eigensystem(rho.density_matrix())
    p = np.clip(basis.eigenvalues, 0.0, None)
    o = basis.eigenvectors.conj().T @ drho @ basis.eigenvectors
    sums = p[:, None] + p[None, :]
    mask = sums > tol_p
    value = 0.5 * float(np.sum(np.abs(o[mask]) ** 2 / sums[mask]))
    return BuresIncrement(value=value, eigen_basis=basis)


def dynamical_velocity_signed(traj: Trajectory, index: int) -> float:
    """Signed rate of change of the Bures angle from the initial state,
    d_t L(rho_0, rho_t), by central finite difference at an interior sample."""
    if not 0 < index < traj.n_samples - 1:
        raise IndexOutOfRange(f"index {index} is not interior to [1, {traj.n_samples - 2}]")
    ell = traj.bures_from_initial
    return float((ell[index + 1] - ell[index - 1]) / (2.0 * traj.dt))


def dynamical_velocity(traj: Trajectory, index: int) -> float:
    """|d_t L(rho_0, rho_t)| at an interior sample.

    The derivative changes sign whenever the trajectory turns back toward
    the initial state; use :func:`dynamical_velocity_signed` to inspect it.
    """
    return abs(dynamical_velocity_signed(traj, index))
