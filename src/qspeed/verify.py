"""Pointwise audit of the inequality chain behind the speed-limit bounds.

Every intermediate inequality used to derive the bounds is re-checked
numerically along a trajectory, producing a machine-readable report that
localizes any violation: each check records the worst margin (the amount by
which the inequality holds; negative means violated), the time at which it
occurs, and both side values there.  Margins are normalized by
max(1, |lhs|, |rhs|) at each sample so the default tolerance of 1e-6 reads
as parts-per-million of the dominating side.

Three of the checks are falsifiable by design.  The phase/mean-energy check
(|<psi_0|H_t|psi_t>| <= <psi_t|H_t|psi_t>) and the overlap/cosine check
(|<psi_0|psi_tau>| >= |cos(int <psi_0|H_t|psi_0> dt / hbar)|) fail for
generic driving and for skewed superpositions.  The integrated mean-energy
check (|cos L - 1| <= int <H_t> dt / hbar) holds for a constant H >= 0 but
not under driving: a state that follows the moving ground state travels a
Bures angle at almost no ground-shifted energy.  This harness exists to
surface exactly that, not to hide it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import DomainError, NotFinite
from .qdyn import Trajectory, require_positive, run_integral

__all__ = [
    "CheckResult",
    "AuditReport",
    "audit_trajectory",
    "check_trig_bound",
]

PURE_ONLY_CHECKS = ("overlap_derivative", "sin_velocity", "phase_mean_energy", "overlap_cosine")

MIN_SAMPLES = 16


@dataclass(frozen=True, eq=False)
class CheckResult:
    """Outcome of one named inequality check."""

    name: str
    worst_margin: float
    worst_time: float
    passed: bool
    samples_checked: int
    lhs_at_worst: float
    rhs_at_worst: float
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in order, with the ``extra`` entries last in place of ``extra``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out.update(out.pop("extra"))
        return out


@dataclass(frozen=True, eq=False)
class AuditReport:
    """All checks run on one trajectory at a common tolerance."""

    checks: list[CheckResult]
    tolerance: float
    trajectory_label: str
    skipped: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "tolerance": self.tolerance,
            "trajectory_label": self.trajectory_label,
            "skipped": list(self.skipped),
        }


def _pointwise(name, lhs, rhs, times, tol, extra=None) -> CheckResult:
    lhs, rhs = np.asarray(lhs, float), np.asarray(rhs, float)
    if not (np.isfinite(lhs).all() and np.isfinite(rhs).all()):
        raise NotFinite(f"a side of the {name} check overflows a float or is NaN")
    margins = (rhs - lhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
    i = int(np.argmin(margins))
    worst = float(margins[i])
    return CheckResult(
        name=name,
        worst_margin=worst,
        worst_time=float(times[i]),
        passed=worst >= -tol,
        samples_checked=int(margins.size),
        lhs_at_worst=float(lhs[i]),
        rhs_at_worst=float(rhs[i]),
        extra=extra or {},
    )


@np.errstate(over="ignore")  # a side that overflows is named by _pointwise
def audit_trajectory(traj: Trajectory, tol: float = 1e-6) -> AuditReport:
    """Run every inequality check on a trajectory.

    Checks needing the overlap with the initial state apply to pure runs
    only; on mixed runs they are skipped and listed in ``skipped``.
    Derivatives are second-order central differences at interior samples;
    integrated checks use the trapezoid rule on the run grid over hbar as
    :func:`~qspeed.qdyn.run_integral` forms it (:class:`NotFinite` where that
    overflows), and H(t) is read from ``traj.h_samples``.  The trajectory must come from a
    ground-shifted protocol for the mean-energy checks to be meaningful.
    ``tol`` must be a finite number >= 0 and not a bool, and ``traj.hbar`` a
    finite number > 0, else :class:`DomainError`; a side of a check that is
    not finite, as dE / hbar is where it overflows, raises :class:`NotFinite`.
    """
    if isinstance(tol, (bool, np.bool_)) or not 0.0 <= tol < math.inf:  # false for NaN too; 0 is an exact check
        raise DomainError(f"audit tolerance must be a finite number >= 0, got {tol}")
    n = traj.n_samples
    if n < MIN_SAMPLES:
        raise DomainError(f"audit needs at least {MIN_SAMPLES} samples, got {n}")
    pure = traj.is_pure
    require_positive(traj.hbar, "hbar")
    hbar = traj.hbar
    dt = traj.dt
    times = traj.times
    interior = times[1:-1]
    ell = traj.bures_from_initial
    dl = (ell[2:] - ell[:-2]) / (2.0 * dt)
    abs_dl = np.abs(dl)
    spread = traj.energy_spread
    me = traj.mean_energy

    checks: list[CheckResult] = []

    sign_changes = int(np.count_nonzero(np.diff(np.sign(dl[dl != 0.0])) != 0))
    checks.append(
        _pointwise(
            "velocity_variance",
            abs_dl,
            spread[1:-1] / hbar,
            interior,
            tol,
            extra={"velocity_sign_changes": sign_changes},
        )
    )

    if pure:
        h_samp = traj.h_samples
        psis = traj.states
        psi0 = psis[0]
        overlap = traj.overlap_with_initial
        cross = np.abs(np.einsum("i,tij,tj->t", psi0.conj(), h_samp, psis))
        init_e = np.einsum("i,tij,j->t", psi0.conj(), h_samp, psi0).real

        abs_c = np.abs(overlap)
        d_abs = np.abs(abs_c[2:] - abs_c[:-2]) / (2.0 * dt)
        d_cplx = np.abs(overlap[2:] - overlap[:-2]) / (2.0 * dt)
        checks.append(_pointwise("overlap_derivative", d_abs, d_cplx, interior, tol))
        # windowed form of sin(L) |d_t L| <= |<psi_0|H_t|psi_t>| / hbar: the
        # cosine difference integrates sin(L) dL over the stencil exactly,
        # so only the trapezoid error of the right side remains and stencil
        # asymmetry cannot fabricate a violation
        sin_dl = np.abs(np.cos(ell[:-2]) - np.cos(ell[2:])) / (2.0 * dt)
        cross_win = (cross[:-2] + 2.0 * cross[1:-1] + cross[2:]) / 4.0
        checks.append(_pointwise("sin_velocity", sin_dl, cross_win / hbar, interior, tol))
        checks.append(_pointwise("phase_mean_energy", cross[1:-1], me[1:-1], interior, tol))

    end = [traj.tau]
    checks.append(
        _pointwise("mt_integrated", [float(ell[-1])], [run_integral(spread, dt, hbar, "dE / hbar")], end, tol)
    )
    checks.append(
        _pointwise(
            "ml_integrated",
            [abs(math.cos(float(ell[-1])) - 1.0)],
            [run_integral(me, dt, hbar, "<H> / hbar")],
            end,
            tol,
        )
    )

    if pure:
        arg = run_integral(init_e, dt, hbar, "<psi_0|H|psi_0> / hbar")
        checks.append(_pointwise("overlap_cosine", [abs(math.cos(arg))], [float(np.abs(overlap[-1]))], end, tol))

    return AuditReport(
        checks=checks,
        tolerance=tol,
        trajectory_label=traj.label,
        skipped=() if pure else PURE_ONLY_CHECKS,
    )


def check_trig_bound(x):
    """|cos x - 1| - (4/pi^2) x^2 on [0, pi/2]; zero at both ends.

    Nonnegative up to rounding, never below -eps = -2.2e-16: it is -4.05e-17
    at x = 1e-8, where cos x rounds to 1, and -1.11e-16 at x = pi/2.

    Accepts a scalar or an array; raises :class:`DomainError` outside the
    interval or on NaN.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all((-1e-12 <= arr) & (arr <= math.pi / 2 + 1e-12)):
        raise DomainError(f"argument outside [0, pi/2]: {x!r}")
    val = np.abs(np.cos(arr) - 1.0) - (4.0 / math.pi**2) * arr**2
    return float(val) if np.isscalar(x) or arr.ndim == 0 else val
