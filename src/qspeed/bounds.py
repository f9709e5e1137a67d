"""Speed-limit times from time-averaged energies and the Bures angle.

Three bounds are exposed for a run of duration tau that carries the system
through a Bures angle L with time-averaged mean energy E_avg (measured above
the instantaneous ground state) and time-averaged energy spread dE_avg:

    tau_mt       = hbar L / dE_avg          (variance route)
    tau_ml_lin   = hbar L / E_avg           (mean-energy route, linear in L)
    tau_ml_quad  = 4 hbar L^2 / (pi^2 E_avg)

and the unified speed-limit time is the larger of the energy-route and
variance-route bounds.  A zero denominator with L > 0 yields +inf (a
stationary undriven state never evolves); L = 0 yields 0.

The linear mean-energy bound is tight for equal-weight two-level motion but
is NOT a theorem for general states: runs concentrated near the ground state
violate it (see the audit module).  ``build_report`` therefore treats a
deficit in any bound as a reportable violation, raising by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import BoundViolation, DomainError, NegativeEnergy, NotFinite
from .qdyn import Trajectory, require_positive

__all__ = [
    "QSLReport",
    "time_avg_mean_energy",
    "time_avg_energy_variance",
    "tau_mt",
    "tau_ml_quadratic",
    "tau_ml_linear",
    "qsl_time",
    "build_report",
]

HALF_PI = math.pi / 2

# the report's scalar keys, in report order; sweeps write the same columns
REPORT_SCALARS = ("tau", "bures", "e_avg", "de_avg", "tau_mt", "tau_ml_quad", "tau_ml_lin", "tau_qsl")

# Endpoint angles below the fidelity-route noise floor mean no net motion;
# without this a stationary run with zero energy spread would report a
# spurious infinite bound from pure rounding noise.
ANGLE_NOISE_FLOOR = 1e-7


def time_avg_mean_energy(traj: Trajectory) -> float:
    """(1/tau) integral of <H_t> dt by the trapezoid rule on the run grid.

    The trajectory must come from a ground-shifted protocol; a sample mean
    energy below -1e-9 (relative to the energy scale) raises
    :class:`NegativeEnergy`.
    """
    me = traj.mean_energy
    scale = max(1.0, float(np.abs(me).max()))
    if float(me.min()) < -1e-9 * scale:
        raise NegativeEnergy(
            f"mean energy dips to {me.min():.3e}; the protocol was not ground-shifted"
        )
    return float(np.trapezoid(me, dx=traj.dt) / traj.tau)


def time_avg_energy_variance(traj: Trajectory) -> float:
    """(1/tau) integral of sqrt(<H_t^2> - <H_t>^2) dt by the trapezoid rule."""
    return float(np.trapezoid(np.sqrt(traj.energy_variance), dx=traj.dt) / traj.tau)


def _check_angle(ell: float) -> float:
    if not -1e-12 <= ell <= HALF_PI + 1e-9:
        raise DomainError(f"Bures angle {ell!r} outside [0, pi/2]")
    return min(max(ell, 0.0), HALF_PI)


def _check_energy(e: float, what: str) -> float:
    if not math.isfinite(e):
        raise NotFinite(f"{what} is {e!r}")
    if e < -1e-9 * max(1.0, abs(e)):
        raise NegativeEnergy(f"{what} is negative: {e:.3e}")
    return max(e, 0.0)


def tau_mt(ell: float, de_avg: float, hbar: float) -> float:
    """Variance-route bound hbar L / dE_avg; +inf when dE_avg = 0 and L > 0."""
    ell = _check_angle(ell)
    require_positive(hbar, "hbar")
    if not math.isfinite(de_avg):
        raise NotFinite(f"time-averaged energy spread is {de_avg!r}")
    if de_avg < 0:
        raise DomainError(f"time-averaged energy spread is negative: {de_avg:.3e}")
    if ell == 0.0:
        return 0.0
    return hbar * ell / de_avg if de_avg > 0 else math.inf


def tau_ml_quadratic(ell: float, e_avg: float, hbar: float) -> float:
    """Mean-energy bound 4 hbar L^2 / (pi^2 E_avg), quadratic in the angle.

    The 4/pi^2 prefactor is deliberately smaller than the 2/pi known from
    numerical studies of undriven systems; both appear in the literature and
    this function implements the analytically derived one.
    """
    ell = _check_angle(ell)
    require_positive(hbar, "hbar")
    e_avg = _check_energy(e_avg, "time-averaged mean energy")
    if ell == 0.0:
        return 0.0
    bound = 4.0 * hbar * ell * ell / (math.pi**2 * e_avg) if e_avg > 0 else math.inf
    # inf / inf when hbar and E_avg both pass ~1e307; the ratio itself is finite
    return bound if bound == bound else 4.0 * ell * ell / math.pi**2 * (hbar / e_avg)


def tau_ml_linear(ell: float, e_avg: float, hbar: float) -> float:
    """Mean-energy bound hbar L / E_avg, linear in the angle.

    Always >= the quadratic form since L <= pi/2 implies 4 L^2 / pi^2 <= L.
    """
    ell = _check_angle(ell)
    require_positive(hbar, "hbar")
    e_avg = _check_energy(e_avg, "time-averaged mean energy")
    if ell == 0.0:
        return 0.0
    return hbar * ell / e_avg if e_avg > 0 else math.inf


def qsl_time(
    ell: float,
    e_avg: float,
    de_avg: float,
    hbar: float,
    mode: Literal["linear", "quadratic"] = "linear",
) -> float:
    """Unified speed-limit time: max of the energy and variance routes.

    ``mode`` selects the flavor of the mean-energy branch; the linear branch
    is the default unified form, the quadratic one an explicit opt-in.
    """
    if mode == "linear":
        energy_branch = tau_ml_linear(ell, e_avg, hbar)
    elif mode == "quadratic":
        energy_branch = tau_ml_quadratic(ell, e_avg, hbar)
    else:
        raise DomainError(f"unknown mode {mode!r}")
    return max(energy_branch, tau_mt(ell, de_avg, hbar))


def _slack(tau: float, bound: float) -> float:
    if bound == 0.0:
        return math.inf
    return tau / bound


@dataclass(frozen=True, eq=False)
class QSLReport:
    """All bounds, slack ratios tau/bound, and the run data they came from."""

    tau: float
    bures: float
    e_avg: float
    de_avg: float
    tau_mt: float
    tau_ml_quad: float
    tau_ml_lin: float
    tau_qsl: float
    slack_mt: float
    slack_ml_quad: float
    slack_ml_lin: float
    hbar: float

    @property
    def slack_min(self) -> float:
        return min(self.slack_mt, self.slack_ml_quad, self.slack_ml_lin)

    @property
    def qsl_satisfied(self) -> bool:
        """tau >= tau_qsl up to 1e-6 relative slack."""
        return self.tau >= self.tau_qsl - 1e-6 * self.tau

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in REPORT_SCALARS}
        out["slacks"] = {"mt": self.slack_mt, "ml_quad": self.slack_ml_quad, "ml_lin": self.slack_ml_lin}
        return out


def build_report(
    traj: Trajectory,
    mode: Literal["linear", "quadratic"] = "linear",
    strict: bool = True,
) -> QSLReport:
    """Assemble the speed-limit report for a trajectory.

    The Bures angle is taken between the run endpoints; averages use the
    trapezoid rule on the run grid.  With ``strict`` (default) a bound that
    exceeds the actual duration beyond 1e-6 relative raises
    :class:`BoundViolation`; pass ``strict=False`` to tally violations
    instead (the report's ``qsl_satisfied`` records the outcome).

    Every bound is proportional to ``traj.hbar`` at fixed run data, so
    ``build_report(dataclasses.replace(traj, hbar=h))`` is the
    classical-limit scaling probe.
    """
    ell = float(traj.bures_from_initial[-1])
    if ell < ANGLE_NOISE_FLOOR:
        ell = 0.0
    e_avg = time_avg_mean_energy(traj)
    de_avg = time_avg_energy_variance(traj)
    t_qsl = qsl_time(ell, e_avg, de_avg, traj.hbar, mode)
    t_mt = tau_mt(ell, de_avg, traj.hbar)
    t_mq = tau_ml_quadratic(ell, e_avg, traj.hbar)
    t_ml = tau_ml_linear(ell, e_avg, traj.hbar)

    tau = traj.tau
    report = QSLReport(
        tau=tau,
        bures=ell,
        e_avg=e_avg,
        de_avg=de_avg,
        tau_mt=t_mt,
        tau_ml_quad=t_mq,
        tau_ml_lin=t_ml,
        tau_qsl=t_qsl,
        slack_mt=_slack(tau, t_mt),
        slack_ml_quad=_slack(tau, t_mq),
        slack_ml_lin=_slack(tau, t_ml),
        hbar=traj.hbar,
    )
    if t_mq > t_ml + 1e-12:
        raise BoundViolation(
            f"quadratic bound {t_mq!r} exceeds linear bound {t_ml!r}; this is algebraically impossible"
        )
    if strict and not report.qsl_satisfied:
        raise BoundViolation(
            f"speed-limit time {t_qsl:.9g} exceeds the actual duration {tau:.9g} "
            f"(mode={mode}); the run falsifies the configured bound"
        )
    return report
