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
violate it (see the audit module).  Under driving the quadratic bound is
not a theorem either: a ground state turning at a fixed spectrum carries a
state through a Bures angle of pi/2 at almost no mean energy.
``build_report`` therefore treats a deficit in any bound as a reportable
violation, raising by default.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _speed_limit(ell: float, rate: float, hbar: float, what: str, formula) -> float:
    """``formula(L, rate, hbar)`` under the rule every time hbar f(L) / rate shares:
    L in [0, pi/2], clipped; hbar finite and > 0; the rate (``what``) finite,
    clamped at 0 above -1e-9 relative and :class:`NegativeEnergy` below it.
    L = 0 gives 0 and rate = 0 < L gives +inf.  The formula is evaluated on
    the mantissas of hbar and the rate, in [0.5, 1), and scaled by their
    exponents last, so hbar L, 4 hbar or pi^2 rate cannot overflow or
    underflow on the way (only L^2 can, for L below ~1e-154); scaling by a
    power of two is exact, so a time whose direct evaluation stays normal
    keeps its bits."""
    if not -1e-12 <= ell <= HALF_PI + 1e-9:
        raise DomainError(f"Bures angle {ell!r} outside [0, pi/2]")
    require_positive(hbar, "hbar")
    if not math.isfinite(rate):
        raise NotFinite(f"{what} is {rate!r}")
    if rate < -1e-9 * max(1.0, abs(rate)):
        raise NegativeEnergy(f"{what} is negative: {rate:.3e}")
    ell = min(max(ell, 0.0), HALF_PI)
    if ell == 0.0:
        return 0.0
    if rate <= 0.0:  # clamped at 0
        return math.inf
    (h, h_exp), (r, r_exp) = math.frexp(hbar), math.frexp(rate)
    try:
        return math.ldexp(formula(ell, r, h), h_exp - r_exp)
    except OverflowError:
        return math.inf


def tau_mt(ell: float, de_avg: float, hbar: float) -> float:
    """Variance-route bound hbar L / dE_avg."""
    return _speed_limit(ell, de_avg, hbar, "time-averaged energy spread", lambda ell, de, hbar: hbar * ell / de)


def tau_ml_quadratic(ell: float, e_avg: float, hbar: float) -> float:
    """Mean-energy bound 4 hbar L^2 / (pi^2 E_avg), quadratic in the angle.

    The 4/pi^2 prefactor is deliberately smaller than the 2/pi known from
    numerical studies of undriven systems; both appear in the literature and
    this function implements the analytically derived one.
    """
    return _speed_limit(
        ell, e_avg, hbar, "time-averaged mean energy", lambda ell, e, hbar: 4.0 * hbar * ell * ell / (math.pi**2 * e)
    )


def tau_ml_linear(ell: float, e_avg: float, hbar: float) -> float:
    """Mean-energy bound hbar L / E_avg, linear in the angle.

    Always >= the quadratic form since L <= pi/2 implies 4 L^2 / pi^2 <= L.
    """
    return _speed_limit(ell, e_avg, hbar, "time-averaged mean energy", lambda ell, e, hbar: hbar * ell / e)


# the mean-energy bounds by ``mode``; qsl_time and the run config accept these keys
ML_MODES = {"linear": tau_ml_linear, "quadratic": tau_ml_quadratic}


def qsl_time(
    ell: float,
    e_avg: float,
    de_avg: float,
    hbar: float,
    mode: str = "linear",
) -> float:
    """Unified speed-limit time: max of the energy and variance routes.

    ``mode`` selects the flavor of the mean-energy branch; the linear branch
    is the default unified form, the quadratic one an explicit opt-in.
    """
    if not isinstance(mode, str) or mode not in ML_MODES:
        raise DomainError(f"unknown mode {mode!r}")
    return max(ML_MODES[mode](ell, e_avg, hbar), tau_mt(ell, de_avg, hbar))


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

    @property
    def slacks(self) -> dict[str, float]:
        """tau / bound for each bound, in report order; inf for a zero bound."""
        taus = {"mt": self.tau_mt, "ml_quad": self.tau_ml_quad, "ml_lin": self.tau_ml_lin}
        return {name: self.tau / t if t != 0.0 else math.inf for name, t in taus.items()}

    @property
    def slack_min(self) -> float:
        return min(self.slacks.values())

    @property
    def qsl_satisfied(self) -> bool:
        """tau >= tau_qsl up to 1e-6 relative slack."""
        return self.tau >= self.tau_qsl - 1e-6 * self.tau

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in REPORT_SCALARS}, "slacks": self.slacks}


def build_report(
    traj: Trajectory,
    mode: str = "linear",
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
