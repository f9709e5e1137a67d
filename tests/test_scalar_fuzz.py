"""Fuzz the library's scalar entry points over arbitrary floats.

Every call must either raise a `QspeedError` or return a value that is not
NaN, and emit no warning; the bound times and the speed-limit time must
also not be negative.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from conftest import equal_superposition, two_level_protocol  # noqa: E402
from qspeed import (  # noqa: E402
    audit_trajectory,
    check_trig_bound,
    ground_shift,
    propagate,
    qsl_time,
    step_unitary,
    tau_ml_linear,
    tau_ml_quadratic,
    tau_mt,
    wootters_angle,
)
from qspeed.errors import QspeedError  # noqa: E402

# any float, plus NaN, infinities, subnormals, negatives and huge
# magnitudes, which a random draw may miss
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300, 1.7e308, -1.0, 0.5, math.pi / 2]
)

PROTOCOL = ground_shift(two_level_protocol())
RUN = propagate(PROTOCOL, equal_superposition(), 16)
SZ = np.diag([1.0, -1.0]).astype(complex)


def outcome(call):
    """The value of ``call()``, or None when it raises a QspeedError; any
    warning is an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return call()
        except QspeedError:
            return None


@hypothesis.settings(derandomize=True, max_examples=300, deadline=None, database=None)
@hypothesis.given(ell=floats, e_avg=floats, de_avg=floats, hbar=floats)
def test_bound_times_are_numbers_and_nonnegative(ell, e_avg, de_avg, hbar):
    for call in (
        lambda: tau_mt(ell, de_avg, hbar),
        lambda: tau_ml_linear(ell, e_avg, hbar),
        lambda: tau_ml_quadratic(ell, e_avg, hbar),
        lambda: qsl_time(ell, e_avg, de_avg, hbar),
    ):
        t = outcome(call)
        assert t is None or t >= 0.0, t  # false for NaN too


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(x=floats)
def test_trig_bound_is_a_number(x):
    val = outcome(lambda: check_trig_bound(x))
    assert val is None or not math.isnan(val)


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(tol=floats)
def test_audit_tolerance(tol):
    report = outcome(lambda: audit_trajectory(RUN, tol=tol))
    assert report is None or not any(math.isnan(x) for x in (report.tolerance, *(c.worst_margin for c in report.checks)))


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(hbar=floats)
def test_audit_hbar(hbar):
    """The hbar rule of the bound formulas, and no NaN margin past it."""
    report = outcome(lambda: audit_trajectory(dataclasses.replace(RUN, hbar=hbar)))
    assert report is None or not any(math.isnan(c.worst_margin) for c in report.checks)
    if outcome(lambda: tau_mt(0.5, 1.0, hbar)) is None:
        assert report is None


@hypothesis.settings(derandomize=True, max_examples=200, deadline=None, database=None)
@hypothesis.given(dt=floats, hbar=floats)
def test_step_unitary(dt, hbar):
    """A finite matrix or an error, and the hbar rule of the bound formulas."""
    u = outcome(lambda: step_unitary(SZ, dt, hbar))
    assert u is None or np.isfinite(u).all()
    if outcome(lambda: tau_mt(0.5, 1.0, hbar)) is None:
        assert u is None


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(steps=floats | st.integers(-3, 40))
def test_step_count(steps):
    traj = outcome(lambda: propagate(PROTOCOL, equal_superposition(), steps))
    assert traj is None or traj.n_samples == steps + 1


@hypothesis.settings(derandomize=True, max_examples=100, deadline=None, database=None)
@hypothesis.given(x=floats, which=st.sampled_from([0, 1]))
def test_wootters_angle_with_one_entry_replaced(x, which):
    # the other entry keeps the sum at 1 where it can, so that a negative
    # entry meets the nonnegativity check, not only the normalization one
    dens = [[0.5, 0.5], [0.5, 0.5]]
    dens[which] = [x, 1.0 - x]
    angle = outcome(lambda: wootters_angle(dens[0], dens[1], 1.0))
    assert angle is None or not math.isnan(angle)
