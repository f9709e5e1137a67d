"""Exact oracle for driven runs: a rotation with a time-dependent rate.

Take orthonormal psi0, psi1 at any d and G = i(|psi1><psi0| - |psi0><psi1|),
then H(t) = hbar w(t) G with w(t) > 0.  All H(t) commute, so each midpoint
step rotates psi0 towards psi1 by exactly w(t_k + dt/2) dt: the Bures angle
L(t_j) is the midpoint-rule sum of w, and the energy spread at each sample is
exactly hbar w(t_j).  Against the exact integral of w the midpoint rule errs by
at most t dt^2 max|w''| / 24 and the report's trapezoid average by
tau dt^2 max|w''| / 12, which bounds |slack_mt - 1| by
tau dt^2 max|w''| / (8 L).

The mixed-qubit property drives H(t) = hbar w(t) sy from a random Bloch
vector.  The exact state is U rho0 U† with U = cos(theta) - i sin(theta) sy
and theta the integral of w, and its Bures angle follows from Hubner's qubit
fidelity F = tr rho0 rho + 2 sqrt(det rho0 det rho).  A rotation by theta
moves the Bures angle by at most theta, so the midpoint bound carries over;
arccos(sqrt F) adds a sqrt(eps) floor near L = 0.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qspeed import HamiltonianProtocol, QuantumState, build_report, ground_shift, propagate  # noqa: E402

STEPS = 1024
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def rotation_generator(rng, dim):
    """G for a random orthonormal pair psi0, psi1, and psi0."""
    z = rng.normal(size=(dim, 2)) + 1j * rng.normal(size=(dim, 2))
    q = np.linalg.qr(z)[0]
    psi0, psi1 = q[:, 0], q[:, 1]
    return 1j * (np.outer(psi1, psi0.conj()) - np.outer(psi0, psi1.conj())), psi0


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None, database=None)
@hypothesis.given(
    dim=st.integers(2, 12),
    hbar=st.floats(0.5, 2.0),
    tau=st.floats(0.5, 4.0),
    w0=st.floats(0.5, 2.0),
    depth=st.floats(0.0, 0.95),
    freq=st.floats(0.1, 10.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    angle=st.floats(0.2, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_rotation_at_driven_rate_matches_its_integral(dim, hbar, tau, w0, depth, freq, phase, angle, seed):
    amp = depth * w0
    # scale w = c (w0 + amp sin(f t + phase)) so that its integral over the run is ``angle``
    c = angle / (w0 * tau + amp / freq * (math.cos(phase) - math.cos(freq * tau + phase)))
    gen, psi0 = rotation_generator(np.random.default_rng(seed), dim)
    stack = lambda ts: (hbar * c * (w0 + amp * np.sin(freq * ts + phase)))[:, None, None] * gen
    protocol = ground_shift(HamiltonianProtocol(None, tau, hbar, "rotation", dim, stack=stack))
    traj = propagate(protocol, QuantumState.pure(psi0), STEPS)

    ts, dt = traj.times, traj.dt
    exact = c * (w0 * ts + amp / freq * (math.cos(phase) - np.cos(freq * ts + phase)))
    curvature = c * amp * freq**2  # >= max |w''|
    assert np.all(np.abs(traj.bures_from_initial - exact) <= ts * dt**2 * curvature / 24 + 1e-10)

    report = build_report(traj, strict=False)
    slack_bound = tau * dt**2 * curvature / (8 * report.bures) + 1e-10
    assert abs(report.slacks["mt"] - 1.0) <= slack_bound


@hypothesis.settings(derandomize=True, max_examples=30, deadline=None, database=None)
@hypothesis.given(
    radius=st.floats(0.05, 0.999),
    hbar=st.floats(0.5, 2.0),
    tau=st.floats(0.5, 4.0),
    w0=st.floats(0.5, 2.0),
    depth=st.floats(0.0, 0.95),
    freq=st.floats(0.1, 10.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    angle=st.floats(0.2, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_qubit_rotation_matches_the_exact_state(radius, hbar, tau, w0, depth, freq, phase, angle, seed):
    amp = depth * w0
    c = angle / (w0 * tau + amp / freq * (math.cos(phase) - math.cos(freq * tau + phase)))
    bloch = np.random.default_rng(seed).normal(size=3)
    bloch *= radius / np.linalg.norm(bloch)
    rho0 = (np.eye(2) + bloch[0] * SX + bloch[1] * SY + bloch[2] * SZ) / 2
    stack = lambda ts: (hbar * c * (w0 + amp * np.sin(freq * ts + phase)))[:, None, None] * SY
    protocol = ground_shift(HamiltonianProtocol(None, tau, hbar, "mixed rotation", 2, stack=stack))
    traj = propagate(protocol, QuantumState.mixed(rho0), STEPS)

    ts, dt = traj.times, traj.dt
    theta = (c * (w0 * ts + amp / freq * (math.cos(phase) - np.cos(freq * ts + phase))))[:, None, None]
    u = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * SY
    rho = u @ rho0 @ np.conj(np.swapaxes(u, 1, 2))
    fid = np.einsum("ij,tji->t", rho0, rho).real + 2 * np.sqrt(np.linalg.det(rho0).real * np.linalg.det(rho).real)
    exact = np.arccos(np.sqrt(np.clip(fid, 0.0, 1.0)))
    curvature = c * amp * freq**2  # >= max |w''|
    assert np.all(np.abs(traj.bures_from_initial - exact) <= ts * dt**2 * curvature / 24 + 3e-8)
