"""Shared builders for random states, protocols, and reference runs."""

import math

import numpy as np
import pytest

from qspeed import HamiltonianProtocol, QuantumState, ground_shift, propagate


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (a + a.conj().T) / (2.0 * math.sqrt(dim))


def random_pure_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return QuantumState.pure(v / np.linalg.norm(v))


def random_mixed_state(rng, dim, floor=0.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T + floor * np.eye(dim)
    return QuantumState.mixed(rho / np.trace(rho).real)


def random_unitary(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_smooth_protocol(rng, dim, duration=None, hbar=1.0, scale=1.0, label="random"):
    """Fixed Hermitian part plus two smoothly modulated Hermitian drives."""
    if duration is None:
        duration = float(rng.uniform(0.8, 2.5))
    a = random_hermitian(rng, dim, scale)
    b = random_hermitian(rng, dim, scale)
    c = random_hermitian(rng, dim, scale)
    w1, w2 = rng.uniform(0.5, 2.0, size=2)
    p1, p2 = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def evaluator(t):
        return a + math.sin(w1 * t + p1) * b + math.cos(w2 * t + p2) * c

    return HamiltonianProtocol(evaluator, duration, hbar, label, dim)


def every_matrix(f, stack, out=None):
    """``_linalg.once_per_run`` without its runs: ``f`` on the whole stack,
    the reference for decomposing each run of equal matrices once."""
    return f(stack) if out is None else f(stack, out=out)


def two_level_protocol(energy=1.0, duration=None, hbar=1.0, label="two-level"):
    """Constant diag(0, E); the equal-superposition run saturates the bounds."""
    if duration is None:
        duration = math.pi * hbar / energy
    h = np.diag([0.0, energy]).astype(complex)
    return HamiltonianProtocol(lambda t: h, duration, hbar, label, 2)


def rotating_ground(gap, tau):
    """H(t) = gap (1 - |g><g|) as a function of an array of times, with
    |g> = cos(theta)|0> + sin(theta)|1> and theta = (pi/2)(s - sin(2 pi s)/(2 pi)),
    s = t / tau.  The spectrum is {0, gap} at every t while the ground state
    turns through pi/2, so a run from |0> that follows it travels a Bures
    angle of about pi/2 at almost no mean energy: a witness against any
    mean-energy bound under driving."""

    def stack(ts):
        s = np.asarray(ts, dtype=float) / tau
        theta = (math.pi / 2) * (s - np.sin(2 * math.pi * s) / (2 * math.pi))
        g = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return gap * (np.eye(2) - g[:, :, None] * g[:, None, :])

    return stack


def equal_superposition(dim=2):
    return QuantumState.pure(np.ones(dim) / math.sqrt(dim))


def bures_rate(traj):
    """d_t L(rho_0, rho_t) at the interior samples 1 .. N-1, by the central
    difference that the audit's velocity checks use."""
    ell = traj.bures_from_initial
    return (ell[2:] - ell[:-2]) / (2.0 * traj.dt)


def run_random(rng, dim, pure, steps=512, scale=1.0, hbar=1.0, duration=None):
    """One ground-shifted random run; returns the trajectory."""
    protocol = random_smooth_protocol(rng, dim, duration=duration, hbar=hbar, scale=scale)
    state = random_pure_state(rng, dim) if pure else random_mixed_state(rng, dim)
    return propagate(ground_shift(protocol), state, steps)


@pytest.fixture(scope="session")
def saturating_run():
    """Equal superposition under constant diag(0, 1) for tau = pi."""
    return propagate(ground_shift(two_level_protocol()), equal_superposition(), 2048)


@pytest.fixture(scope="session")
def small_corpus():
    """A few dozen seeded random runs (pure and mixed, dims 2..6) at N=512."""
    rng = np.random.default_rng(1234)
    runs = []
    for i in range(24):
        dim = 2 + i % 5
        runs.append(run_random(rng, dim, pure=i % 2 == 0))
    return runs
