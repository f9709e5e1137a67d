"""Built-in protocol kinds evaluate H on a whole time grid in one call.

The reference for every kind is its per-t formula, kept here as the closure
the CLI once built; the whole-grid stack must reproduce it bit for bit.
"""

import dataclasses
import math

import numpy as np
import pytest

from conftest import random_hermitian, random_smooth_protocol
from qspeed import HamiltonianProtocol, _linalg, audit_trajectory, build_report, ground_shift, propagate, qdyn
from qspeed.cli import SX, SZ, ProtocolConfig, build_protocol, decode_matrix, initial_state

STEPS = 2048


def encode(m):
    """Nested JSON list of {re, im} entries."""
    return [[{"re": float(z.real), "im": float(z.imag)} for z in row] for row in np.asarray(m, dtype=complex)]


def _configs():
    rng = np.random.default_rng(20260810)
    durations = [0.3, 0.55, 0.41]
    knots = [0.0, 0.2, 0.45, 0.7, 1.0, 1.3]
    base = {"hbar": 1.0, "steps": STEPS}
    return {
        "constant": {
            **base,
            "kind": "constant",
            "dim": 3,
            "duration": 1.7,
            "params": {"matrix": encode(random_hermitian(rng, 3))},
            "initial_state": "equal_superposition",
        },
        "piecewise_const": {
            **base,
            "kind": "piecewise_const",
            "dim": 3,
            "duration": sum(durations),
            "params": {"segments": [{"matrix": encode(random_hermitian(rng, 3)), "duration": sd} for sd in durations]},
            "initial_state": {"matrix": encode(np.diag([0.5, 0.3, 0.2]))},
        },
        "rabi_qubit": {
            **base,
            "kind": "rabi_qubit",
            "dim": 2,
            "duration": 3.1,
            "params": {"omega0": 1.3, "amplitude": 0.7, "drive_frequency": 2.2},
            "initial_state": {"amplitudes": [0.6, 0.8]},
        },
        "landau_zener": {
            **base,
            "kind": "landau_zener",
            "dim": 2,
            "duration": 4.3,
            "params": {"sweep_rate": 2.5, "gap": 0.6},
            "initial_state": "ground",
        },
        "modulated_oscillator": {
            **base,
            "kind": "modulated_oscillator",
            "dim": 6,
            "hbar": 0.7,
            "duration": 1.1,
            "params": {"omega0": 0.9, "pump_rate": 1.4, "squeeze": 0.05},
            "initial_state": {"matrix": encode(np.diag([0.4, 0.3, 0.2, 0.1, 0.0, 0.0]))},
        },
        "matrix_samples": {
            **base,
            "kind": "matrix_samples",
            "dim": 4,
            "duration": 1.25,
            "params": {"samples": [{"t": t, "matrix": encode(random_hermitian(rng, 4))} for t in knots]},
            "initial_state": {"amplitudes": [0.5, 0.5, 0.5, 0.5]},
        },
    }


CONFIGS = _configs()
KINDS = list(CONFIGS)
# every kind, and the oscillator at two more dims, whose ladder operator the
# per-t reference builds entry by entry
STACK_CASES = {
    **CONFIGS,
    **{
        f"modulated_oscillator_dim{d}": {**CONFIGS["modulated_oscillator"], "dim": d, "initial_state": "ground"}
        for d in (3, 16)
    },
}


def reference_evaluator(cfg: ProtocolConfig):
    """The per-t closure of each kind, as the CLI built it before stacks."""
    kind, d, tau, params = cfg.kind, cfg.dim, cfg.duration, cfg.params
    if kind == "constant":
        h = decode_matrix(params["matrix"], d, "matrix")
        return lambda t: h
    if kind == "piecewise_const":
        mats = [decode_matrix(s["matrix"], d, "matrix") for s in params["segments"]]
        edges = [0.0]
        for s in params["segments"]:
            edges.append(edges[-1] + float(s["duration"]))
        edges_arr = np.array(edges)

        def evaluator(t):
            i = min(int(np.searchsorted(edges_arr, t, side="right")) - 1, len(mats) - 1)
            return mats[max(i, 0)]

        return evaluator
    if kind == "rabi_qubit":
        w0, amp, wd = (float(params[k]) for k in ("omega0", "amplitude", "drive_frequency"))
        return lambda t: (w0 / 2) * SZ + amp * math.cos(wd * t) * SX
    if kind == "landau_zener":
        v, gap = float(params["sweep_rate"]), float(params["gap"])
        return lambda t: (v * (t - tau / 2) / 2) * SZ + (gap / 2) * SX
    if kind == "modulated_oscillator":
        w0, gamma, lam = (float(params[k]) for k in ("omega0", "pump_rate", "squeeze"))
        number_op = np.diag(np.arange(d, dtype=float)).astype(complex)
        a = np.zeros((d, d), dtype=complex)
        for n in range(1, d):
            a[n - 1, n] = math.sqrt(n)
        squeeze_op = a @ a + (a @ a).conj().T
        hb = cfg.hbar
        return lambda t: hb * w0 * math.exp(gamma * t) * number_op + lam * squeeze_op
    if kind == "matrix_samples":
        ts_arr = np.array([float(s["t"]) for s in params["samples"]])
        stack = np.stack([decode_matrix(s["matrix"], d, "matrix") for s in params["samples"]])

        def evaluator(t):
            i = int(np.clip(np.searchsorted(ts_arr, t, side="right") - 1, 0, len(ts_arr) - 2))
            w = (t - ts_arr[i]) / (ts_arr[i + 1] - ts_arr[i])
            return (1.0 - w) * stack[i] + w * stack[i + 1]

        return evaluator
    raise AssertionError(kind)


def both(kind):
    """(stack protocol, closure reference protocol) for one kind of ``STACK_CASES``."""
    cfg = ProtocolConfig.from_dict(STACK_CASES[kind])
    p = build_protocol(cfg)
    ref = HamiltonianProtocol(reference_evaluator(cfg), cfg.duration, cfg.hbar, cfg.label, cfg.dim)
    return cfg, p, ref


def special_times(cfg: ProtocolConfig) -> np.ndarray:
    """0, the duration, and every segment edge or sample time of the kind."""
    ts = [0.0, cfg.duration]
    if cfg.kind == "piecewise_const":
        edge = 0.0
        for s in cfg.params["segments"]:
            edge += float(s["duration"])
            ts.append(edge)
    if cfg.kind == "matrix_samples":
        ts += [float(s["t"]) for s in cfg.params["samples"]]
    return np.array(ts)


def same_bits(a, b):
    """Equal bit for bit, signed zeros included."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind", list(STACK_CASES))
@pytest.mark.parametrize("grid", ["midpoints", "samples", "special"])
def test_stack_matches_per_t_formula(kind, grid):
    cfg, p, ref = both(kind)
    times = np.linspace(0.0, cfg.duration, STEPS + 1)
    ts = {
        "midpoints": times[:-1] + cfg.duration / STEPS / 2,
        "samples": times,
        "special": special_times(cfg),
    }[grid]
    got = p.matrices(ts)
    want = ref.matrices(ts)
    assert np.array_equal(got, want)
    assert same_bits(got, want)


def test_special_times_hit_edges_and_samples():
    """The special grids really contain the edges the stacks branch on."""
    cfg, p, _ = both("piecewise_const")
    ts = special_times(cfg)
    segs = [decode_matrix(s["matrix"], 3, "m") for s in cfg.params["segments"]]
    # t on an edge takes the segment that starts there; t = duration the last
    assert np.array_equal(p.matrices(ts[2:4]), np.stack(segs[1:3]))
    assert np.array_equal(p.matrix(cfg.duration), segs[-1])
    cfg, p, _ = both("matrix_samples")
    knots = cfg.params["samples"]
    for s in knots[:-1]:
        assert np.array_equal(p.matrix(float(s["t"])), decode_matrix(s["matrix"], 4, "m"))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["instantaneous", "global"])
def test_propagate_matches_closure_reference(kind, mode):
    cfg, p, ref = both(kind)
    s0 = initial_state(cfg, p)
    got = propagate(ground_shift(p, mode), s0, cfg.steps)
    want = propagate(ground_shift(ref, mode), s0, cfg.steps)
    for field in ("states", "h_samples", "mean_energy", "energy_spread", "bures_from_initial"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("mode", ["instantaneous", "global"])
def test_one_stack_call_per_grid(kind, mode):
    """ground shift -> propagate -> report -> audit calls the stack once on
    the N midpoints and once on the N + 1 samples, after one call per row
    slice of the global scan, and never samples one time at a time."""
    calls = []
    cfg = ProtocolConfig.from_dict({**CONFIGS[kind], "steps": 64, "initial_state": "equal_superposition"})
    p = build_protocol(cfg)
    stack = p.stack

    def counted(ts):
        calls.append(len(ts))
        return stack(ts)

    p = dataclasses.replace(p, stack=counted)
    traj = propagate(ground_shift(p, mode), initial_state(cfg, p), cfg.steps)
    build_report(traj, strict=False)
    audit_trajectory(traj)
    view = np.broadcast_to(0j, (qdyn.GLOBAL_SCAN_SAMPLES, cfg.dim, cfg.dim))
    scan = [len(view[s]) for s in _linalg.row_slices(view)] if mode == "global" else []
    assert calls == scan + [cfg.steps, cfg.steps + 1]


def offset_cases():
    """Each kind, the oscillator at d = 16, a constant drive and a smooth
    evaluator protocol at d = 16, whose scans span 17 row slices."""
    rng = np.random.default_rng(20261021)
    h = random_hermitian(rng, 16)
    return {
        **{kind: build_protocol(ProtocolConfig.from_dict(CONFIGS[kind])) for kind in KINDS},
        "modulated_oscillator_dim16": both("modulated_oscillator_dim16")[1],
        "constant_dim16": HamiltonianProtocol(None, 1.3, dim=16, stack=lambda ts: np.repeat(h[None], len(ts), axis=0)),
        "smooth_dim16": random_smooth_protocol(rng, 16),
    }


OFFSET_CASES = offset_cases()


@pytest.mark.parametrize("case", list(OFFSET_CASES))
def test_global_offset_is_the_whole_scan_minimum(case):
    """The global shift's scan, evaluated and decomposed in row slices, gives
    the offset of one eigvalsh over the whole scan, bit for bit."""
    p = OFFSET_CASES[case]
    ts = np.linspace(0.0, p.duration, qdyn.GLOBAL_SCAN_SAMPLES)
    want = float(np.linalg.eigvalsh(p.matrices(ts))[:, 0].min())
    got = ground_shift(p, "global").global_offset
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if p.dim == 16:
        assert len(_linalg.row_slices(np.broadcast_to(0j, (qdyn.GLOBAL_SCAN_SAMPLES, 16, 16)))) == 17
