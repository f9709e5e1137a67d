"""Batch front end: config-driven runs, sweeps, audits, and the Fisher demo.

A run is described by a single JSON document (see README for the schema).
The pipeline is: build protocol -> ground shift -> propagate -> speed-limit
report -> inequality audit -> one JSON report.  Sweeps rerun the pipeline
over a list of values for one config field and emit one CSV row per value.

Exit codes: 0 success, 2 config error, 3 numerical/domain error, 4 bound or
audit violation (so CI can tell falsification from misconfiguration).
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
import time
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from . import __version__, _linalg, bounds, geometry, qdyn, verify
from .errors import BadConfig, DomainError, QspeedError

__all__ = [
    "ProtocolConfig",
    "build_protocol",
    "initial_state",
    "run_pipeline",
    "run_command",
    "sweep_command",
    "audit_command",
    "fisher_command",
    "gaussian_shift_track",
    "main",
]

# every protocol kind with the names its ``params`` accept, each mapped to its
# default; None marks a required param
KIND_PARAMS = {
    "constant": {"matrix": None},
    "piecewise_const": {"segments": None},
    "rabi_qubit": {"omega0": None, "amplitude": None, "drive_frequency": None},
    "landau_zener": {"sweep_rate": None, "gap": None},
    "modulated_oscillator": {"omega0": None, "pump_rate": None, "squeeze": 0.0},
    "matrix_samples": {"samples": None},
}

LEAKAGE_LIMIT = 1e-6

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_VIOLATION = 4


# ---------------------------------------------------------------------------
# Config parsing


@dataclass(frozen=True, eq=False)
class ProtocolConfig:
    """Validated run configuration; ``from_dict`` fills in the defaults."""

    kind: str
    dim: int
    duration: float
    params: dict
    initial_state: Any
    hbar: float
    steps: int
    ground_shift_mode: str
    ml_mode: str
    audit_tolerance: float
    label: str

    @classmethod
    def from_dict(cls, raw: dict) -> "ProtocolConfig":
        if not isinstance(raw, dict):
            raise BadConfig("config must be a JSON object")
        _refuse_unknown(raw, [f.name for f in fields(cls)])

        def read(name, default=None, ok=lambda val: True, why=""):
            """``raw[name]``, or ``default`` when absent (None: required), refused unless ``ok``."""
            if name not in raw and default is None:
                raise BadConfig(f"missing required field '{name}'")
            val = raw.get(name, default)
            if not ok(val):
                raise BadConfig(f"field '{name}' invalid: {why}")
            return val

        def positive(name, default=None):
            return float(read(name, default, lambda val: _finite(val, name) > 0, "must be a finite number > 0"))

        def choice(name, default, options):
            why = f"must be one of {tuple(options)}"
            return read(name, default, lambda val: isinstance(val, str) and val in options, why)

        kind = choice("kind", None, KIND_PARAMS)
        dim = read("dim", None, lambda d: isinstance(d, int) and d >= 2, "must be an integer >= 2")
        duration = positive("duration")
        hbar = positive("hbar", 1.0)
        steps = read("steps", 2048, lambda n: isinstance(n, int) and n >= 16, "must be an integer >= 16")
        gsm = choice("ground_shift_mode", "instantaneous", qdyn.GROUND_SHIFT_MODES)
        try:
            qdyn.step_size(duration, steps, dim, gsm)
        except DomainError as exc:
            raise BadConfig(f"fields 'duration', 'steps' and 'dim' invalid: {exc}") from exc
        ml_mode = choice("ml_mode", "linear", bounds.ML_MODES)
        tol = positive("audit_tolerance", 1e-6)
        return cls(
            kind=kind,
            dim=dim,
            duration=duration,
            params=read("params", {}, lambda p: isinstance(p, dict), "must be an object"),
            initial_state=read("initial_state"),
            hbar=hbar,
            steps=steps,
            ground_shift_mode=gsm,
            ml_mode=ml_mode,
            audit_tolerance=tol,
            label=read("label", kind, lambda val: isinstance(val, str), "must be a string"),
        )


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadConfig(f"cannot read config file {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a huge integer, deep nesting
        raise BadConfig(f"config file {path} is not valid JSON: {exc}") from exc


def _finite(val, field: str) -> float:
    """``val`` as a float; BadConfig naming ``field`` unless it is a finite
    JSON number (booleans are not numbers here)."""
    # the abs test is false for NaN, infinities and integers too large for a float
    if isinstance(val, bool) or not isinstance(val, (int, float)) or not abs(val) <= sys.float_info.max:
        raise BadConfig(f"field '{field}' invalid: must be a finite number")
    return float(val)


def _refuse_unknown(obj: dict, accepted, prefix: str = "", context: str = ""):
    """BadConfig naming, by its full path ``prefix + key``, each key of ``obj`` not in ``accepted``."""
    unknown = obj.keys() - set(accepted)
    if unknown:
        raise BadConfig(f"unknown field(s) {', '.join(sorted(repr(prefix + k) for k in unknown))}{context}")


def _decode_entry(entry, where: str) -> complex:
    """A number, or an object with ``re``, ``im`` or both (a missing part is 0)."""
    if isinstance(entry, dict) and entry and set(entry) <= {"re", "im"}:
        return complex(_finite(entry.get("re", 0.0), f"{where}.re"), _finite(entry.get("im", 0.0), f"{where}.im"))
    if isinstance(entry, (int, float)):
        return complex(_finite(entry, where))
    raise BadConfig(f"{where}: entries must be numbers or objects with 're', 'im' or both")


def decode_matrix(raw, dim: int, where: str) -> np.ndarray:
    if not isinstance(raw, list) or len(raw) != dim or any(not isinstance(row, list) or len(row) != dim for row in raw):
        raise BadConfig(f"{where}: must be a {dim} x {dim} nested list")
    entries = [[_decode_entry(e, f"{where}[{i}][{j}]") for j, e in enumerate(row)] for i, row in enumerate(raw)]
    return np.array(entries, dtype=complex)


def _field_checked(where: str, check, value):
    """``check(value)``, with a library error re-raised as BadConfig naming ``where``."""
    try:
        return check(value)
    except QspeedError as exc:
        raise BadConfig(f"field '{where}' invalid: {exc}") from exc


def _hamiltonian(raw, dim: int, where: str) -> np.ndarray:
    """A decoded matrix param, checked Hermitian (within 1e-10)."""
    return _field_checked(where, _linalg.require_hermitian, decode_matrix(raw, dim, where))


def _numbers(cfg: ProtocolConfig) -> list[float]:
    """The kind's number params in ``KIND_PARAMS`` order, defaults filled in."""
    vals = []
    for name, default in KIND_PARAMS[cfg.kind].items():
        if name not in cfg.params and default is None:
            raise BadConfig(f"{cfg.kind}: missing required param '{name}'")
        vals.append(_finite(cfg.params.get(name, default), f"params.{name}"))
    return vals


def _overflow(cfg: ProtocolConfig, i: int, formula: str) -> BadConfig:
    """BadConfig: ``formula`` of the kind's ``i``-th param (written ``{}``) overflows a float."""
    name = list(KIND_PARAMS[cfg.kind])[i]
    return BadConfig(f"field 'params.{name}' invalid: {formula.format(name)} overflows a float")


def _table(cfg: ProtocolConfig, key: str, number: str, least: int) -> tuple[list[float], np.ndarray]:
    """The numbers and the stacked Hermitian matrices of the {number, matrix} rows in ``key``."""
    rows = cfg.params.get(key)
    if not isinstance(rows, list) or len(rows) < least:
        raise BadConfig(f"params.{key}: must be a list of at least {least} {{{number}, matrix}} objects")
    nums, mats = [], []
    for i, row in enumerate(rows):
        where = f"params.{key}[{i}]"
        if isinstance(row, dict):
            _refuse_unknown(row, (number, "matrix"), f"{where}.")
        if not isinstance(row, dict) or number not in row or "matrix" not in row:
            raise BadConfig(f"{where}: needs '{number}' and 'matrix'")
        nums.append(_finite(row[number], f"{where}.{number}"))
        mats.append(_hamiltonian(row["matrix"], cfg.dim, f"{where}.matrix"))
    return nums, np.stack(mats)


# ---------------------------------------------------------------------------
# Protocol construction

SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def _ladder(dim: int) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = math.sqrt(n)
    return a


def build_protocol(cfg: ProtocolConfig) -> qdyn.HamiltonianProtocol:
    """Realize the configured protocol kind as a HamiltonianProtocol whose
    ``stack`` evaluates H on a whole time grid in one call."""
    kind, d, tau = cfg.kind, cfg.dim, cfg.duration
    accepted = KIND_PARAMS[kind]
    _refuse_unknown(cfg.params, accepted, "params.", f" for kind '{kind}', which accepts {', '.join(accepted)}")
    if kind in ("rabi_qubit", "landau_zener") and d != 2:
        raise BadConfig(f"{kind} requires dim = 2")

    if kind == "constant":
        h = _hamiltonian(cfg.params.get("matrix"), d, "params.matrix")
        stack = lambda ts: np.repeat(h[None], len(ts), axis=0)

    elif kind == "piecewise_const":
        durations, table = _table(cfg, "segments", "duration", 1)
        edges = [0.0]
        for i, sd in enumerate(durations):
            if sd <= 0:
                raise BadConfig(f"params.segments[{i}].duration: must be > 0")
            edges.append(edges[-1] + sd)
        if abs(edges[-1] - tau) > 1e-9 * max(1.0, tau):
            raise BadConfig(f"params.segments: durations sum to {edges[-1]:g}, expected {tau:g}")
        edges_arr = np.array(edges)

        def stack(ts):
            # segment i holds on [edges[i], edges[i + 1]); the last one also past its end
            return table[np.clip(np.searchsorted(edges_arr, ts, side="right") - 1, 0, len(table) - 1)]

    elif kind == "rabi_qubit":
        w0, amp, wd = _numbers(cfg)
        if not math.isfinite(wd * tau):
            raise _overflow(cfg, 2, "{} * duration")

        def stack(ts):
            # math.cos, as the per-t formula had it: numpy's vectorized cos
            # is not bound to round like the C library's on every platform
            return (w0 / 2) * SZ + np.array([amp * math.cos(wd * t) for t in ts.tolist()])[:, None, None] * SX

    elif kind == "landau_zener":
        v, gap = _numbers(cfg)
        # the sweep term v (t - tau / 2) / 2 forms v * (tau / 2) at t = tau
        if not math.isfinite(v * (tau / 2)):
            raise _overflow(cfg, 0, "{} * duration / 2")
        stack = lambda ts: (v * (ts - tau / 2) / 2)[:, None, None] * SZ + (gap / 2) * SX

    elif kind == "modulated_oscillator":
        if d < 3:
            raise BadConfig("modulated_oscillator requires dim >= 3: leakage is read from the top two levels")
        w0, gamma, lam = _numbers(cfg)
        if gamma * tau > math.log(sys.float_info.max):
            raise _overflow(cfg, 1, "exp({} * duration)")
        # the largest entries of the two terms: hbar omega0 exp(pump_rate t) (dim - 1)
        # at the t in [0, tau] where the exponential peaks, and squeeze sqrt((dim - 1)(dim - 2))
        if not math.isfinite(cfg.hbar * w0 * math.exp(max(gamma * tau, 0.0)) * (d - 1)):
            raise _overflow(cfg, 0, "hbar * {} * exp(max(pump_rate * duration, 0)) * (dim - 1)")
        number_op = np.diag(np.arange(d, dtype=float)).astype(complex)
        a = _ladder(d)
        squeeze_op = a @ a + (a @ a).conj().T
        if not math.isfinite(lam * float(np.abs(squeeze_op).max())):
            raise _overflow(cfg, 2, "{} * sqrt((dim - 1) * (dim - 2))")

        def stack(ts):
            # math.exp, not np.exp: the two differ in the last bit at some t
            coeff = np.array([cfg.hbar * w0 * math.exp(gamma * t) for t in ts.tolist()])
            return coeff[:, None, None] * number_op + lam * squeeze_op

    elif kind == "matrix_samples":
        knots, table = _table(cfg, "samples", "t", 2)
        knots_arr = np.array(knots)
        with np.errstate(over="ignore"):
            gaps = np.diff(knots_arr)
        # a spacing that overflows to inf would turn the weights below into NaN
        if not np.all((gaps > 0) & np.isfinite(gaps)):
            raise BadConfig("params.samples: t values must be strictly increasing, each spacing a finite float")
        if knots_arr[0] > 0.0 or knots_arr[-1] < tau:
            raise BadConfig(f"params.samples: t values must cover [0, {tau:g}]")

        def stack(ts):
            # linear interpolation on the interval [knots[i], knots[i + 1]] holding t
            i = np.clip(np.searchsorted(knots_arr, ts, side="right") - 1, 0, len(knots_arr) - 2)
            w = ((ts - knots_arr[i]) / gaps[i])[:, None, None]
            return (1.0 - w) * table[i] + w * table[i + 1]

    else:  # pragma: no cover - guarded by ProtocolConfig
        raise BadConfig(f"unknown protocol kind '{kind}'")

    return qdyn.HamiltonianProtocol(None, tau, cfg.hbar, cfg.label, d, stack=stack)


def initial_state(cfg: ProtocolConfig, protocol: qdyn.HamiltonianProtocol) -> qdyn.QuantumState:
    """Resolve the configured initial state (labels, amplitudes, or matrix)."""
    spec = cfg.initial_state
    if spec == "ground":
        return qdyn.QuantumState.pure(np.linalg.eigh(protocol.matrix(0.0))[1][:, 0])
    if spec == "equal_superposition":
        return qdyn.QuantumState.pure(np.ones(cfg.dim) / math.sqrt(cfg.dim))
    if isinstance(spec, dict) and "amplitudes" in spec:
        _refuse_unknown(spec, ["amplitudes"], "initial_state.")
        amps = spec["amplitudes"]
        if not isinstance(amps, list) or len(amps) != cfg.dim:
            raise BadConfig(f"initial_state.amplitudes: expected a list of length {cfg.dim}")
        amps = [_decode_entry(e, f"initial_state.amplitudes[{i}]") for i, e in enumerate(amps)]
        return _field_checked("initial_state.amplitudes", qdyn.QuantumState.pure, np.array(amps))
    if isinstance(spec, dict) and "matrix" in spec:
        _refuse_unknown(spec, ["matrix"], "initial_state.")
        matrix = decode_matrix(spec["matrix"], cfg.dim, "initial_state.matrix")
        return _field_checked("initial_state.matrix", qdyn.QuantumState.mixed, matrix)
    raise BadConfig(
        "initial_state: must be 'ground', 'equal_superposition', {'amplitudes': [...]}, or {'matrix': [[...]]}"
    )


# ---------------------------------------------------------------------------
# Pipeline


def _oscillator_leakage(traj: qdyn.Trajectory) -> float:
    """Max population of the top two ladder levels along the run."""
    k = traj.dim - 2
    if traj.is_pure:
        pops = np.sum(np.abs(traj.states[:, k:]) ** 2, axis=1)
    else:
        pops = np.trace(traj.states[:, k:, k:], axis1=1, axis2=2).real
    return float(pops.max())


def run_pipeline(cfg: ProtocolConfig):
    """Ground shift, propagate, bound report, audit.  Returns (report dict, bound
    report, audit, failed): the names of the failed checks, then "qsl_bound" if
    the bound is violated; a violation is recorded, not raised."""
    protocol = build_protocol(cfg)
    shifted = qdyn.ground_shift(protocol, cfg.ground_shift_mode)
    state = initial_state(cfg, protocol)
    t0 = time.perf_counter()
    traj = qdyn.propagate(shifted, state, cfg.steps)

    leakage = None
    if cfg.kind == "modulated_oscillator":
        leakage = _oscillator_leakage(traj)
        if leakage > LEAKAGE_LIMIT:
            raise QspeedError(
                f"truncation leakage {leakage:.3e} exceeds {LEAKAGE_LIMIT:g}; "
                f"raise 'dim' or lower the squeeze coupling"
            )

    report = bounds.build_report(traj, cfg.ml_mode, strict=False)
    audit = verify.audit_trajectory(traj, cfg.audit_tolerance)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    print(f"[qspeed] {cfg.label}: computed in {elapsed_ms:.1f} ms", file=sys.stderr)

    doc = {
        "meta": {
            "version": __version__,
            "grid": cfg.steps,
            # pinned so that identical configs produce byte-identical reports;
            # the measured time goes to stderr
            "wall_ms": 0,
            "label": cfg.label,
            "kind": cfg.kind,
            "dim": cfg.dim,
            "hbar": cfg.hbar,
            "ml_mode": cfg.ml_mode,
            "ground_shift_mode": cfg.ground_shift_mode,
        },
        "qsl": report.to_dict(),
        "audit": {k: v for k, v in audit.to_dict().items() if k != "trajectory_label"},
    }
    if leakage is not None:
        doc["meta"]["leakage"] = leakage
    failed = [c.name for c in audit.checks if not c.passed]
    if not report.qsl_satisfied:
        failed.append("qsl_bound")
    return doc, report, audit, failed


def _sanitize(obj):
    """Replace non-finite floats with strings so the JSON stays strict."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # "inf", "-inf" or "nan"
    return obj


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def write_json(doc: dict, path: str | None):
    _write(json.dumps(_sanitize(doc), indent=2, allow_nan=False) + "\n", path)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def write_csv(path: str | None, header: list[str], rows: list[list]):
    lines = [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]
    _write("\n".join(lines) + "\n", path)


# ---------------------------------------------------------------------------
# Commands


def run_command(config_path: str, output: str | None = None) -> int:
    cfg = ProtocolConfig.from_dict(load_config(config_path))
    doc, _, _, failed = run_pipeline(cfg)
    write_json(doc, output)
    if failed:
        print(f"[qspeed] violation in: {', '.join(failed)}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _set_path(raw: dict, path: str, value):
    *parents, last = path.split(".")
    node = raw
    for p in parents:
        node = node.get(p) if isinstance(node, dict) else None
    if not isinstance(node, dict) or last not in node:
        raise BadConfig(f"sweep parameter path '{path}' does not resolve in the config")
    node[last] = value


SWEEP_HEADER = ["param_value", *bounds.REPORT_SCALARS, "slack_min", "audit_passed"]


def sweep_command(config_path: str, parameter: str, values: list[float], output: str | None = None) -> int:
    if not parameter:
        raise BadConfig("sweep parameter path must be non-empty")
    if not values:
        raise BadConfig("sweep values must be non-empty")
    raw_base = load_config(config_path)
    ProtocolConfig.from_dict(raw_base)  # validate base once
    rows = []
    for value in values:
        raw = copy.deepcopy(raw_base)
        _set_path(raw, parameter, value)
        _, report, _, failed = run_pipeline(ProtocolConfig.from_dict(raw))
        rows.append([value, *(getattr(report, name) for name in SWEEP_HEADER[1:-1]), not failed])
    write_csv(output, SWEEP_HEADER, rows)
    return EXIT_OK


def audit_command(config_path: str, tol: float | None = None, output: str | None = None) -> int:
    raw = load_config(config_path)
    if tol is not None and isinstance(raw, dict):  # else from_dict names the fault
        raw = {**raw, "audit_tolerance": tol}
    cfg = ProtocolConfig.from_dict(raw)
    doc, report, audit, failed = run_pipeline(cfg)
    for c in audit.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status}  {c.name:20s} worst_margin={c.worst_margin:+.3e} at t={c.worst_time:.6g}")
    for name in audit.skipped:
        print(f"skip  {name:20s} (mixed-state run)")
    print(f"{'FAIL' if 'qsl_bound' in failed else 'pass'}  {'qsl_bound':20s} slack_min={report.slack_min:.6g}")
    if output is not None:
        write_json(doc, output)
    return EXIT_VIOLATION if failed else EXIT_OK


def gaussian_shift_track(sigma: float) -> geometry.DistributionTrack:
    """Unit-speed translated Gaussian family on 4001 grid points, at 203
    parameter values 0.005 apart: [0, 1] padded by one step each side."""
    # below 1e-154 sigma**2 vanishes; above 1e8 a 0.005 step moves the density so
    # little that the Fisher information's central difference is rounding noise
    # (J sigma**2 is 0.907 at sigma = 1e12 and 0 at 1e14); false for NaN too
    if not 1e-154 <= sigma <= 1e8:
        raise BadConfig("field 'sigma' invalid: must be a number in [1e-154, 1e8]")
    ts = (np.arange(203) - 1) * 0.005
    grid = np.linspace(-8.0 * sigma, ts[-1] + 8.0 * sigma, 4001)
    dens = np.exp(-((grid - ts[:, None]) ** 2) / (2.0 * sigma**2)) / (sigma * math.sqrt(2.0 * math.pi))
    return geometry.DistributionTrack(grid, ts, dens)


FISHER_HEADER = ["t", "fisher_information", "inv_sigma_sq", "wootters_velocity_sq"]


def fisher_command(sigma: float, output: str | None = None) -> int:
    track = gaussian_shift_track(sigma)
    rows = []
    for t in track.parameter_values[1:-1]:
        rows.append(
            [
                float(t),
                geometry.fisher_information_1d(track, float(t)),
                1.0 / sigma**2,
                geometry.statistical_velocity_sq(track, float(t)),
            ]
        )
    write_csv(output, FISHER_HEADER, rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qspeed",
        description="Simulate driven quantum systems and verify speed-limit bounds.",
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    p_run = sub.add_parser("run", help="single evolution, JSON report")
    p_run.add_argument("config")
    p_run.add_argument("-o", "--output", default=None)

    p_sweep = sub.add_parser("sweep", help="rerun over a list of values for one config field")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--param", required=True, help="dot path into the config, e.g. params.pump_rate")
    p_sweep.add_argument("--values", required=True, help="comma-separated numbers; integer literals stay integers")
    p_sweep.add_argument("-o", "--output", default=None)

    p_audit = sub.add_parser("audit", help="run and print the inequality audit")
    p_audit.add_argument("config")
    p_audit.add_argument("--tol", type=float, default=None)
    p_audit.add_argument("-o", "--output", default=None)

    p_fisher = sub.add_parser("fisher", help="translated-Gaussian Fisher information demo")
    p_fisher.add_argument("--sigma", type=float, required=True)
    p_fisher.add_argument("-o", "--output", default=None)

    return ap


def _number(token: str) -> int | float:
    """An integer literal as an int, for integer fields such as 'steps'."""
    try:
        return int(token)
    except ValueError:
        return float(token)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            return run_command(args.config, args.output)
        if args.verb == "sweep":
            try:
                values = [_number(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise BadConfig(f"--values must be comma-separated numbers: {exc}") from exc
            return sweep_command(args.config, args.param, values, args.output)
        if args.verb == "audit":
            return audit_command(args.config, args.tol, args.output)
        return fisher_command(args.sigma, args.output)
    except BadConfig as exc:
        print(f"[qspeed] config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except QspeedError as exc:
        print(f"[qspeed] error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"[qspeed] i/o error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
