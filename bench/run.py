"""qspeed benchmark: one closed-loop client driving the pipeline in-process.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``corpus``, ``large_dim``, ``cli_kinds``.
Each run is one full pipeline evaluation at N = 2048; the next run starts
when the previous one returns.  BLAS is pinned to one thread.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced cycles, prints the per-layer
metrics and writes the spans to ``.bench_out/``.  Every run passes through
the correctness gate; the last line of standard output is the result as
one JSON object.  Exits 2 without a result when the sources are missing.

Times are reported at reference speed.  Before every cycle of runs, and
before every set-up probe, the benchmark times a fixed numpy kernel that
does not touch qspeed (:func:`reference_kernel`, at the workload's typical
dimension).  Each measured time is scaled by ``REF_MS`` / (that kernel's
time), which gives milliseconds on a machine where the kernel takes
``REF_MS``.  On a shared 2-vCPU VM the
raw median run time of identical inputs moved by 20-50% between
30-second windows of one process, while the scaled median moved by about
2%.  The raw wall-clock figures are in ``detail.closed_loop``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 7
# the reference kernel's time per dimension on a quiet 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4 with OpenBLAS): scaled times read as wall time
# on that machine
REF_MS = {4: 15.0, 16: 85.0}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("corpus", "large_dim", "cli_kinds"))
    ap.add_argument("--seed", type=int, default=20260810)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", default=str(ROOT / ".bench_out"), help="spans and scratch files")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ---------------------------------------------------------------------------
# Reference kernel


_REF_DATA: dict[int, list] = {}


def reference_kernel(dim: int) -> float:
    """Seconds for a fixed job shaped like one run at dimension ``dim``:
    Python-built matrix stack, batched ``eigh``, then a Python loop of
    small products.

    It uses numpy only, so a change to qspeed never changes its cost.
    """
    import numpy as np

    if dim not in _REF_DATA:
        rng = np.random.default_rng(dim)
        _REF_DATA[dim] = [rng.normal(size=(dim, dim)) for _ in range(3)]
    a, b, c = _REF_DATA[dim]
    t0 = time.perf_counter()
    stack = np.stack([a + math.sin(t) * b + math.cos(t) * c for t in np.linspace(0.0, 1.0, 2048)])
    _, v = np.linalg.eigh(stack + stack.transpose(0, 2, 1))
    psi = np.full(dim, 0.5)
    for k in range(2048):
        psi = v[k] @ psi
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Set-up


def setup_probe(args, workdir: Path) -> int:
    """Fresh-interpreter set-up: import qspeed, then generate the inputs."""
    t0 = time.perf_counter()
    import qspeed  # noqa: F401  (the first import of numpy happens here)

    t1 = time.perf_counter()
    import workloads

    workloads.make(args.workload, args.seed, str(workdir))
    t2 = time.perf_counter()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "inputs_ms": (t2 - t1) * 1e3}))
    return 0


def measure_setup(args, ref_dim: int) -> list[dict]:
    """SETUP_PROBES fresh interpreters doing the set-up, each after a
    reference-kernel timing (kept as the probe's ``scale``)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    cmd += ["--workload", args.workload, "--seed", str(args.seed), "--out-dir", args.out_dir]
    probes = []
    for _ in range(SETUP_PROBES):
        scale = REF_MS[ref_dim] / 1e3 / reference_kernel(ref_dim)
        t0 = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        wall = time.perf_counter() - t0
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probes.append({"wall_s": wall, "scale": scale, **probe})
    return probes


# ---------------------------------------------------------------------------
# The closed loop


class Loop:
    """Walks a workload's pool in whole cycles and gates every run."""

    def __init__(self, wl):
        self.wl = wl
        self.position = 0
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}
        self.findings: dict[int, dict] = {}

    def run_one(self, index: int, tracer=None) -> float | None:
        """Run pool entry ``index``; its wall seconds, or None if it failed."""
        case = self.wl.cases[index]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.wl.execute(case)
            else:
                result = tracer.run(self.attempted, self.wl.execute, case)
            elapsed = time.perf_counter() - t0
            outcome = self.wl.judge(case, result)
        except Exception as exc:  # a raising run is a failed run; keep going
            self.failures.append(f"input {index}: {type(exc).__name__}: {exc}")
            return None
        if not outcome.ok:
            self.failures.append(f"input {index}: {outcome.reason}")
            return None
        if self.digests.setdefault(index, outcome.digest) != outcome.digest:
            self.failures.append(f"input {index}: report differs from its first run")
            return None
        self.findings.setdefault(index, outcome.findings)
        return elapsed

    def cycle(self, tracer=None) -> tuple[float, list[float | None]]:
        """One pass over the input classes after a reference-kernel timing.

        Returns the scale (nominal / measured kernel time) and the wall
        seconds of each class, None where the run failed.
        """
        scale = REF_MS[self.wl.ref_dim] / 1e3 / reference_kernel(self.wl.ref_dim)
        if tracer is not None:
            tracer.scale = scale
        times = []
        for _ in range(self.wl.cycle):
            times.append(self.run_one(self.position % len(self.wl.cases), tracer))
            self.position += 1
        return scale, times

    def fingerprint(self) -> dict:
        """Digest and finding counts over the first ``fingerprint_runs``
        inputs, which do not depend on how many runs fit in the window."""
        for index in range(self.wl.fingerprint_runs):
            if index not in self.digests:
                self.run_one(index)
        if any(i not in self.digests for i in range(self.wl.fingerprint_runs)):
            return {"runs": self.wl.fingerprint_runs, "report_digest": None, "findings": None}
        joined = "\n".join(self.digests[i] for i in range(self.wl.fingerprint_runs))
        findings = Counter()
        for i in range(self.wl.fingerprint_runs):
            findings.update(self.findings[i])
        return {
            "runs": self.wl.fingerprint_runs,
            "report_digest": hashlib.sha256(joined.encode()).hexdigest(),
            "findings": dict(sorted(findings.items())),
        }


def timed_window(loop: Loop, seconds: float, tracer=None):
    """One warm-up cycle, then whole cycles until ``seconds`` have passed.

    With a tracer, cycles alternate untraced and traced, so both see the
    same inputs and the same drift of the machine.  Returns the untraced
    and the traced cycles.
    """
    loop.cycle()
    plain, traced = [], []
    start, k = time.perf_counter(), 0
    while True:
        if tracer is not None and k % 2 == 1:
            tracer.install()
            try:
                traced.append(loop.cycle(tracer))
            finally:
                tracer.uninstall()
        else:
            plain.append(loop.cycle())
        k += 1
        if time.perf_counter() - start >= seconds and (tracer is None or k % 2 == 0):
            return plain, traced


def scaled_cycle_s(cycles) -> float:
    """Median over complete cycles of their summed run time, scaled."""
    return statistics.median(scale * sum(ts) for scale, ts in cycles if None not in ts)


def end_to_end(cycles) -> dict:
    """The scaled end-to-end times of the untraced cycles."""
    runs = [scale * t for scale, ts in cycles for t in ts if t is not None]
    n_classes = len(cycles[0][1])
    class_p50 = [
        statistics.median(scale * ts[k] for scale, ts in cycles if ts[k] is not None)
        for k in range(n_classes)
        if any(ts[k] is not None for _, ts in cycles)
    ]
    return {
        "runs_per_s": n_classes / scaled_cycle_s(cycles),
        "run_ms_p50": statistics.median(runs) * 1e3,
        "run_ms_worst_class": max(class_p50) * 1e3,
    }


def closed_loop(cycles, ref_ms: float) -> dict:
    """Raw wall-clock figures: throughput, median, the highest of the usual
    percentiles that leaves at least ten runs beyond it, and the kernel's
    own times (``ref_ms`` is its nominal time)."""
    times = sorted(t for _, ts in cycles for t in ts if t is not None)
    n = len(times)
    out = {"runs": n, "runs_per_s": n / sum(times), "run_ms_p50": statistics.median(times) * 1e3}
    for pct in (99.9, 99, 95, 90, 75, 50):
        rank = math.ceil(pct / 100 * n)
        if n - rank >= 10:
            out.update(tail_percentile=pct, run_ms_tail=times[rank - 1] * 1e3, beyond=n - rank)
            break
    kernel_ms = [ref_ms / scale for scale, _ in cycles]
    out.update(reference_ms_min=min(kernel_ms), reference_ms_p50=statistics.median(kernel_ms))
    return out


# ---------------------------------------------------------------------------
# Environment record


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------------------
# Entry point


def bench(args, out_dir: Path, workdir: Path) -> int:
    import qspeed  # noqa: F401

    import tracer as tracing
    import workloads

    wl = workloads.make(args.workload, args.seed, str(workdir))
    reference_kernel(wl.ref_dim)  # the first call pays one-time numpy set-up
    probes = measure_setup(args, wl.ref_dim)
    loop = Loop(wl)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = timed_window(loop, args.seconds, tracer)
    fingerprint = loop.fingerprint()

    failed = len(loop.failures)
    detail = {"environment": environment(args), "fingerprint": fingerprint, "reference_ms": REF_MS[wl.ref_dim]}
    detail["failed_ratio"] = failed / loop.attempted
    detail["failures"] = loop.failures[:10]
    # one probe is too short for its own kernel timing to track the machine:
    # set-up is scaled by the median over every kernel timing of the run
    setup_scale = statistics.median([p["scale"] for p in probes] + [s for s, _ in plain + traced])
    detail["setup_s_raw"] = statistics.median(p["wall_s"] for p in probes)
    values = {"setup_s": detail["setup_s_raw"] * setup_scale}
    complete = [c for c in plain if None not in c[1]]
    if complete:
        values.update(end_to_end(plain))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        detail["closed_loop"] = closed_loop(plain, REF_MS[wl.ref_dim])
    if tracer is not None:
        values.update(tracer.layer_metrics())
        values["startup.import_ms"] = statistics.median(p["import_ms"] for p in probes) * setup_scale
        values["startup.inputs_ms"] = statistics.median(p["inputs_ms"] for p in probes) * setup_scale
        if complete and any(None not in ts for _, ts in traced):
            values["trace.overhead_pct"] = (scaled_cycle_s(traced) / scaled_cycle_s(plain) - 1.0) * 100.0
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(str(spans))
        detail["spans"] = str(spans.relative_to(ROOT)) if spans.is_relative_to(ROOT) else str(spans)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    print(f"qspeed benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']!r:>24} {m['unit']}")
    print("detail: " + json.dumps(detail, sort_keys=True))
    result = {"correct": failed == 0, "attempted": loop.attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # before numpy loads; setup probes inherit it
        os.environ[var] = "1"
    if not (SRC / "qspeed" / "__init__.py").is_file():
        print(f"error: no qspeed sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out_dir = Path(args.out_dir)
    workdir = out_dir / f"work-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        return bench(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
