"""In-memory span tracer that wraps qspeed's public functions from outside.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces module and
class attributes with timing wrappers and :meth:`Tracer.uninstall` puts the
originals back, so untraced runs execute the unmodified code.

Two kinds of record are kept:

* spans ``[run, name, start, end, parent]`` at each layer boundary (a few
  per run), with the enclosing span as parent;
* leaf tallies for functions called thousands of times per run
  (``QuantumState.purity``, the H(t) evaluator): calls and, for purity,
  time are summed into the enclosing span instead of one span per call,
  which would cost more memory than the run itself.

A span's self time is its duration minus its child spans and leaf time.
The root span of a run is named ``run``; its self time is the part of the
run wall time that no layer covers, reported as ``unattributed``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from collections import defaultdict

import qspeed
from qspeed import _linalg, bounds, cli, qdyn, verify

RUN = "run"
H_EVAL = "qdyn.h_eval"
AUDIT = "verify.audit"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.leaf_ms = defaultdict(float)  # (span index, name) -> ms
        self.counts = defaultdict(int)  # (run id, name) -> count
        self.run_id = -1
        self.scale = 1.0  # set by the caller before each cycle
        self.run_scale: dict[int, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.run_id, name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int):
        self.spans[index][3] = time.perf_counter()
        self._stack.pop()

    def run(self, run_id: int, fn, *args):
        """Call ``fn(*args)`` as run ``run_id`` under a root span."""
        self.run_id = run_id
        self.run_scale[run_id] = self.scale
        index = self.begin(RUN)
        try:
            return fn(*args)
        finally:
            self.end(index)

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # H(t) stacks nest (a shifted protocol calls its base): one span
            if name == H_EVAL and tracer._stack and tracer.spans[tracer._stack[-1]][1] == H_EVAL:
                return fn(*args, **kwargs)
            index = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _purity(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(state):
            t0 = time.perf_counter()
            try:
                return fn(state)
            finally:
                parent = tracer._stack[-1]
                tracer.leaf_ms[(parent, "qdyn.purity")] += (time.perf_counter() - t0) * 1e3
                tracer.counts[(tracer.run_id, "qdyn.purity_calls")] += 1

        return wrapper

    def _counted_evaluator(self, fn):
        counts, key = self.counts, (self.run_id, "qdyn.h_samples")

        def evaluator(t):
            counts[key] += 1
            return fn(t)

        return evaluator

    def _ground_shift(self, fn):
        span = self._span("qdyn.ground_shift", fn)

        @functools.wraps(fn)
        def wrapper(p, *args, **kwargs):
            # every H(t) sample of the run flows through the base evaluator
            p = dataclasses.replace(p, evaluator=self._counted_evaluator(p.evaluator))
            return span(p, *args, **kwargs)

        return wrapper

    def _count_steps(self, traj):
        self.counts[(self.run_id, "qdyn.steps")] += len(traj.times) - 1

    def _patches(self):
        """(owner, attribute, wrapper factory) for every traced boundary."""
        span = self._span
        return [
            (cli, "load_config", lambda f: span("cli.config", f)),
            (cli.ProtocolConfig, "from_dict", lambda f: classmethod(span("cli.config", f.__func__))),
            (cli, "build_protocol", lambda f: span("cli.build_protocol", f)),
            (cli, "write_json", lambda f: span("cli.write_json", f)),
            (cli, "run_pipeline", lambda f: span("cli.run_pipeline", f)),
            (qdyn, "ground_shift", self._ground_shift),
            (qspeed, "ground_shift", self._ground_shift),
            (qdyn, "propagate", lambda f: span("qdyn.propagate", f, after=self._count_steps)),
            (qspeed, "propagate", lambda f: span("qdyn.propagate", f, after=self._count_steps)),
            (qdyn.HamiltonianProtocol, "matrices", lambda f: span(H_EVAL, f)),
            (qdyn._GroundShiftedProtocol, "matrices", lambda f: span(H_EVAL, f)),
            (qdyn.QuantumState, "purity", self._purity),
            (_linalg, "psd_sqrt", lambda f: span("linalg.fidelity", f)),
            (_linalg, "fidelity_from_sqrt", lambda f: span("linalg.fidelity", f)),
            (_linalg, "bures_angle_from_fidelity", lambda f: span("linalg.fidelity", f)),
            (bounds, "build_report", lambda f: span("bounds.build_report", f)),
            (qspeed, "build_report", lambda f: span("bounds.build_report", f)),
            (verify, "audit_trajectory", lambda f: span(AUDIT, f)),
            (qspeed, "audit_trajectory", lambda f: span(AUDIT, f)),
        ]

    def install(self):
        for owner, attr, make in self._patches():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reduction ---------------------------------------------------------

    def self_ms(self) -> list[float]:
        """Self time of every span, in milliseconds."""
        covered = [0.0] * len(self.spans)
        for run, name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += (end - start) * 1e3
        for (index, _), ms in self.leaf_ms.items():
            covered[index] += ms
        return [(s[3] - s[2]) * 1e3 - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict:
        """Per-run means of every layer time and count over the traced runs.

        Times are multiplied by the scale of their run's cycle.
        """
        n = max(len(self.run_scale), 1)
        dur, own, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        audit_h = 0.0
        for span, self_ms in zip(self.spans, self.self_ms()):
            run, name, start, end, parent = span
            scale = self.run_scale[run]
            ms = (end - start) * 1e3 * scale
            self_ms *= scale
            dur[name] += ms
            own[name] += self_ms
            calls[name] += 1
            if name == H_EVAL and self.spans[parent][1] == AUDIT:
                audit_h += ms
        totals = defaultdict(int)
        for (_, name), count in self.counts.items():
            totals[name] += count
        purity_ms = sum(
            ms * self.run_scale[self.spans[index][0]]
            for (index, name), ms in self.leaf_ms.items()
            if name == "qdyn.purity"
        )
        steps = totals["qdyn.steps"]
        return {
            "cli.config_ms": dur["cli.config"] / n,
            "cli.build_protocol_ms": dur["cli.build_protocol"] / n,
            "cli.write_json_ms": dur["cli.write_json"] / n,
            "cli.run_pipeline_self_ms": own["cli.run_pipeline"] / n,
            "qdyn.ground_shift_ms": dur["qdyn.ground_shift"] / n,
            "qdyn.h_eval_ms": dur[H_EVAL] / n,
            "qdyn.h_eval_calls": calls[H_EVAL] / n,
            "qdyn.h_samples": totals["qdyn.h_samples"] / n,
            "qdyn.h_samples_per_step": totals["qdyn.h_samples"] / steps if steps else 0.0,
            "qdyn.propagate_self_ms": own["qdyn.propagate"] / n,
            "qdyn.steps": steps / n,
            "qdyn.purity_calls": totals["qdyn.purity_calls"] / n,
            "qdyn.purity_ms": purity_ms / n,
            "linalg.fidelity_ms": dur["linalg.fidelity"] / n,
            "verify.audit_self_ms": own[AUDIT] / n,
            "verify.audit_h_eval_ms": audit_h / n,
            "bounds.build_report_ms": dur["bounds.build_report"] / n,
            "run.traced_ms": dur[RUN] / n,
            "run.unattributed_ms": own[RUN] / n,
        }

    def write(self, path: str):
        """Write every span and leaf tally as JSON lines, times in ms from
        the first span."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (run, name, start, end, parent) in enumerate(self.spans):
                rec = {"id": i, "run": run, "name": name, "parent": parent}
                rec.update(start_ms=(start - t0) * 1e3, end_ms=(end - t0) * 1e3)
                fh.write(json.dumps(rec) + "\n")
            for (index, name), ms in self.leaf_ms.items():
                fh.write(json.dumps({"leaf": name, "parent": index, "ms": ms}) + "\n")
            for (run, name), count in self.counts.items():
                fh.write(json.dumps({"count": name, "run": run, "value": count}) + "\n")
            for run, scale in self.run_scale.items():
                fh.write(json.dumps({"scale": scale, "run": run}) + "\n")
